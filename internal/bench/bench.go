// Package bench is the experiment harness: a registry of the experiments
// listed in DESIGN.md, each of which regenerates the quantitative content
// of one result of "Pipelining with Futures" (a theorem, corollary, or
// figure) as a paper-style table, plus shape checks (growth-law fits) on
// the measured series.
//
// Run experiments with cmd/pipebench; the testing.B benchmarks in the repo
// root wrap the same code.
package bench

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// Config parameterizes an experiment run.
type Config struct {
	// MaxLgN bounds the largest input size as 2^MaxLgN. Experiments
	// sweep powers of two up to this. Typical: 16–20; tests use less.
	MaxLgN int
	// Seed feeds every workload generator.
	Seed uint64
	// Trials is how many random instances are averaged per data point
	// for the randomized (expected-cost) experiments.
	Trials int
}

// DefaultConfig is what cmd/pipebench uses unless told otherwise.
var DefaultConfig = Config{MaxLgN: 18, Seed: 42, Trials: 3}

// QuickConfig is a small configuration for tests.
var QuickConfig = Config{MaxLgN: 12, Seed: 42, Trials: 2}

// Experiment is one reproducible experiment.
type Experiment struct {
	// ID is the experiment identifier from DESIGN.md, e.g. "merge".
	ID string
	// Paper names the paper result it regenerates, e.g. "Theorem 3.1".
	Paper string
	// Claim is a one-line statement of what the paper predicts.
	Claim string
	// Run executes the experiment and writes its tables to w.
	Run func(cfg Config, w io.Writer) error
}

var registry = map[string]Experiment{}

// Register adds an experiment; it panics on duplicate IDs (programmer
// error at init time).
func Register(e Experiment) {
	if _, dup := registry[e.ID]; dup {
		panic("bench: duplicate experiment id " + e.ID)
	}
	registry[e.ID] = e
}

// Get returns the experiment with the given ID.
func Get(id string) (Experiment, bool) {
	e, ok := registry[id]
	return e, ok
}

// All returns every registered experiment, sorted by ID.
func All() []Experiment {
	out := make([]Experiment, 0, len(registry))
	for _, e := range registry {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Table renders aligned fixed-width tables in the style of the paper's
// result presentation.
type Table struct {
	Title  string
	Header []string
	rows   [][]string
	notes  []string
}

// NewTable returns a table with the given title and column headers.
func NewTable(title string, header ...string) *Table {
	return &Table{Title: title, Header: header}
}

// Row appends a row; cells beyond the header width are dropped.
func (t *Table) Row(cells ...string) {
	t.rows = append(t.rows, cells)
}

// Note appends a free-text note rendered under the table.
func (t *Table) Note(format string, args ...any) {
	t.notes = append(t.notes, fmt.Sprintf(format, args...))
}

// Fprint writes the table to w.
func (t *Table) Fprint(w io.Writer) error {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len([]rune(h))
	}
	for _, r := range t.rows {
		for i, c := range r {
			if i < len(widths) && len([]rune(c)) > widths[i] {
				widths[i] = len([]rune(c))
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "== %s ==\n", t.Title)
	}
	line := func(cells []string) {
		for i := range t.Header {
			c := ""
			if i < len(cells) {
				c = cells[i]
			}
			if i > 0 {
				b.WriteString("  ")
			}
			pad := widths[i] - len([]rune(c))
			b.WriteString(strings.Repeat(" ", pad))
			b.WriteString(c)
		}
		b.WriteByte('\n')
	}
	line(t.Header)
	total := len(t.Header)*2 - 2
	for _, w0 := range widths {
		total += w0
	}
	b.WriteString(strings.Repeat("-", total))
	b.WriteByte('\n')
	for _, r := range t.rows {
		line(r)
	}
	for _, n := range t.notes {
		fmt.Fprintf(&b, "  · %s\n", n)
	}
	b.WriteByte('\n')
	_, err := io.WriteString(w, b.String())
	return err
}

// F formats a float compactly for table cells.
func F(x float64) string {
	switch {
	case x != x: // NaN
		return "-"
	case x >= 1000:
		return fmt.Sprintf("%.0f", x)
	case x >= 10:
		return fmt.Sprintf("%.1f", x)
	default:
		return fmt.Sprintf("%.2f", x)
	}
}

// I formats an int64 for table cells.
func I(x int64) string { return fmt.Sprintf("%d", x) }

// Sizes returns the power-of-two sweep 2^lo .. 2^cfg.MaxLgN.
func (cfg Config) Sizes(lo int) []int {
	var out []int
	for e := lo; e <= cfg.MaxLgN; e++ {
		out = append(out, 1<<e)
	}
	return out
}
