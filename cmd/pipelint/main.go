// Command pipelint runs the pipefut futures-correctness analyzer suite:
// doublewrite and leakedfork (internal/analysis), flowlinear, mustwrite
// and deadcycle (internal/analysis/flow). These passes check the static
// preconditions behind the paper's cost and machine bounds —
// single-assignment cells, every result cell written on every path, no
// dead speculative forks, at most one touch per cell, no inevitable
// deadlocks (§4, Lemma 4.1).
//
// It runs the same suite in two modes:
//
//	pipelint ./...                      # standalone, over go list patterns
//	go vet -vettool=$(which pipelint) ./...   # as a go vet tool
//
// The vettool mode implements the go vet driver protocol (the same
// contract as x/tools' unitchecker): a -V=full version handshake, a
// -flags enumeration, and per-package .cfg invocations whose dependency
// types are read from compiler export data. The implementation is
// standard-library only; see internal/analysis for the framework.
package main

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"go/token"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"text/tabwriter"

	"pipefut/internal/analysis"
	"pipefut/internal/analysis/flow"
	"pipefut/internal/analysis/load"
	"pipefut/internal/verdict"
)

func main() {
	versionFlag := flag.String("V", "", "print version and exit (go vet handshake)")
	flagsFlag := flag.Bool("flags", false, "print analyzer flags as JSON and exit (go vet handshake)")
	jsonFlag := flag.Bool("json", false, "write diagnostics to stdout as a JSON array instead of text on stderr")
	verdictsFlag := flag.Bool("verdicts", false, "emit the flow-class verdict manifest (internal/verdict) as JSON to stdout and exit; the optional argument is the repo root (default .)")
	budgetFlag := flag.Bool("budget", false, "print the per-entry-point cell-allocation budget table (human-readable) and exit; the optional argument is the repo root (default .)")
	flag.Usage = usage
	flag.Parse()

	if *versionFlag != "" {
		printVersion()
		return
	}
	if *flagsFlag {
		// No exposed analyzer flags; the driver only needs valid JSON.
		fmt.Println("[]")
		return
	}

	if *verdictsFlag || *budgetFlag {
		root := "."
		if flag.NArg() > 0 {
			root = flag.Arg(0)
		}
		m, err := verdict.Generate(root)
		if err != nil {
			fmt.Fprintln(os.Stderr, "pipelint:", err)
			os.Exit(2)
		}
		var out []byte
		if *budgetFlag {
			out = []byte(budgetTable(m))
		} else {
			out = m.JSON()
		}
		// The manifest is the CI drift gate's input: a short write (full
		// disk, closed pipe) that still exited 0 would let a truncated
		// manifest pass for the real one.
		if _, err := os.Stdout.Write(out); err != nil {
			fmt.Fprintln(os.Stderr, "pipelint: writing manifest to stdout:", err)
			os.Exit(2)
		}
		return
	}

	args := flag.Args()
	if len(args) == 1 && strings.HasSuffix(args[0], ".cfg") {
		os.Exit(unitcheck(args[0]))
	}
	if len(args) == 0 {
		args = []string{"./..."}
	}
	os.Exit(standalone(args, *jsonFlag))
}

// suite is the analyzer suite both modes run.
func suite() []*analysis.Analyzer {
	return append(analysis.All(), flow.All()...)
}

func usage() {
	fmt.Fprintf(os.Stderr, "usage: pipelint [-json] [packages]\n"+
		"   or: go vet -vettool=$(which pipelint) [packages]\n\nanalyzers:\n")
	for _, a := range suite() {
		fmt.Fprintf(os.Stderr, "  %-12s %s\n", a.Name, a.Doc)
	}
}

// printVersion implements the -V=full handshake: the go command derives
// the tool's cache-busting ID from the trailing buildID field, so it is a
// content hash of the executable (matching unitchecker's behaviour).
func printVersion() {
	progname := filepath.Base(os.Args[0])
	h := sha256.New()
	if f, err := os.Open(os.Args[0]); err == nil {
		io.Copy(h, f)
		f.Close()
	}
	fmt.Printf("%s version devel comments-go-here buildID=%02x\n", progname, h.Sum(nil)[:12])
}

// jsonDiag is the machine-readable diagnostic shape emitted by -json.
type jsonDiag struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

// standalone lists, loads, and analyzes the packages matching the
// patterns, printing diagnostics to stderr (or, with -json, to stdout as
// a JSON array). Exit code 1 means findings, 2 means operational failure.
func standalone(patterns []string, asJSON bool) int {
	pkgs, err := load.GoList(".", patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pipelint:", err)
		return 2
	}

	// Export data of the whole graph, for fast dependency importing.
	exports := make(map[string]string)
	for _, p := range pkgs {
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
	}

	fset := token.NewFileSet()
	found := []jsonDiag{}
	failed := false
	for _, p := range pkgs {
		if p.DepOnly || p.Standard {
			continue
		}
		if len(p.GoFiles) == 0 {
			// go list -e turns an unresolvable pattern into a stub
			// package carrying the error; surface it instead of
			// silently analyzing nothing.
			if p.Error != nil {
				fmt.Fprintf(os.Stderr, "pipelint: %s: %s\n", p.ImportPath, p.Error.Err)
				failed = true
			}
			continue
		}
		if len(p.CgoFiles) > 0 {
			fmt.Fprintf(os.Stderr, "pipelint: skipping %s (cgo)\n", p.ImportPath)
			continue
		}
		diags, err := checkPackage(fset, p.ImportPath, p.Dir, p.AbsFiles(), nil, exports)
		if err != nil {
			fmt.Fprintf(os.Stderr, "pipelint: %s: %v\n", p.ImportPath, err)
			failed = true
			continue
		}
		for _, d := range diags {
			pos := fset.Position(d.Pos)
			if !d.Pos.IsValid() {
				// Anchor position-less findings to the package's first
				// file: the JSON consumers (the CI annotation lane's jq
				// pass) require a non-empty file and a 1-based line.
				if fs := p.AbsFiles(); len(fs) > 0 {
					pos.Filename = fs[0]
				}
				pos.Line, pos.Column = 1, 1
			}
			found = append(found, jsonDiag{
				File:     pos.Filename,
				Line:     pos.Line,
				Col:      pos.Column,
				Analyzer: d.Category,
				Message:  d.Message,
			})
			if !asJSON {
				fmt.Fprintf(os.Stderr, "%s: %s (%s)\n", pos, d.Message, d.Category)
			}
		}
	}
	if asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "\t")
		if err := enc.Encode(found); err != nil {
			fmt.Fprintln(os.Stderr, "pipelint:", err)
			return 2
		}
	}
	switch {
	case failed:
		return 2
	case len(found) > 0:
		return 1
	}
	return 0
}

// budgetTable renders the manifest's cell-budget section as a
// human-readable table: entries, then groups, then seqsafe verdicts,
// each sorted by name so the output is stable run to run.
func budgetTable(m *verdict.Manifest) string {
	var b strings.Builder
	w := tabwriter.NewWriter(&b, 2, 8, 2, ' ', 0)

	fmt.Fprintln(w, "Cell budgets per entry point (symbolic bound on cells allocated per call):")
	fmt.Fprintln(w, "ENTRY\tCLASS\tBUDGET\tATTRIBUTION")
	for _, e := range sortedKeys(m.CellBudget.Entries) {
		bv := m.CellBudget.Entries[e]
		fmt.Fprintf(w, "%s\t%s\t%s\t%s\n", e, m.Entries[e].Class, budgetString(bv), bv.Detail)
	}

	fmt.Fprintln(w, "\nGroup budgets (weakest analyzed member; unanalyzed twins inherit these):")
	fmt.Fprintln(w, "GROUP\tCLASS\tBUDGET")
	for _, g := range sortedKeys(m.CellBudget.Groups) {
		fmt.Fprintf(w, "%s\t%s\t%s\n", g, m.Groups[g].Class, budgetString(m.CellBudget.Groups[g]))
	}

	fmt.Fprintln(w, "\nSeqsafe (GrainCutoff eligibility: below-cutoff sequential twins proven cell-free):")
	fmt.Fprintln(w, "ENTRY\tSAFE\tDETAIL")
	for _, e := range sortedKeys(m.CellBudget.SeqSafe) {
		sv := m.CellBudget.SeqSafe[e]
		fmt.Fprintf(w, "%s\t%v\t%s\n", e, sv.Safe, sv.Detail)
	}

	w.Flush()
	return b.String()
}

func budgetString(b verdict.Budget) string {
	if !b.Claims() {
		return verdict.BudgetUnanalyzed
	}
	return fmt.Sprintf("%s(%d)", b.Kind, b.K)
}

func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

// checkPackage typechecks one package — via export data when available,
// falling back to typechecking dependencies from source (load.LoadPackage)
// — and runs the analyzer suite over it.
func checkPackage(fset *token.FileSet, pkgPath, dir string, files []string, importMap, exports map[string]string) ([]analysis.Diagnostic, error) {
	pkg, err := load.LoadPackage(fset, pkgPath, dir, files, importMap, exports)
	if err != nil {
		return nil, err
	}
	return analysis.Run(suite(), fset, pkg.Files, pkg.Types, pkg.Info)
}
