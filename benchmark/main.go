// Command benchmark is the repository's benchmark: four serving workloads
// at a 131 072-key working set, six end-to-end metrics each, and a ledger
// of per-layer metrics taken from outside the measured code. BENCHMARK.json
// at the repository root names the workloads and metrics; README.md here
// explains them.
//
//	go run -C benchmark . [-seed N] [-seconds S] [-trace 1] [-repeat N] [-quick]
//	    every workload, each in a fresh child process; writes -out
//	go run -C benchmark . -workload W -seed N -seconds S -trace 0|1
//	    one workload in this process; the last line of output is one JSON
//	    object {"correct","attempted","failed","metrics"}
//	go run -C benchmark . compare a.json b.json
//	    two result files against the bounds in BENCHMARK.json
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

// spec mirrors BENCHMARK.json, the single place the workload and metric
// names, units, directions and bounds are written down.
type spec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// findRoot walks up from the working directory to the checkout's root:
// the directory holding BENCHMARK.json beside the module's go.mod.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		_, errB := os.Stat(filepath.Join(dir, "BENCHMARK.json"))
		_, errM := os.Stat(filepath.Join(dir, "go.mod"))
		if errB == nil && errM == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no BENCHMARK.json beside a go.mod above the working directory: run from a checkout of the repository")
		}
		dir = parent
	}
}

func loadSpec(root string) (*spec, error) {
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var sp spec
	if err := json.Unmarshal(b, &sp); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &sp, nil
}

// quickSeconds is -quick's measured time per run: enough to pass through
// every phase and check, too short for the numbers to mean anything.
const quickSeconds = 1

func main() {
	if err := mainErr(); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func mainErr() error {
	root, err := findRoot()
	if err != nil {
		return err
	}
	sp, err := loadSpec(root)
	if err != nil {
		return err
	}
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		if len(os.Args) != 4 {
			return errors.New("usage: compare a.json b.json")
		}
		return compare(sp, os.Args[2], os.Args[3])
	}

	var (
		workloadName = flag.String("workload", "", "run this one workload in this process (default: every workload, each in a child process)")
		seed         = flag.Uint64("seed", 1, "workload seed: the same seed gives the same inputs")
		seconds      = flag.Float64("seconds", float64(sp.RunSeconds), "measured time per run; every phase is a fixed share of it")
		trace        = flag.Int("trace", 0, "1 = the traced run: per-layer metrics and a span file instead of end-to-end metrics (full set: both)")
		quick        = flag.Bool("quick", false, "smoke run: 1 s measured per run, set-up timed once")
		repeat       = flag.Int("repeat", 1, "full set: how many times to run every workload")
		out          = flag.String("out", filepath.Join("results", "BENCH_11.json"), "full set: result file, relative to the benchmark directory")
		setupOnly    = flag.Bool("setup-only", false, "internal: set up, print the set-up time in seconds, exit")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", flag.Arg(0))
	}
	if *trace != 0 && *trace != 1 {
		return errors.New("-trace takes 0 or 1")
	}
	if *quick {
		*seconds = quickSeconds
	}
	if *seconds <= 0 {
		return errors.New("-seconds must be positive")
	}

	if *workloadName == "" {
		return runFullSet(root, sp, fullSetCfg{seed: *seed, seconds: *seconds, trace: *trace == 1, quick: *quick, repeat: *repeat, out: *out})
	}
	w, ok := workloadByName(*workloadName)
	if !ok {
		return fmt.Errorf("unknown workload %q", *workloadName)
	}
	cfg := runCfg{root: root, results: filepath.Join(root, sp.Paths[0], "results"), w: w, seed: *seed, seconds: *seconds, trace: *trace == 1, setups: setupRepeats, setupOnly: *setupOnly}
	if *quick {
		cfg.setups = 1
	}
	res, err := run(cfg)
	if err != nil || res == nil {
		return err
	}
	specs := sp.EndToEnd
	if cfg.trace {
		specs = sp.PerLayer
	}
	if err := emit(specs, res); err != nil {
		return err
	}
	if len(res.problems) > 0 {
		return errIncorrect
	}
	return nil
}

// setupRepeats is how many times a run times set-up; it reports the
// median, so one slow process start does not move setup_s.
const setupRepeats = 3

// line is the last line of a run's standard output.
type line struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// emit prints every metric the spec names for this mode, by name with its
// unit, then the result line. A metric the run did not produce is an
// error: the spec and the harness must agree.
func emit(specs []metricSpec, res *runResult) error {
	l := line{Correct: len(res.problems) == 0, Attempted: res.attempted, Failed: res.failed, Metrics: map[string]metricValue{}}
	for _, n := range res.notes {
		fmt.Println("#", n)
	}
	for _, p := range res.problems {
		fmt.Println("# CHECK FAILED:", p)
	}
	for _, m := range specs {
		v, ok := res.metrics[m.Name]
		if !ok {
			return fmt.Errorf("BENCHMARK.json names metric %q, which this run did not produce", m.Name)
		}
		fmt.Printf("%-32s %14.4f %s\n", m.Name, v, m.Unit)
		l.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	fmt.Printf("%-32s %14.6f ratio\n", "fail_share", float64(res.failed)/float64(max(res.attempted, 1)))
	b, err := json.Marshal(l)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// ---- the full set ----------------------------------------------------------

type fullSetCfg struct {
	seed    uint64
	seconds float64
	trace   bool
	quick   bool
	repeat  int
	out     string
}

// resultFile is what a full set writes: where it ran, and one record per
// (repeat, workload).
type resultFile struct {
	Host host        `json:"host"`
	Runs []runRecord `json:"runs"`
}

// host records what two result files must share to be comparable.
type host struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
}

type runRecord struct {
	Workload  string             `json:"workload"`
	Repeat    int                `json:"repeat"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	FailShare float64            `json:"fail_share"`
	EndToEnd  map[string]float64 `json:"end_to_end"`
	PerLayer  map[string]float64 `json:"per_layer,omitempty"`
}

// gitCommit names the checkout's commit, or "unknown" outside a git
// repository (the driver's checkouts are not one).
func gitCommit(root string) string {
	cmd := exec.Command("git", "rev-parse", "--short", "HEAD")
	cmd.Dir = root
	b, err := cmd.Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(b))
}

// runChild runs one workload in a fresh process and parses its result
// line. The child's own output passes through, so every metric is
// printed by name.
func runChild(w string, c fullSetCfg, trace int) (*line, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{"-workload", w, "-seed", strconv.FormatUint(c.seed, 10),
		"-seconds", strconv.FormatFloat(c.seconds, 'g', -1, 64), "-trace", strconv.Itoa(trace)}
	if c.quick {
		args = append(args, "-quick")
	}
	cmd := exec.Command(self, args...)
	cmd.Stderr = os.Stderr
	b, runErr := cmd.Output()
	os.Stdout.Write(b)
	lines := strings.Split(strings.TrimSpace(string(b)), "\n")
	var l line
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &l); err != nil {
		if runErr != nil {
			return nil, fmt.Errorf("workload %s: %w", w, runErr)
		}
		return nil, fmt.Errorf("workload %s printed no result line: %w", w, err)
	}
	return &l, nil // an incorrect run still has a line; the caller fails on it
}

func values(m map[string]metricValue) map[string]float64 {
	out := make(map[string]float64, len(m))
	for k, v := range m {
		out[k] = v.Value
	}
	return out
}

func runFullSet(root string, sp *spec, c fullSetCfg) error {
	rf := resultFile{Host: host{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Commit: gitCommit(root), Seed: c.seed, Seconds: c.seconds,
	}}
	incorrect := false
	for rep := 1; rep <= c.repeat; rep++ {
		for _, w := range sp.Workloads {
			fmt.Printf("== %s (repeat %d of %d, seed %d, %g s) ==\n", w.Name, rep, c.repeat, c.seed, c.seconds)
			l, err := runChild(w.Name, c, 0)
			if err != nil {
				return err
			}
			rec := runRecord{Workload: w.Name, Repeat: rep, Attempted: l.Attempted, Failed: l.Failed,
				FailShare: float64(l.Failed) / float64(max(l.Attempted, 1)), EndToEnd: values(l.Metrics)}
			if !l.Correct {
				incorrect = true
				rec.FailShare = 1 // a run that fails its output checks measured nothing
			}
			if c.trace {
				fmt.Printf("== %s, traced ==\n", w.Name)
				tl, err := runChild(w.Name, c, 1)
				if err != nil {
					return err
				}
				rec.PerLayer = values(tl.Metrics)
				if !tl.Correct {
					incorrect = true
					rec.FailShare = 1
				}
			}
			rf.Runs = append(rf.Runs, rec)
		}
	}
	printSummary(sp, &rf)
	b, err := json.MarshalIndent(rf, "", " ")
	if err != nil {
		return err
	}
	outPath := c.out
	if !filepath.IsAbs(outPath) {
		outPath = filepath.Join(root, sp.Paths[0], outPath)
	}
	if err := os.MkdirAll(filepath.Dir(outPath), 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(outPath, append(b, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Println("wrote", outPath)
	if incorrect {
		return errIncorrect
	}
	return nil
}

// printSummary prints the end-to-end table: one row per workload, the
// median over repeats of every metric.
func printSummary(sp *spec, rf *resultFile) {
	fmt.Printf("\n%-22s", "workload")
	for _, m := range sp.EndToEnd {
		fmt.Printf(" %16s", m.Name+" ("+m.Unit+")")
	}
	fmt.Printf(" %10s\n", "fail_share")
	for _, w := range sp.Workloads {
		fmt.Printf("%-22s", w.Name)
		for _, m := range sp.EndToEnd {
			fmt.Printf(" %16.4f", rf.median(w.Name, m.Name))
		}
		fmt.Printf(" %10.6f\n", rf.failShare(w.Name))
	}
}

// median is a workload's median over repeats of one end-to-end metric.
func (rf *resultFile) median(workload, metric string) float64 {
	var xs []float64
	for _, r := range rf.Runs {
		if r.Workload == workload {
			xs = append(xs, r.EndToEnd[metric])
		}
	}
	return median(xs)
}

// failShare is a workload's worst fail_share over repeats.
func (rf *resultFile) failShare(workload string) float64 {
	worst := 0.0
	for _, r := range rf.Runs {
		if r.Workload == workload {
			worst = max(worst, r.FailShare)
		}
	}
	return worst
}
