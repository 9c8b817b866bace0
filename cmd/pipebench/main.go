// Command pipebench regenerates the experiments of DESIGN.md: for every
// theorem, corollary, and figure of "Pipelining with Futures" it measures
// the relevant computation in the cost model (or on the work-stealing
// scheduler for the wall-clock experiments) and prints a paper-style table.
//
// Usage:
//
//	pipebench                 # run every experiment
//	pipebench -exp merge      # run one experiment
//	pipebench -list           # list experiments
//	pipebench -maxlgn 16      # bound input sizes at 2^16
//	pipebench -trials 5       # more repetitions for the randomized runs
//	pipebench -smoke          # tiny inputs, one trial (CI smoke lane)
package main

import (
	"flag"
	"fmt"
	"os"

	"pipefut/internal/bench"
)

func main() {
	var (
		exp    = flag.String("exp", "", "experiment ID to run (default: all)")
		list   = flag.Bool("list", false, "list experiments and exit")
		maxLgN = flag.Int("maxlgn", bench.DefaultConfig.MaxLgN, "largest input size is 2^maxlgn")
		seed   = flag.Uint64("seed", bench.DefaultConfig.Seed, "workload seed")
		trials = flag.Int("trials", bench.DefaultConfig.Trials, "trials per point for randomized experiments")
		smoke  = flag.Bool("smoke", false, "smoke-test mode: cap inputs at 2^12 and run one trial")
	)
	flag.Parse()

	if *list {
		for _, e := range bench.All() {
			fmt.Printf("%-10s %-28s %s\n", e.ID, e.Paper, e.Claim)
		}
		return
	}

	cfg := bench.Config{MaxLgN: *maxLgN, Seed: *seed, Trials: *trials}
	if *smoke {
		cfg.MaxLgN = min(cfg.MaxLgN, bench.QuickConfig.MaxLgN)
		cfg.Trials = 1
	}
	run := func(e bench.Experiment) {
		fmt.Printf("### %s — %s\n### %s\n\n", e.ID, e.Paper, e.Claim)
		if err := e.Run(cfg, os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "pipebench: %s: %v\n", e.ID, err)
			os.Exit(1)
		}
	}

	if *exp != "" {
		e, ok := bench.Get(*exp)
		if !ok {
			fmt.Fprintf(os.Stderr, "pipebench: unknown experiment %q (use -list)\n", *exp)
			os.Exit(2)
		}
		run(e)
		return
	}
	for _, e := range bench.All() {
		run(e)
	}
}
