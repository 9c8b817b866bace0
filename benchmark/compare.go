package main

// compare: two result files, metric by metric, against the bounds in
// BENCHMARK.json.

import (
	"encoding/json"
	"fmt"
	"os"
)

// failShareBound is the absolute amount fail_share may rise. It is not in
// BENCHMARK.json because a metric there must never read 0, and this one
// should always.
const failShareBound = 0.001

func readResultFile(path string) (*resultFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rf resultFile
	if err := json.Unmarshal(b, &rf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rf, nil
}

// compare prints, per workload, how far b's median of each end-to-end
// metric is from a's in the direction that is worse, against the bound,
// and returns an error if any is outside it. Results from hosts with
// different core counts are not comparable at all: every p > 1 number
// depends on the cores being there.
func compare(sp *spec, pathA, pathB string) error {
	a, err := readResultFile(pathA)
	if err != nil {
		return err
	}
	b, err := readResultFile(pathB)
	if err != nil {
		return err
	}
	if a.Host.NProc != b.Host.NProc || a.Host.GOMAXPROCS != b.Host.GOMAXPROCS {
		return fmt.Errorf("refusing to compare: %s ran on nproc=%d GOMAXPROCS=%d, %s on nproc=%d GOMAXPROCS=%d",
			pathA, a.Host.NProc, a.Host.GOMAXPROCS, pathB, b.Host.NProc, b.Host.GOMAXPROCS)
	}
	if a.Host.Seconds != b.Host.Seconds {
		return fmt.Errorf("refusing to compare: %s measured %g s per run, %s %g s", pathA, a.Host.Seconds, pathB, b.Host.Seconds)
	}
	fmt.Printf("a: %s (commit %s, seed %d)\nb: %s (commit %s, seed %d)\n", pathA, a.Host.Commit, a.Host.Seed, pathB, b.Host.Commit, b.Host.Seed)
	fmt.Printf("%-22s %-16s %12s %12s %9s %7s\n", "workload", "metric", "a", "b", "worse by", "bound")
	outside := 0
	for _, w := range sp.Workloads {
		for _, m := range sp.EndToEnd {
			va, vb := a.median(w.Name, m.Name), b.median(w.Name, m.Name)
			if va == 0 {
				return fmt.Errorf("%s has no %s for workload %s", pathA, m.Name, w.Name)
			}
			worse := (vb - va) / va
			if m.Better == "higher" {
				worse = -worse
			}
			verdict := ""
			if worse > m.Bound {
				verdict = "  OUTSIDE"
				outside++
			}
			fmt.Printf("%-22s %-16s %12.4f %12.4f %+8.1f%% %6.0f%%%s\n", w.Name, m.Name, va, vb, 100*worse, 100*m.Bound, verdict)
		}
		fa, fb := a.failShare(w.Name), b.failShare(w.Name)
		verdict := ""
		if fb-fa > failShareBound {
			verdict = "  OUTSIDE"
			outside++
		}
		fmt.Printf("%-22s %-16s %12.6f %12.6f %+9.6f %7.3f%s\n", w.Name, "fail_share", fa, fb, fb-fa, failShareBound, verdict)
	}
	if outside > 0 {
		return fmt.Errorf("%d metric(s) outside their bound", outside)
	}
	return nil
}
