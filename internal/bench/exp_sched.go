package bench

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"pipefut/internal/paralg"
	"pipefut/internal/seqtreap"
	"pipefut/internal/seqtree"
)

func init() {
	Register(Experiment{
		ID:    "sched",
		Paper: "Section 4 (greedy futures scheduling, Lemma 4.1)",
		Claim: "an explicit work-stealing runtime with continuation suspension matches the goroutine runtime and its wall-clock follows the steps ≤ w/p + d shape",
		Run:   runSched,
	})
}

// schedPoint is one (worker count, wall-clock) sample of the sched runtime.
type schedPoint struct {
	p int
	t time.Duration
}

// pSweep is the worker-count sweep: 1, 2, 4, and the host's GOMAXPROCS,
// deduplicated and ascending.
func pSweep(maxP int) []int {
	var out []int
	for _, p := range []int{1, 2, 4, maxP} {
		dup := false
		for _, q := range out {
			dup = dup || q == p
		}
		if !dup {
			out = append(out, p)
		}
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// fitInvP least-squares fits T(p) = a + b/p over the samples and returns
// the coefficients with the worst relative residual. This is the shape of
// the paper's greedy bound (steps ≤ w/p + d): b plays total work, a plays
// the depth term that does not parallelize.
func fitInvP(pts []schedPoint) (a, b, worst float64, ok bool) {
	if len(pts) < 2 {
		return 0, 0, 0, false
	}
	var sx, sy, sxx, sxy float64
	for _, pt := range pts {
		x := 1 / float64(pt.p)
		y := float64(pt.t)
		sx += x
		sy += y
		sxx += x * x
		sxy += x * y
	}
	n := float64(len(pts))
	den := n*sxx - sx*sx
	if den == 0 {
		return 0, 0, 0, false
	}
	b = (n*sxy - sx*sy) / den
	a = (sy - b*sx) / n
	for _, pt := range pts {
		pred := a + b/float64(pt.p)
		if r := absF(pred-float64(pt.t)) / float64(pt.t); r > worst {
			worst = r
		}
	}
	return a, b, worst, true
}

func absF(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// schedWorkload is one algorithm run on either runtime: build converts
// the inputs for a runtime, run executes and waits for full completion.
type schedWorkload struct {
	name string
	seq  time.Duration
	run  func(r paralg.Runtime, grain int) func()
}

// sweepRuntimes writes one table row per (runtime, p) for wl and returns
// the sched samples for the scaling fit.
func sweepRuntimes(tb *Table, wl schedWorkload, ps []int, grain int) []schedPoint {
	var pts []schedPoint
	for _, p := range ps {
		runtime.GOMAXPROCS(p)
		tg := timeIt(wl.run(paralg.GoRuntime{}, grain))
		tb.Row("go", I(int64(p)), tg.String(), F(float64(wl.seq)/float64(tg)),
			"-", "-", "-", "-", "-")

		s := paralg.NewSchedRuntime(p)
		f := wl.run(s, grain)
		ts := timeIt(f)
		prev := s.RT.Counters()
		f() // one more instrumented pass for per-run counter deltas
		d := s.RT.Counters().Sub(prev)
		s.Close()
		tb.Row("sched", I(int64(p)), ts.String(), F(float64(wl.seq)/float64(ts)),
			I(d.Spawns), I(d.Steals), I(d.Suspensions), I(d.Reactivations), I(d.MaxDeque))
		pts = append(pts, schedPoint{p: p, t: ts})
	}
	return pts
}

func runSched(cfg Config, w io.Writer) error {
	n := 1 << min(cfg.MaxLgN, 18)
	t1, t2, ta, tbp := speedupInputs(cfg.Seed+2, n)
	seqMerge := timeIt(func() { seqtree.Merge(t1, t2) })
	seqUnion := timeIt(func() { seqtreap.Union(ta, tbp) })

	maxP := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(maxP)
	ps := pSweep(maxP)
	const grain = 14

	merge := schedWorkload{
		name: "merge",
		seq:  seqMerge,
		run: func(r paralg.Runtime, g int) func() {
			a1, a2 := paralg.RFromSeqTree(r, t1), paralg.RFromSeqTree(r, t2)
			c := paralg.RConfig{R: r, SpawnDepth: g}
			return func() { paralg.RWait(c.Merge(nil, a1, a2)) }
		},
	}
	union := schedWorkload{
		name: "union",
		seq:  seqUnion,
		run: func(r paralg.Runtime, g int) func() {
			b1, b2 := paralg.RFromSeqTreap(r, ta), paralg.RFromSeqTreap(r, tbp)
			c := paralg.RConfig{R: r, SpawnDepth: g}
			return func() { paralg.RWait(c.Union(nil, b1, b2)) }
		},
	}

	for _, wl := range []schedWorkload{merge, union} {
		tb := NewTable(
			fmt.Sprintf("Scheduler comparison: pipelined %s, n = m = 2^%d, grain depth %d (sequential %v)",
				wl.name, lgInt(n), grain, wl.seq),
			"runtime", "p", "time", "speedup", "spawns", "steals", "susp", "react", "maxdeq")
		pts := sweepRuntimes(tb, wl, ps, grain)
		if a, b, worst, ok := fitInvP(pts); ok {
			tb.Note("sched fit T(p) = d + w/p: d=%v, w=%v, worst residual %.0f%% — the greedy-schedule shape steps ≤ w/p + d",
				time.Duration(a), time.Duration(b), 100*worst)
		}
		tb.Note("go rows: Go's own scheduler at GOMAXPROCS=p (one goroutine per suspension); sched rows: p explicit workers, suspensions park continuations")
		if err := tb.Fprint(w); err != nil {
			return err
		}
	}

	// Fork-grain ablation on both runtimes at full width.
	runtime.GOMAXPROCS(maxP)
	tg := NewTable(
		fmt.Sprintf("Fork-grain ablation: pipelined union, n = m = 2^%d, p = %d (sequential %v)",
			lgInt(n), maxP, seqUnion),
		"grain depth", "go time", "sched time", "spawns", "susp", "maxdeq")
	for _, g := range []int{0, 4, 8, 14, 64} {
		tgo := timeIt(union.run(paralg.GoRuntime{}, g))
		s := paralg.NewSchedRuntime(maxP)
		f := union.run(s, g)
		ts := timeIt(f)
		prev := s.RT.Counters()
		f()
		d := s.RT.Counters().Sub(prev)
		s.Close()
		tg.Row(I(int64(g)), tgo.String(), ts.String(), I(d.Spawns), I(d.Suspensions), I(d.MaxDeque))
	}
	tg.Note("grain depth 0 runs the portable code sequentially on both runtimes; 64 forks at every recursion step")
	tg.Note("host has %d CPUs", maxP)
	return tg.Fprint(w)
}
