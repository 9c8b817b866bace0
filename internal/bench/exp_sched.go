package bench

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"pipefut/internal/paralg"
	"pipefut/internal/sched"
	"pipefut/internal/seqtreap"
	"pipefut/internal/seqtree"
)

func init() {
	Register(Experiment{
		ID:    "sched",
		Paper: "Section 4 (greedy futures scheduling, Lemma 4.1)",
		Claim: "an explicit work-stealing runtime with continuation suspension scales, its wall-clock following the steps ≤ w/p + d shape",
		Run:   runSched,
	})
}

// schedPoint is one (worker count, wall-clock) sample of the sched runtime.
type schedPoint struct {
	p int
	t time.Duration
}

// pSweep is the worker-count sweep: those of 1, 2 and 4 below maxP, then
// maxP itself — ascending, without duplicates, never above the host.
func pSweep(maxP int) []int {
	var out []int
	for _, p := range []int{1, 2, 4} {
		if p < maxP {
			out = append(out, p)
		}
	}
	return append(out, maxP)
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

// schedWorkload is one algorithm run: run converts the inputs onto a
// runtime and returns a closure that executes and waits for full
// completion.
type schedWorkload struct {
	name string
	seq  time.Duration
	run  func(r *paralg.SchedRuntime, grain int) func()
}

// timeOn times wl on a fresh p-worker scheduler and returns the mean run
// time with the counter deltas of one more instrumented run.
func timeOn(wl schedWorkload, p, grain int) (time.Duration, sched.Counters) {
	s := paralg.NewSchedRuntime(p)
	defer s.Close()
	f := wl.run(s, grain)
	t := timeIt(f)
	prev := s.RT.Counters()
	f()
	return t, s.RT.Counters().Sub(prev)
}

// sweepP writes one table row per worker count p for wl and returns the
// samples for the scaling fit.
func sweepP(tb *Table, wl schedWorkload, ps []int, grain int) []schedPoint {
	var pts []schedPoint
	for _, p := range ps {
		runtime.GOMAXPROCS(p)
		ts, d := timeOn(wl, p, grain)
		tb.Row(I(int64(p)), ts.String(), F(float64(wl.seq)/float64(ts)),
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
		run: func(r *paralg.SchedRuntime, g int) func() {
			a1, a2 := paralg.RFromSeqTree(r, t1), paralg.RFromSeqTree(r, t2)
			c := paralg.RConfig{R: r, SpawnDepth: g}
			return func() { paralg.RWait(c.Merge(nil, a1, a2)) }
		},
	}
	union := schedWorkload{
		name: "union",
		seq:  seqUnion,
		run: func(r *paralg.SchedRuntime, g int) func() {
			b1, b2 := paralg.RFromSeqTreap(r, ta), paralg.RFromSeqTreap(r, tbp)
			c := paralg.RConfig{R: r, SpawnDepth: g}
			return func() { paralg.RWait(c.Union(nil, b1, b2)) }
		},
	}

	for _, wl := range []schedWorkload{merge, union} {
		tb := NewTable(
			fmt.Sprintf("Scheduler scaling: pipelined %s, n = m = 2^%d, grain depth %d (sequential %v)",
				wl.name, lgInt(n), grain, wl.seq),
			"p", "time", "speedup", "spawns", "steals", "susp", "react", "maxdeq")
		pts := sweepP(tb, wl, ps, grain)
		if a, b, worst, ok := fitInvP(pts); ok {
			tb.Note("sched fit T(p) = d + w/p: d=%v, w=%v, worst residual %.0f%% — the greedy-schedule shape steps ≤ w/p + d",
				time.Duration(a), time.Duration(b), 100*worst)
		}
		tb.Note("p explicit workers at GOMAXPROCS = p; suspensions park continuations, not goroutines")
		if err := tb.Fprint(w); err != nil {
			return err
		}
	}

	// Fork-grain ablation at full width.
	runtime.GOMAXPROCS(maxP)
	tg := NewTable(
		fmt.Sprintf("Fork-grain ablation: pipelined union, n = m = 2^%d, p = %d (sequential %v)",
			lgInt(n), maxP, seqUnion),
		"grain depth", "time", "spawns", "susp", "maxdeq")
	for _, g := range []int{0, 4, 8, 14, 64} {
		ts, d := timeOn(union, maxP, g)
		tg.Row(I(int64(g)), ts.String(), I(d.Spawns), I(d.Suspensions), I(d.MaxDeque))
	}
	tg.Note("grain depth 0 runs the cell-based code sequentially; 64 forks at every recursion step")
	tg.Note("host has %d CPUs", maxP)
	return tg.Fprint(w)
}
