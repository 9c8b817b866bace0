package bench

import (
	"fmt"
	"io"
	"runtime"
	"sort"
	"time"

	"pipefut/internal/paralg"
	"pipefut/internal/seqtreap"
	"pipefut/internal/seqtree"
	"pipefut/internal/workload"
)

func init() {
	Register(Experiment{
		ID:    "speedup",
		Paper: "Section 1 (implementation analysis)",
		Claim: "future-based code runs asynchronously on a real multiprocessor; wall-clock speedup grows with processors",
		Run:   runSpeedup,
	})
	Register(Experiment{
		ID:    "grain",
		Paper: "ablation",
		Claim: "grain-size cutoff: too little spawning loses parallelism, too much drowns in task overhead",
		Run:   runGrain,
	})
}

// timeIt runs f repeatedly until at least 50ms elapse and returns the mean
// duration.
func timeIt(f func()) time.Duration {
	// Warm up once.
	f()
	var total time.Duration
	n := 0
	for total < 50*time.Millisecond {
		start := time.Now()
		f()
		total += time.Since(start)
		n++
	}
	return total / time.Duration(n)
}

// speedupInputs builds the shared inputs for the wall-clock experiments.
func speedupInputs(seed uint64, n int) (t1, t2 *seqtree.Node, ta, tb *seqtreap.Node) {
	rng := workload.NewRNG(seed)
	ka, kb := workload.DisjointKeySets(rng, n, n)
	sort.Ints(ka)
	sort.Ints(kb)
	t1 = seqtree.FromSortedBalanced(ka)
	t2 = seqtree.FromSortedBalanced(kb)
	ua, ub := workload.OverlappingKeySets(rng, n, n, 0.25)
	ta = seqtreap.FromKeys(ua)
	tb = seqtreap.FromKeys(ub)
	return
}

func runSpeedup(cfg Config, w io.Writer) error {
	n := 1 << min(cfg.MaxLgN, 19)
	t1, t2, ta, tbp := speedupInputs(cfg.Seed, n)
	seqMerge := timeIt(func() { seqtree.Merge(t1, t2) })
	seqUnion := timeIt(func() { seqtreap.Union(ta, tbp) })

	maxP := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(maxP)

	tb := NewTable(fmt.Sprintf("Wall-clock speedup on the scheduler, n = m = 2^%d (sequential: merge %v, union %v)", lgInt(n), seqMerge, seqUnion),
		"p", "merge time", "merge speedup", "union time", "union speedup")
	for _, p := range pSweep(maxP) {
		runtime.GOMAXPROCS(p)
		tm, tu := timeMergeUnion(p, paralg.DefaultConfig.SpawnDepth, t1, t2, ta, tbp)
		tb.Row(I(int64(p)),
			tm.String(), F(float64(seqMerge)/float64(tm)),
			tu.String(), F(float64(seqUnion)/float64(tu)))
	}
	runtime.GOMAXPROCS(maxP)
	tb.Note("p scheduler workers at GOMAXPROCS = p; speedup is measured against the sequential (future-free) implementation, not the p=1 parallel run")
	tb.Note("host has %d CPUs; absolute times are machine-specific, the shape (rising speedup) is the result", maxP)
	return tb.Fprint(w)
}

func runGrain(cfg Config, w io.Writer) error {
	n := 1 << min(cfg.MaxLgN, 19)
	t1, t2, ta, tbp := speedupInputs(cfg.Seed+1, n)
	seqMerge := timeIt(func() { seqtree.Merge(t1, t2) })
	seqUnion := timeIt(func() { seqtreap.Union(ta, tbp) })

	p := runtime.GOMAXPROCS(0)
	tb := NewTable(fmt.Sprintf("Grain-size ablation on the scheduler, n = m = 2^%d, p = %d", lgInt(n), p),
		"spawn depth", "merge time", "merge speedup", "union time", "union speedup")
	for _, d := range []int{0, 2, 4, 8, 12, 16, 20} {
		tm, tu := timeMergeUnion(p, d, t1, t2, ta, tbp)
		tb.Row(I(int64(d)),
			tm.String(), F(float64(seqMerge)/float64(tm)),
			tu.String(), F(float64(seqUnion)/float64(tu)))
	}
	tb.Note("spawn depth 0 = sequential execution of the cell-based code (its overhead vs the plain sequential code is the cost of futures)")
	return tb.Fprint(w)
}

// timeMergeUnion times the pipelined merge of t1, t2 and union of ta, tb,
// each to full materialization, on a fresh p-worker scheduler at the
// given spawn depth.
func timeMergeUnion(p, depth int, t1, t2 *seqtree.Node, ta, tb *seqtreap.Node) (merge, union time.Duration) {
	s := paralg.NewSchedRuntime(p)
	defer s.Close()
	c := paralg.RConfig{R: s, SpawnDepth: depth}
	a1, a2 := paralg.RFromSeqTree(s, t1), paralg.RFromSeqTree(s, t2)
	b1, b2 := paralg.RFromSeqTreap(s, ta), paralg.RFromSeqTreap(s, tb)
	merge = timeIt(func() { paralg.RWait(c.Merge(nil, a1, a2)) })
	union = timeIt(func() { paralg.RWait(c.Union(nil, b1, b2)) })
	return merge, union
}
