package verifycross

import (
	"sort"
	"testing"

	"pipefut/internal/core"
	"pipefut/internal/costalg"
	"pipefut/internal/paralg"
	"pipefut/internal/seqtreap"
	"pipefut/internal/seqtree"
	"pipefut/internal/trace"
	"pipefut/internal/verdict"
	"pipefut/internal/workload"
)

// This file is the dynamic leg of the manifest's cell-budget section:
// the static pass (flow/cellcost) claims a symbolic per-call bound on
// cells allocated, paralg's grain coarsening spends those claims, and
// here each claim is replayed against a recorded DAG. The trace's cell
// census before and after one operation measures exactly the cells that
// operation brought into existence — prewritten input conversion is
// done (and counted) before the snapshot — so a budget that
// under-claims fails here before GrainCutoff can trust it.

// budgetCase builds one operation's inputs on the tracing engine and
// returns the op to measure plus the exact spine and n arguments the
// symbolic budget is instantiated with: spine is the sum of input
// heights (the real recursion spine, not an estimate) and n the total
// input size.
type budgetCase struct {
	name  string
	entry string
	run   func(ctx *core.Ctx, eng *core.Engine) (op func(*core.Ctx), spine, n int)
}

func treeHeight(t *seqtree.Node) int {
	if t == nil {
		return 0
	}
	l, r := treeHeight(t.Left), treeHeight(t.Right)
	if r > l {
		l = r
	}
	return l + 1
}

var budgetCases = []budgetCase{
	{
		name:  "union",
		entry: "costalg.Union",
		run: func(ctx *core.Ctx, eng *core.Engine) (func(*core.Ctx), int, int) {
			rng := workload.NewRNG(11)
			ka, kb := workload.OverlappingKeySets(rng, 128, 128, 0.3)
			sa, sb := seqtreap.FromKeys(ka), seqtreap.FromKeys(kb)
			a, b := costalg.FromSeqTreap(eng, sa), costalg.FromSeqTreap(eng, sb)
			op := func(ctx *core.Ctx) { costalg.CompletionTime(costalg.Union(ctx, a, b)) }
			return op, seqtreap.Height(sa) + seqtreap.Height(sb), len(ka) + len(kb)
		},
	},
	{
		name:  "diff",
		entry: "costalg.Diff",
		run: func(ctx *core.Ctx, eng *core.Engine) (func(*core.Ctx), int, int) {
			rng := workload.NewRNG(13)
			ka, kb := workload.OverlappingKeySets(rng, 128, 128, 0.5)
			sa, sb := seqtreap.FromKeys(ka), seqtreap.FromKeys(kb)
			a, b := costalg.FromSeqTreap(eng, sa), costalg.FromSeqTreap(eng, sb)
			op := func(ctx *core.Ctx) { costalg.CompletionTime(costalg.Diff(ctx, a, b)) }
			return op, seqtreap.Height(sa) + seqtreap.Height(sb), len(ka) + len(kb)
		},
	},
	{
		name:  "intersect",
		entry: "costalg.Intersect",
		run: func(ctx *core.Ctx, eng *core.Engine) (func(*core.Ctx), int, int) {
			rng := workload.NewRNG(17)
			ka, kb := workload.OverlappingKeySets(rng, 128, 128, 0.5)
			sa, sb := seqtreap.FromKeys(ka), seqtreap.FromKeys(kb)
			a, b := costalg.FromSeqTreap(eng, sa), costalg.FromSeqTreap(eng, sb)
			op := func(ctx *core.Ctx) { costalg.CompletionTime(costalg.Intersect(ctx, a, b)) }
			return op, seqtreap.Height(sa) + seqtreap.Height(sb), len(ka) + len(kb)
		},
	},
	{
		name:  "join",
		entry: "costalg.Join",
		run: func(ctx *core.Ctx, eng *core.Engine) (func(*core.Ctx), int, int) {
			rng := workload.NewRNG(19)
			ka, kb := workload.DisjointKeySets(rng, 128, 128)
			sa, sb := seqtreap.FromKeys(ka), seqtreap.FromKeys(kb)
			a, b := costalg.FromSeqTreap(eng, sa), costalg.FromSeqTreap(eng, sb)
			op := func(ctx *core.Ctx) { costalg.CompletionTime(costalg.Join(ctx, a, b)) }
			return op, seqtreap.Height(sa) + seqtreap.Height(sb), len(ka) + len(kb)
		},
	},
	{
		name:  "splitm",
		entry: "costalg.SplitM",
		run: func(ctx *core.Ctx, eng *core.Engine) (func(*core.Ctx), int, int) {
			rng := workload.NewRNG(23)
			keys := workload.DistinctKeys(rng, 160, 1<<12)
			st := seqtreap.FromKeys(keys)
			tree := costalg.FromSeqTreap(eng, st)
			mid := append([]int(nil), keys...)
			sort.Ints(mid)
			s := mid[len(mid)/2] + 1 // between keys: the splitter descends the full path
			op := func(ctx *core.Ctx) {
				lt, gt, dup := costalg.SplitM(ctx, s, tree)
				costalg.CompletionTime(lt)
				costalg.CompletionTime(gt)
				costalg.CompletionTime(dup)
			}
			return op, seqtreap.Height(st), len(keys)
		},
	},
	{
		name:  "merge",
		entry: "costalg.Merge",
		run: func(ctx *core.Ctx, eng *core.Engine) (func(*core.Ctx), int, int) {
			rng := workload.NewRNG(29)
			ka, kb := workload.DisjointKeySets(rng, 128, 128)
			sort.Ints(ka)
			sort.Ints(kb)
			sa, sb := seqtree.FromSortedBalanced(ka), seqtree.FromSortedBalanced(kb)
			a, b := costalg.FromSeqTree(eng, sa), costalg.FromSeqTree(eng, sb)
			op := func(ctx *core.Ctx) { costalg.CompletionTime(costalg.Merge(ctx, a, b)) }
			return op, treeHeight(sa) + treeHeight(sb), len(ka) + len(kb)
		},
	},
	{
		name:  "buildtreap",
		entry: "costalg.BuildTreap",
		run: func(ctx *core.Ctx, eng *core.Engine) (func(*core.Ctx), int, int) {
			rng := workload.NewRNG(31)
			keys := workload.DistinctKeys(rng, 192, 1<<12)
			op := func(ctx *core.Ctx) { costalg.CompletionTime(costalg.BuildTreap(ctx, keys)) }
			return op, seqtreap.Height(seqtreap.FromKeys(keys)), len(keys)
		},
	},
}

// measureCase replays one budget case on a fresh tracing engine and
// returns the cells the op itself allocated plus the spine/n it should
// be judged at.
func measureCase(c budgetCase) (delta, spine, n int) {
	tr := trace.New()
	eng := core.NewEngine(tr)
	ctx := eng.NewCtx()
	op, spine, n := c.run(ctx, eng)
	before := tr.CellCount()
	op(ctx)
	eng.Finish()
	return tr.CellCount() - before, spine, n
}

// TestBudgetClaimsOnRecordedDAGs replays each budget-carrying entry
// point and checks the measured allocation count against the golden
// manifest's claim instantiated at the run's exact spine and size. A
// manifest that loses its cell-budget section fails loudly here rather
// than passing vacuously.
func TestBudgetClaimsOnRecordedDAGs(t *testing.T) {
	for _, c := range budgetCases {
		t.Run(c.name, func(t *testing.T) {
			b := verdict.BudgetOf(c.entry)
			if !b.Claims() {
				t.Fatalf("golden manifest claims no cell budget for %s; the dynamic lane has nothing to check", c.entry)
			}
			delta, spine, n := measureCase(c)
			if delta <= 0 {
				t.Fatalf("census delta is %d; the trace is not seeing the run", delta)
			}
			if err := verdict.CheckBudget(b, delta, spine, n); err != nil {
				t.Errorf("%s: %v", c.entry, err)
			}
		})
	}
}

// TestBudgetMisTaggedClaimFailsClosed proves the checker has teeth: the
// union measurement must violate deliberately too-tight claims — a
// constant budget and a spine budget for what is really a linear
// allocator — while a no-claim budget passes vacuously (fail-closed
// lives in the consumers, which treat no-claim as no-proof).
func TestBudgetMisTaggedClaimFailsClosed(t *testing.T) {
	var union *budgetCase
	for i := range budgetCases {
		if budgetCases[i].name == "union" {
			union = &budgetCases[i]
		}
	}
	delta, spine, n := measureCase(*union)

	for _, bad := range []verdict.Budget{
		{Kind: verdict.BudgetConst, K: 1},
		{Kind: verdict.BudgetSpine, K: 1},
	} {
		if err := verdict.CheckBudget(bad, delta, spine, n); err == nil {
			t.Errorf("too-tight claim %s(%d) passed against %d measured cells", bad.Kind, bad.K, delta)
		}
	}
	if err := verdict.CheckBudget(verdict.Budget{Kind: verdict.BudgetUnanalyzed}, delta, spine, n); err != nil {
		t.Errorf("no-claim budget should pass vacuously, got: %v", err)
	}
}

// TestSeqSafeZeroCellsBelowCutoff is the runtime half of the seqsafe
// verdict: entries the manifest proves safe really do run their
// below-cutoff inputs without a single scheduler cell — builds allocate
// zero, combining two chunks allocates exactly the frontier cell the
// entry hands back.
func TestSeqSafeZeroCellsBelowCutoff(t *testing.T) {
	for _, entry := range []string{"paralg.RConfig.BuildTreap", "paralg.RConfig.Union", "paralg.RConfig.Merge"} {
		if !verdict.SeqSafeOf(entry) {
			t.Fatalf("golden manifest no longer proves %s seqsafe; grain coarsening would silently switch off", entry)
		}
	}

	s := paralg.NewSchedRuntime(2)
	defer s.Close()
	cfg := paralg.RConfig{R: s, SpawnDepth: 6, GrainCutoff: 64}
	rng := workload.NewRNG(41)
	ka, kb := workload.DisjointKeySets(rng, 48, 48)

	before := s.RT.Counters()
	ta := cfg.BuildTreap(nil, ka)
	tb := cfg.BuildTreap(nil, kb)
	d := s.RT.Counters().Sub(before)
	if got := d.CellsShared + d.CellsForwarded; got != 0 {
		t.Fatalf("below-cutoff builds allocated %d sched cells, want 0", got)
	}

	before = s.RT.Counters()
	out := cfg.Union(nil, ta, tb)
	paralg.RWait(out)
	d = s.RT.Counters().Sub(before)
	if got := d.CellsShared + d.CellsForwarded; got != 1 {
		t.Errorf("below-cutoff union allocated %d sched cells, want exactly the frontier cell", got)
	}
	want := seqtreap.Union(seqtreap.FromKeys(ka), seqtreap.FromKeys(kb))
	if !seqtreap.Equal(paralg.RToSeqTreap(out), want) {
		t.Error("below-cutoff union disagrees with the sequential oracle")
	}
}
