package verifycross

import (
	"fmt"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"pipefut/internal/analysis"
	"pipefut/internal/analysis/flow"
	"pipefut/internal/analysis/load"
	"pipefut/internal/core"
	"pipefut/internal/costalg"
	"pipefut/internal/seqtreap"
	"pipefut/internal/seqtree"
	"pipefut/internal/ssa"
	"pipefut/internal/t26"
	"pipefut/internal/trace"
	"pipefut/internal/workload"
)

// staticPkg is one source-loaded package with its SSA program and the
// flowlinear diagnostics reported against it.
type staticPkg struct {
	name  string
	fset  *token.FileSet
	prog  *ssa.Program
	diags []analysis.Diagnostic
}

// loadStatic typechecks internal/<name> from source and runs flowlinear.
func loadStatic(t *testing.T, name string) *staticPkg {
	t.Helper()
	dir, err := filepath.Abs(filepath.Join("..", name))
	if err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var files []string
	for _, e := range ents {
		n := e.Name()
		if strings.HasSuffix(n, ".go") && !strings.HasSuffix(n, "_test.go") {
			files = append(files, filepath.Join(dir, n))
		}
	}
	sort.Strings(files)

	fset := token.NewFileSet()
	pkg, err := load.ParseAndCheck(fset, "pipefut/internal/"+name, files, load.SourceImporter(fset, dir))
	if err != nil {
		t.Fatalf("load %s: %v", name, err)
	}
	diags, err := analysis.Run([]*analysis.Analyzer{flow.FlowLinear}, fset, pkg.Files, pkg.Types, pkg.Info)
	if err != nil {
		t.Fatalf("flowlinear over %s: %v", name, err)
	}
	return &staticPkg{
		name:  name,
		fset:  fset,
		prog:  ssa.Build(fset, pkg.Files, pkg.Types, pkg.Info),
		diags: diags,
	}
}

// entry finds the function named by spec: "Merge" for a package-level
// function, "RConfig.Merge" for a method.
func (sp *staticPkg) entry(t *testing.T, spec string) *ssa.Func {
	t.Helper()
	recv, name := "", spec
	if i := strings.IndexByte(spec, '.'); i >= 0 {
		recv, name = spec[:i], spec[i+1:]
	}
	for _, f := range sp.prog.Funcs {
		if f.Obj == nil || f.Obj.Name() != name {
			continue
		}
		r := f.Sig.Recv()
		if recv == "" {
			if r == nil {
				return f
			}
			continue
		}
		if r != nil && recvName(r.Type()) == recv {
			return f
		}
	}
	t.Fatalf("no function %s in package %s", spec, sp.name)
	return nil
}

func recvName(typ types.Type) string {
	if p, ok := typ.(*types.Pointer); ok {
		typ = p.Elem()
	}
	if n, ok := typ.(*types.Named); ok {
		return n.Obj().Name()
	}
	return ""
}

// reachable walks the intra-program call graph from entry: direct calls
// to declared functions, calls through variables bound to literals (the
// builder resolves those into Callee), and fork bodies.
func reachable(entry *ssa.Func) map[*ssa.Func]bool {
	seen := map[*ssa.Func]bool{entry: true}
	work := []*ssa.Func{entry}
	for len(work) > 0 {
		fn := work[len(work)-1]
		work = work[:len(work)-1]
		add := func(f *ssa.Func) {
			if f != nil && !seen[f] {
				seen[f] = true
				work = append(work, f)
			}
		}
		for _, b := range fn.Blocks {
			for _, in := range b.Instrs {
				add(in.Callee)
				if in.CalleeObj != nil {
					add(fn.Prog.DeclaredFunc(in.CalleeObj))
				}
				if in.Fork != nil {
					add(in.Fork.Body)
				}
			}
		}
	}
	return seen
}

// linearVerdict reports whether flowlinear considers everything reachable
// from entry linear; when it does not, the second result describes the
// first finding that disqualifies it.
func (sp *staticPkg) linearVerdict(entry *ssa.Func) (bool, string) {
	reach := reachable(entry)
	for _, d := range sp.diags {
		for fn := range reach {
			if fn.Syntax != nil && d.Pos >= fn.Syntax.Pos() && d.Pos <= fn.Syntax.End() {
				return false, fmt.Sprintf("%s: %s", sp.fset.Position(d.Pos), d.Message)
			}
		}
	}
	return true, ""
}

// record runs one algorithm construction on a fresh tracing engine and
// returns the recorded DAG.
func record(run func(ctx *core.Ctx, eng *core.Engine)) *trace.Trace {
	tr := trace.New()
	eng := core.NewEngine(tr)
	run(eng.NewCtx(), eng)
	eng.Finish()
	return tr
}

// algCase couples one dynamic construction (on the costalg engine, the
// traceable implementation) with the static entry points it witnesses —
// the costalg functions it actually runs plus their paralg twins.
type algCase struct {
	name    string
	entries []string // "costalg.Merge", ...
	run     func(ctx *core.Ctx, eng *core.Engine)
}

const algN = 96

var algCases = []algCase{
	{
		name:    "merge",
		entries: []string{"costalg.Merge", "costalg.Split", "costalg.SplitSeq", "paralg.RConfig.Merge"},
		run: func(ctx *core.Ctx, eng *core.Engine) {
			rng := workload.NewRNG(7)
			ka, kb := workload.DisjointKeySets(rng, algN, algN)
			sort.Ints(ka)
			sort.Ints(kb)
			r := costalg.Merge(ctx,
				costalg.FromSeqTree(eng, seqtree.FromSortedBalanced(ka)),
				costalg.FromSeqTree(eng, seqtree.FromSortedBalanced(kb)))
			costalg.CompletionTime(r)
		},
	},
	{
		name:    "union",
		entries: []string{"costalg.Union", "costalg.SplitM", "costalg.SplitMSeq", "paralg.RConfig.Union"},
		run: func(ctx *core.Ctx, eng *core.Engine) {
			rng := workload.NewRNG(7)
			ka, kb := workload.OverlappingKeySets(rng, algN, algN, 0.3)
			r := costalg.Union(ctx,
				costalg.FromSeqTreap(eng, seqtreap.FromKeys(ka)),
				costalg.FromSeqTreap(eng, seqtreap.FromKeys(kb)))
			costalg.CompletionTime(r)
		},
	},
	{
		name:    "intersect",
		entries: []string{"costalg.Intersect", "paralg.RConfig.Intersect"},
		run: func(ctx *core.Ctx, eng *core.Engine) {
			rng := workload.NewRNG(7)
			ka, kb := workload.OverlappingKeySets(rng, algN, algN, 0.5)
			r := costalg.Intersect(ctx,
				costalg.FromSeqTreap(eng, seqtreap.FromKeys(ka)),
				costalg.FromSeqTreap(eng, seqtreap.FromKeys(kb)))
			costalg.CompletionTime(r)
		},
	},
	{
		name:    "diff",
		entries: []string{"costalg.Diff", "paralg.RConfig.Diff"},
		run: func(ctx *core.Ctx, eng *core.Engine) {
			rng := workload.NewRNG(7)
			ka, kb := workload.OverlappingKeySets(rng, algN, algN, 0.5)
			r := costalg.Diff(ctx,
				costalg.FromSeqTreap(eng, seqtreap.FromKeys(ka)),
				costalg.FromSeqTreap(eng, seqtreap.FromKeys(kb)))
			costalg.CompletionTime(r)
		},
	},
	{
		name:    "join",
		entries: []string{"costalg.Join", "paralg.RConfig.Join"},
		run: func(ctx *core.Ctx, eng *core.Engine) {
			rng := workload.NewRNG(7)
			ka, kb := workload.DisjointKeySets(rng, algN, algN)
			r := costalg.Join(ctx,
				costalg.FromSeqTreap(eng, seqtreap.FromKeys(ka)),
				costalg.FromSeqTreap(eng, seqtreap.FromKeys(kb)))
			costalg.CompletionTime(r)
		},
	},
	{
		name:    "buildtreap",
		entries: []string{"costalg.BuildTreap", "costalg.InsertKeys", "costalg.DeleteKeys", "paralg.RConfig.BuildTreap", "paralg.RConfig.InsertKeys", "paralg.RConfig.DeleteKeys"},
		run: func(ctx *core.Ctx, eng *core.Engine) {
			rng := workload.NewRNG(7)
			keys, extra := workload.DisjointKeySets(rng, algN, algN/2)
			tree := costalg.BuildTreap(ctx, keys)
			tree = costalg.InsertKeys(ctx, tree, extra)
			tree = costalg.DeleteKeys(ctx, tree, keys[:algN/2])
			costalg.CompletionTime(tree)
		},
	},
	{
		name:    "mergesort",
		entries: []string{"costalg.Mergesort", "paralg.RConfig.Mergesort"},
		run: func(ctx *core.Ctx, eng *core.Engine) {
			rng := workload.NewRNG(7)
			r := costalg.Mergesort(ctx, rng.Perm(algN))
			costalg.CompletionTime(r)
		},
	},
	{
		name:    "mergesortbalanced",
		entries: []string{"costalg.MergesortBalanced"},
		run: func(ctx *core.Ctx, eng *core.Engine) {
			rng := workload.NewRNG(7)
			r := costalg.MergesortBalanced(ctx, rng.Perm(algN))
			costalg.CompletionTime(r)
		},
	},
	{
		name:    "quicksort",
		entries: []string{"costalg.Quicksort", "costalg.PartitionF"},
		run: func(ctx *core.Ctx, eng *core.Engine) {
			rng := workload.NewRNG(7)
			r := costalg.Quicksort(ctx, costalg.FromSlice(eng, rng.Perm(algN)),
				core.Done[*costalg.LNode](eng, nil))
			costalg.ListCompletionTime(r)
		},
	},
	{
		name:    "rebalance",
		entries: []string{"costalg.Annotate", "costalg.Rebalance", "costalg.SplitRank"},
		run: func(ctx *core.Ctx, eng *core.Engine) {
			rng := workload.NewRNG(7)
			ka, _ := workload.DisjointKeySets(rng, algN, 1)
			sort.Ints(ka)
			tree := costalg.FromSeqTree(eng, seqtree.FromSortedBalanced(ka))
			r := costalg.Rebalance(ctx, costalg.Annotate(ctx, tree), algN)
			costalg.CompletionTime(r)
		},
	},
	{
		name:    "mergebalanced",
		entries: []string{"costalg.MergeBalanced"},
		run: func(ctx *core.Ctx, eng *core.Engine) {
			rng := workload.NewRNG(7)
			ka, kb := workload.DisjointKeySets(rng, algN, algN)
			sort.Ints(ka)
			sort.Ints(kb)
			r := costalg.MergeBalanced(ctx,
				costalg.FromSeqTree(eng, seqtree.FromSortedBalanced(ka)),
				costalg.FromSeqTree(eng, seqtree.FromSortedBalanced(kb)),
				2*algN)
			costalg.CompletionTime(r)
		},
	},
	{
		name:    "t26",
		entries: []string{"costalg.T26Insert", "costalg.T26BulkInsert", "paralg.RConfig.T26Insert", "paralg.RConfig.T26BulkInsert"},
		run: func(ctx *core.Ctx, eng *core.Engine) {
			rng := workload.NewRNG(7)
			all := workload.DistinctKeys(rng, 2*algN, 8*algN)
			base := t26.FromKeys(all[:algN])
			ins := append([]int(nil), all[algN:]...)
			sort.Ints(ins)
			r := costalg.T26BulkInsert(ctx, costalg.FromSeqT26(eng, base),
				workload.WellSeparatedLevels(ins))
			costalg.T26CompletionTime(r)
		},
	},
	{
		// The NoPipe variants are the paper's non-pipelined baselines:
		// same algorithms, futures replaced by fully-built results. One
		// trace exercises them all.
		name: "nopipe",
		entries: []string{
			"costalg.MergeNoPipe", "costalg.UnionNoPipe", "costalg.IntersectNoPipe",
			"costalg.DiffNoPipe", "costalg.MergesortNoPipe", "costalg.QuicksortNoPipe",
			"costalg.T26BulkInsertNoPipe",
		},
		run: func(ctx *core.Ctx, eng *core.Engine) {
			rng := workload.NewRNG(7)
			ka, kb := workload.OverlappingKeySets(rng, algN, algN, 0.3)
			sa := append([]int(nil), ka...)
			sb := append([]int(nil), kb...)
			sort.Ints(sa)
			sort.Ints(sb)
			costalg.CompletionTime(costalg.MergeNoPipe(ctx,
				costalg.FromSeqTree(eng, seqtree.FromSortedBalanced(sa)),
				costalg.FromSeqTree(eng, seqtree.FromSortedBalanced(sb))))
			ta := costalg.FromSeqTreap(eng, seqtreap.FromKeys(ka))
			tb := costalg.FromSeqTreap(eng, seqtreap.FromKeys(kb))
			costalg.CompletionTime(costalg.UnionNoPipe(ctx, ta, tb))
			costalg.CompletionTime(costalg.IntersectNoPipe(ctx,
				costalg.FromSeqTreap(eng, seqtreap.FromKeys(ka)),
				costalg.FromSeqTreap(eng, seqtreap.FromKeys(kb))))
			costalg.CompletionTime(costalg.DiffNoPipe(ctx,
				costalg.FromSeqTreap(eng, seqtreap.FromKeys(ka)),
				costalg.FromSeqTreap(eng, seqtreap.FromKeys(kb))))
			costalg.CompletionTime(costalg.MergesortNoPipe(ctx, rng.Perm(algN)))
			costalg.ListCompletionTime(costalg.QuicksortNoPipe(ctx,
				costalg.FromSlice(eng, rng.Perm(algN)),
				core.Done[*costalg.LNode](eng, nil)))
			all := workload.DistinctKeys(rng, 2*algN, 8*algN)
			ins := append([]int(nil), all[algN:]...)
			sort.Ints(ins)
			costalg.T26CompletionTime(costalg.T26BulkInsertNoPipe(ctx,
				costalg.FromSeqT26(eng, t26.FromKeys(all[:algN])),
				workload.WellSeparatedLevels(ins)))
		},
	},
	{
		// Chained treap splits — the dynamic shape of paralg.SplitRanges
		// (each split consumes the ≥ side of the previous one), recorded
		// through the traceable costalg.SplitM.
		name:    "split",
		entries: []string{"paralg.RConfig.Split", "paralg.RConfig.SplitRanges"},
		run: func(ctx *core.Ctx, eng *core.Engine) {
			rng := workload.NewRNG(7)
			keys := workload.DistinctKeys(rng, algN, 4*algN)
			rest := costalg.FromSeqTreap(eng, seqtreap.FromKeys(keys))
			for _, pivot := range []int{algN, 2 * algN, 3 * algN} {
				lt, ge, _ := costalg.SplitM(ctx, pivot, rest)
				costalg.CompletionTime(lt)
				rest = ge
			}
			costalg.CompletionTime(rest)
		},
	},
	{
		name:    "prodcons",
		entries: []string{"costalg.Produce", "costalg.Consume"},
		run: func(ctx *core.Ctx, eng *core.Engine) {
			costalg.Consume(ctx, costalg.Produce(ctx, algN))
		},
	},
	{
		// The durability layer's snapshot walk (paralg.RSnapshotKeys),
		// recorded through its traceable twin. The input is fully
		// materialized (Done cells) and only the walk runs, so every cell
		// is touched exactly once — the trace is linear by construction.
		name:    "snapshot",
		entries: []string{"costalg.CollectKeys", "paralg.RSnapshotKeys"},
		run: func(ctx *core.Ctx, eng *core.Engine) {
			rng := workload.NewRNG(7)
			keys := workload.DistinctKeys(rng, algN, 4*algN)
			got := costalg.CollectKeys(ctx, costalg.FromSeqTreap(eng, seqtreap.FromKeys(keys)))
			if len(got) != len(keys) {
				panic("snapshot walk dropped keys")
			}
		},
	},
}

// TestStaticDynamicLinearityAgreement is the cross-check harness: for every
// algorithm, the static flowlinear verdict over its entry points must be
// consistent with the recorded DAG. Static "linear" with a multi-touched
// cell in the trace is an analyzer soundness bug and fails the test; the
// reverse (static finding, linear trace) is permitted — flowlinear is a
// may-analysis and one run cannot witness every path.
func TestStaticDynamicLinearityAgreement(t *testing.T) {
	pkgs := map[string]*staticPkg{
		"costalg": loadStatic(t, "costalg"),
		"paralg":  loadStatic(t, "paralg"),
	}
	covered := make(map[string]bool)
	for _, c := range algCases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			tr := record(c.run)
			if err := trace.Verify(tr); err != nil {
				t.Fatalf("trace.Verify: %v", err)
			}
			dyn := tr.Linearity()
			for _, spec := range c.entries {
				covered[spec] = true
				pkgName, fnSpec, ok := strings.Cut(spec, ".")
				if !ok {
					t.Fatalf("bad entry spec %q", spec)
				}
				sp := pkgs[pkgName]
				if sp == nil {
					t.Fatalf("entry spec %q names unknown package", spec)
				}
				staticLinear, finding := sp.linearVerdict(sp.entry(t, fnSpec))
				switch {
				case staticLinear && !dyn.Linear():
					t.Errorf("%s: flowlinear proves it linear, but the recorded DAG touches %d cell(s) more than once (max %d touches; cells %v)",
						spec, len(dyn.MultiTouched), dyn.MaxTouches, dyn.MultiTouched)
				case staticLinear:
					t.Logf("%s: linear both statically and dynamically (%d cells touched)", spec, dyn.TouchedCells)
				default:
					t.Logf("%s: static finding (%s); dynamic MaxTouches=%d", spec, finding, dyn.MaxTouches)
				}
			}
		})
	}

	// Every exported algorithm entry point in both packages must appear in
	// some case above, so new algorithms cannot silently skip the harness.
	// In costalg an algorithm is an exported function taking a *core.Ctx;
	// in paralg it is an exported Config or RConfig method (the latter the
	// runtime-portable ports that run on package sched) plus
	// Produce/Consume, which the prodcons case lists explicitly.
	t.Run("coverage", func(t *testing.T) {
		for pkgName, sp := range pkgs {
			for _, fn := range sp.prog.Funcs {
				if fn.Obj == nil || !fn.Obj.Exported() {
					continue
				}
				isAlg := false
				switch pkgName {
				case "costalg":
					isAlg = usesCtx(fn.Sig)
				case "paralg":
					r := fn.Sig.Recv()
					rn := ""
					if r != nil {
						rn = recvName(r.Type())
					}
					isAlg = rn == "Config" || rn == "RConfig" ||
						fn.Obj.Name() == "Produce" || fn.Obj.Name() == "Consume"
				}
				if !isAlg {
					continue // converters, waiters, completion-time readers
				}
				spec := pkgName + "." + specName(fn)
				if !covered[spec] {
					t.Errorf("algorithm %s has no verifycross case", spec)
				}
			}
		}
	})
}

// specName renders fn the way algCase entries name it: "Merge" for a
// package-level function, "RConfig.Merge" for a method.
func specName(fn *ssa.Func) string {
	if r := fn.Sig.Recv(); r != nil {
		return recvName(r.Type()) + "." + fn.Obj.Name()
	}
	return fn.Obj.Name()
}

// usesCtx reports whether sig takes a *core.Ctx — the signature shape of
// every traceable algorithm entry point (converters take an Engine, and
// paralg methods carry the context in the receiver's goroutines).
func usesCtx(sig *types.Signature) bool {
	params := sig.Params()
	for i := 0; i < params.Len(); i++ {
		typ := params.At(i).Type()
		p, ok := typ.(*types.Pointer)
		if !ok {
			continue
		}
		n, ok := p.Elem().(*types.Named)
		if !ok {
			continue
		}
		if n.Obj().Name() == "Ctx" && strings.HasSuffix(n.Obj().Pkg().Path(), "internal/core") {
			return true
		}
	}
	return false
}
