package verdict

// The manifest generator: source-loads internal/costalg and
// internal/paralg, classifies every entry point in Groups, and meets the
// classes per witness group. `pipelint -verdicts` drives it from the
// command line; TestGoldenManifestUpToDate drives it in CI to fail on
// drift against the checked-in verdicts.json.
//
// Classification per entry, most to least specific claim:
//
//  1. No recognized cell operation (new/fork/write/touch) reachable from
//     the entry → Unanalyzed. This is what keeps vacuity honest: the
//     RConfig algorithms reach their cells through the NodeCell/T26Cell
//     interfaces and the scheduler, which the SSA-lite builder does not
//     model, and an absence of findings over code the analyses cannot
//     see is no verdict at all.
//  2. No flowlinear diagnostic lands in any reachable function →
//     Linear.
//  3. Otherwise → General, carrying the first disqualifying finding.

import (
	"fmt"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"pipefut/internal/analysis"
	"pipefut/internal/analysis/flow"
	"pipefut/internal/analysis/load"
	"pipefut/internal/ssa"
)

// staticPkg is one source-loaded package with its SSA-lite program,
// flowlinear diagnostics, and cell-allocation costs.
type staticPkg struct {
	name  string
	fset  *token.FileSet
	prog  *ssa.Program
	diags []analysis.Diagnostic
	costs *flow.CellCosts
}

// loadPkg typechecks root/internal/<name> from source and runs the
// analyses the classifier consumes.
func loadPkg(root, name string) (*staticPkg, error) {
	dir, err := filepath.Abs(filepath.Join(root, "internal", name))
	if err != nil {
		return nil, err
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
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
		return nil, fmt.Errorf("load %s: %v", name, err)
	}
	diags, err := analysis.Run([]*analysis.Analyzer{flow.FlowLinear}, fset, pkg.Files, pkg.Types, pkg.Info)
	if err != nil {
		return nil, fmt.Errorf("flowlinear over %s: %v", name, err)
	}
	prog := ssa.Build(fset, pkg.Files, pkg.Types, pkg.Info)
	return &staticPkg{
		name:  name,
		fset:  fset,
		prog:  prog,
		diags: diags,
		costs: flow.ComputeCellCosts(prog),
	}, nil
}

// Generate classifies every entry point in Groups over the repository
// rooted at root and returns the manifest. The result is deterministic:
// classification consults only source text, and the manifest serializes
// with sorted keys.
func Generate(root string) (*Manifest, error) {
	pkgs := map[string]*staticPkg{}
	// seqtreap is loaded for the seqsafe twins only: it hosts the plain
	// sequential tree code the below-cutoff paths run.
	for _, name := range []string{"costalg", "paralg", "seqtreap"} {
		sp, err := loadPkg(root, name)
		if err != nil {
			return nil, err
		}
		pkgs[name] = sp
	}

	m := &Manifest{
		Entries: make(map[string]EntryVerdict),
		Groups:  make(map[string]GroupVerdict),
		CellBudget: &CellBudget{
			Entries: make(map[string]Budget),
			Groups:  make(map[string]Budget),
			SeqSafe: make(map[string]SeqSafeVerdict),
		},
	}
	groupNames := make([]string, 0, len(Groups))
	for g := range Groups {
		groupNames = append(groupNames, g)
	}
	sort.Strings(groupNames)
	for _, g := range groupNames {
		gc := Unanalyzed
		gb := Budget{Kind: BudgetUnanalyzed}
		for _, spec := range Groups[g] {
			pkgName, fnSpec, ok := strings.Cut(spec, ".")
			if !ok {
				return nil, fmt.Errorf("bad entry spec %q in group %s", spec, g)
			}
			sp := pkgs[pkgName]
			if sp == nil {
				return nil, fmt.Errorf("entry spec %q names unknown package", spec)
			}
			ev, err := sp.classify(fnSpec)
			if err != nil {
				return nil, fmt.Errorf("group %s: %v", g, err)
			}
			if prev, dup := m.Entries[spec]; dup && prev != ev {
				return nil, fmt.Errorf("entry %q classified twice with different verdicts", spec)
			}
			m.Entries[spec] = ev
			gc = Meet(gc, ev.Class)
			bv, err := sp.budget(fnSpec, ev.Class)
			if err != nil {
				return nil, fmt.Errorf("group %s: %v", g, err)
			}
			m.CellBudget.Entries[spec] = bv
			gb = JoinBudget(gb, bv)
		}
		if gc == Unanalyzed {
			// A group with no analyzed member claims nothing; record the
			// sound fallback rather than a vacuous strong class.
			gc = General
		}
		m.Groups[g] = GroupVerdict{Class: gc}
		m.CellBudget.Groups[g] = gb
	}
	if err := genSeqSafe(pkgs, m.CellBudget); err != nil {
		return nil, err
	}
	return m, nil
}

// budget assigns one entry point its allocation bound. Entries whose
// cell traffic the analyses cannot see (class Unanalyzed — allocations
// flow through the opaque runtime interface exactly like touches do)
// claim nothing; a const(0) there would be vacuously false.
func (sp *staticPkg) budget(spec string, class Class) (Budget, error) {
	if class == Unanalyzed {
		return Budget{
			Kind:   BudgetUnanalyzed,
			Detail: "allocations flow through an opaque runtime interface",
		}, nil
	}
	fn, err := sp.entry(spec)
	if err != nil {
		return Budget{}, err
	}
	b := sp.costs.BoundOf(fn)
	kind := BudgetConst
	switch b.Kind {
	case flow.BSpine:
		kind = BudgetSpine
	case flow.BLinear:
		kind = BudgetLinear
	}
	return Budget{Kind: kind, K: b.K, Detail: sp.costs.Attribution(fn)}, nil
}

// seqTwins maps each grain-cutoff entry point to the sequential twins
// its below-cutoff path runs: the plain seqtreap construction plus the
// paralg chunk helpers that wrap its output. The seqsafe verdict holds
// only if EVERY twin is proven cell-free; entries absent from this
// table never get a verdict and therefore never honor GrainCutoff.
// seqtreap.SplitM is the one-sided chunk path's twin: a chunk against a
// big tree is path-copied apart at each big-side key.
var seqTwins = map[string][]string{
	"paralg.RConfig.Merge":       {"paralg.chunkMerge", "paralg.chunkSplitGE", "paralg.chunkTop"},
	"paralg.RConfig.Union":       {"seqtreap.Union", "seqtreap.SplitM", "paralg.chunkTop"},
	"paralg.RConfig.Diff":        {"seqtreap.Diff", "seqtreap.SplitM", "paralg.chunkTop"},
	"paralg.RConfig.Intersect":   {"seqtreap.Intersect", "seqtreap.SplitM", "paralg.chunkTop"},
	"paralg.RConfig.Join":        {"seqtreap.Join", "paralg.chunkTop"},
	"paralg.RConfig.BuildTreap":  {"seqtreap.FromKeys", "paralg.chunkTop"},
	"paralg.RConfig.InsertKeys":  {"seqtreap.Union", "seqtreap.SplitM", "seqtreap.FromKeys", "paralg.chunkTop"},
	"paralg.RConfig.DeleteKeys":  {"seqtreap.Diff", "seqtreap.SplitM", "seqtreap.FromKeys", "paralg.chunkTop"},
	"paralg.RConfig.Split":       {"paralg.chunkSplitGE", "paralg.chunkTop"},
	"paralg.RConfig.SplitRanges": {"paralg.chunkSplitGE", "paralg.chunkTop"},
}

// genSeqSafe proves (or refuses to prove) each seqTwins entry cell-free.
func genSeqSafe(pkgs map[string]*staticPkg, cb *CellBudget) error {
	entries := make([]string, 0, len(seqTwins))
	for e := range seqTwins {
		entries = append(entries, e)
	}
	sort.Strings(entries)
	for _, e := range entries {
		sv := SeqSafeVerdict{Safe: true}
		var proven []string
		for _, twin := range seqTwins[e] {
			pkgName, fnSpec, ok := strings.Cut(twin, ".")
			if !ok {
				return fmt.Errorf("bad seqsafe twin spec %q for %s", twin, e)
			}
			sp := pkgs[pkgName]
			if sp == nil {
				return fmt.Errorf("seqsafe twin %q names unknown package", twin)
			}
			fn, err := sp.entry(fnSpec)
			if err != nil {
				return fmt.Errorf("seqsafe twin for %s: %v", e, err)
			}
			if ok, why := sp.costs.SeqSafe(fn); !ok {
				sv = SeqSafeVerdict{Safe: false, Detail: twin + ": " + why}
				break
			}
			proven = append(proven, twin)
		}
		if sv.Safe {
			sv.Detail = "cell-free twins: " + strings.Join(proven, ", ")
		}
		cb.SeqSafe[e] = sv
	}
	return nil
}

// classify assigns one entry point its flow class.
func (sp *staticPkg) classify(spec string) (EntryVerdict, error) {
	fn, err := sp.entry(spec)
	if err != nil {
		return EntryVerdict{}, err
	}
	reach := reachableFuncs(fn)
	if !touchesCells(reach) {
		return EntryVerdict{
			Class:  Unanalyzed,
			Detail: "no recognized cell operation reachable (cells flow through an opaque runtime interface)",
		}, nil
	}
	if linear, finding := sp.linearVerdict(reach); !linear {
		return EntryVerdict{Class: General, Detail: finding}, nil
	}
	return EntryVerdict{Class: Linear}, nil
}

// entry finds the function named by spec: "Merge" for a package-level
// function, "RConfig.Merge" for a method.
func (sp *staticPkg) entry(spec string) (*ssa.Func, error) {
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
				return f, nil
			}
			continue
		}
		if r != nil && recvTypeName(r.Type()) == recv {
			return f, nil
		}
	}
	return nil, fmt.Errorf("no function %s in package %s", spec, sp.name)
}

func recvTypeName(typ types.Type) string {
	if p, ok := typ.(*types.Pointer); ok {
		typ = p.Elem()
	}
	if n, ok := typ.(*types.Named); ok {
		return n.Obj().Name()
	}
	return ""
}

// reachableFuncs walks the intra-program call graph from entry: direct
// calls to declared functions, calls through variables bound to literals
// (the builder resolves those into Callee), and fork bodies.
func reachableFuncs(entry *ssa.Func) map[*ssa.Func]bool {
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

// touchesCells reports whether any reachable instruction performs a
// recognized cell operation the flow classes constrain. Probes are
// deliberately excluded: an entry that only probes cells claims nothing
// a flow class could constrain, and stays Unanalyzed.
func touchesCells(reach map[*ssa.Func]bool) bool {
	for fn := range reach {
		for _, b := range fn.Blocks {
			for _, in := range b.Instrs {
				switch in.Op {
				case ssa.OpNewCell, ssa.OpFork, ssa.OpWrite, ssa.OpTouch:
					return true
				}
			}
		}
	}
	return false
}

// linearVerdict reports whether flowlinear considers everything in reach
// linear; when it does not, the second result describes the first
// disqualifying finding. Positions render with the bare file name so the
// manifest is stable across checkouts.
func (sp *staticPkg) linearVerdict(reach map[*ssa.Func]bool) (bool, string) {
	for _, d := range sp.diags {
		for fn := range reach {
			if fn.Syntax != nil && d.Pos >= fn.Syntax.Pos() && d.Pos <= fn.Syntax.End() {
				pos := sp.fset.Position(d.Pos)
				return false, fmt.Sprintf("%s:%d:%d: %s", filepath.Base(pos.Filename), pos.Line, pos.Column, d.Message)
			}
		}
	}
	return true, ""
}
