// Package flow is a dataflow framework over the SSA-lite IR
// (internal/ssa) plus the three flow-sensitive pipelint analyzers built
// on it: flowlinear (interprocedural linearity), mustwrite (every fork
// result written on all paths), and deadcycle (statically-inevitable
// deadlocks). The framework provides forward fixpoint solvers over
// finite lattices keyed by value origins, with phi-aware joins — a phi's
// value is recomputed from its inputs' values in each predecessor's
// out-state, never from its own previous value, so per-iteration loop
// state does not falsely accumulate — and per-function summaries for
// interprocedural propagation.
package flow

import (
	"sync"

	"go/types"

	"pipefut/internal/analysis"
	"pipefut/internal/ssa"
)

// Count is the saturating touch-count lattice: 0, 1, many.
type Count uint8

const (
	Zero Count = iota
	One
	Many
)

func (c Count) Add(d Count) Count {
	if s := c + d; s <= Many {
		return s
	}
	return Many
}

func maxCount(a, b Count) Count {
	if a > b {
		return a
	}
	return b
}

// State is a dataflow fact: a finite map from origins to lattice values.
// May-problems join by pointwise max (absent = 0); must-problems join by
// intersection with pointwise min.
type State map[*ssa.Origin]Count

func (s State) Clone() State {
	out := make(State, len(s))
	for k, v := range s {
		out[k] = v
	}
	return out
}

// ApplyResets forgets every origin freshly re-evaluated at in: the reset
// roots plus all origins derived from them.
func ApplyResets(in *ssa.Instr, st State) {
	for _, root := range in.Resets {
		for _, o := range root.ResetSet() {
			delete(st, o)
		}
	}
}

// Mode selects the join of a forward problem.
type Mode int

const (
	May  Mode = iota // union, pointwise max
	Must             // intersection, pointwise min
)

// Problem is one forward dataflow problem over a function.
type Problem struct {
	Fn   *ssa.Func
	Mode Mode
	// Transfer mutates st across one instruction. Implementations should
	// usually start with ApplyResets(in, st).
	Transfer func(in *ssa.Instr, st State)
}

// Result holds the solved per-block states. Blocks unreachable from the
// entry have no entry (nil state).
type Result struct {
	In, Out map[*ssa.Block]State
}

// Solve runs the forward fixpoint to convergence. The entry block starts
// with an empty state; a block is processed once at least one
// predecessor (or the entry itself) has an out-state.
func (p *Problem) Solve() *Result {
	res := &Result{
		In:  make(map[*ssa.Block]State),
		Out: make(map[*ssa.Block]State),
	}
	fn := p.Fn
	if len(fn.Blocks) == 0 {
		return res
	}
	inQ := make(map[*ssa.Block]bool)
	var queue []*ssa.Block
	push := func(b *ssa.Block) {
		if !inQ[b] {
			inQ[b] = true
			queue = append(queue, b)
		}
	}
	res.In[fn.Blocks[0]] = State{}
	push(fn.Blocks[0])
	for steps := 0; len(queue) > 0 && steps < 200000; steps++ {
		b := queue[0]
		queue = queue[1:]
		inQ[b] = false
		st := res.In[b].Clone()
		for _, in := range b.Instrs {
			p.Transfer(in, st)
		}
		res.Out[b] = st
		for _, s := range b.Succs {
			if p.mergeInto(res, s) {
				push(s)
			}
		}
	}
	return res
}

// mergeInto recomputes succ's in-state from its processed predecessors'
// out-states, reporting whether it changed.
func (p *Problem) mergeInto(res *Result, succ *ssa.Block) bool {
	var outs []State
	var preds []*ssa.Block
	for _, pr := range succ.Preds {
		if o, ok := res.Out[pr]; ok {
			outs = append(outs, o)
			preds = append(preds, pr)
		}
	}
	if len(outs) == 0 {
		return false
	}
	in := p.join(outs)
	// Views derived from a phi (fields, elements) refer to whatever object
	// the phi binds this time around; at the merge point the binding may
	// have changed, so the accumulated counts for those views describe a
	// different cell. Drop them and let the body re-derive — this is what
	// keeps a cursor loop (n = n.Tail.Read()) linear. Like the phi
	// recompute below, it trades a false positive for a miss when the
	// variable is only conditionally rebound.
	if len(succ.Phis) > 0 {
		phiSet := make(map[*ssa.Origin]bool, len(succ.Phis))
		for _, phi := range succ.Phis {
			phiSet[phi.Origin] = true
		}
		for o := range in {
			for b := o.Base; b != nil; b = b.Base {
				if phiSet[b] {
					delete(in, o)
					break
				}
			}
		}
	}
	// Phi slots: recompute from the inputs' values, replacing whatever
	// the plain join produced for the phi origin.
	for _, phi := range succ.Phis {
		var v Count
		first := true
		for i, pr := range preds {
			inp := phi.Inputs[pr]
			var pv Count
			if inp != nil {
				pv = outs[i][inp]
			}
			if first {
				v, first = pv, false
				continue
			}
			if p.Mode == May {
				v = maxCount(v, pv)
			} else if pv < v {
				v = pv
			}
		}
		if v == Zero {
			delete(in, phi.Origin)
		} else {
			in[phi.Origin] = v
		}
	}
	old, had := res.In[succ]
	if had && statesEqual(old, in) {
		return false
	}
	res.In[succ] = in
	return true
}

func (p *Problem) join(outs []State) State {
	if p.Mode == May {
		in := State{}
		for _, o := range outs {
			for k, v := range o {
				if v > in[k] {
					in[k] = v
				}
			}
		}
		return in
	}
	// Must: intersect.
	in := outs[0].Clone()
	for _, o := range outs[1:] {
		for k, v := range in {
			ov, ok := o[k]
			if !ok {
				delete(in, k)
				continue
			}
			if ov < v {
				in[k] = ov
			}
		}
	}
	return in
}

func statesEqual(a, b State) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

// Covered reports whether o, or any origin o is derived from, is present
// in st — used to treat a write through a view (an element of a slice
// parameter, a field) as covering its base.
func Covered(st State, o *ssa.Origin) bool {
	if st[o] != Zero {
		return true
	}
	for _, d := range o.ResetSet() {
		if st[d] != Zero {
			return true
		}
	}
	return false
}

// ---------------------------------------------------------------------
// Shared per-package machinery
// ---------------------------------------------------------------------

// packageState is everything the flow analyzers derive from one
// typechecked package: the SSA-lite program and the interprocedural
// summaries. It is cached per *types.Package so the three analyzers
// running in one pipelint invocation build it once.
type packageState struct {
	prog *ssa.Program
	sum  *Summaries
}

var (
	cacheMu sync.Mutex
	cache   = map[*types.Package]*packageState{}
)

func stateFor(pass *analysis.Pass) *packageState {
	cacheMu.Lock()
	defer cacheMu.Unlock()
	if ps, ok := cache[pass.Pkg]; ok {
		return ps
	}
	prog := ssa.Build(pass.Fset, pass.Files, pass.Pkg, pass.TypesInfo)
	ps := &packageState{prog: prog, sum: computeSummaries(prog)}
	cache[pass.Pkg] = ps
	if len(cache) > 64 {
		// Bounded: drop everything but the newest entry; analyzers of one
		// package run back-to-back so eviction between packages is fine.
		for k := range cache {
			if k != pass.Pkg {
				delete(cache, k)
			}
		}
	}
	return ps
}

// ProgramFor exposes the cached SSA-lite program for a pass (used by the
// cross-check harness).
func ProgramFor(pass *analysis.Pass) *ssa.Program {
	return stateFor(pass).prog
}

// All returns the flow-sensitive analyzers in deterministic order.
func All() []*analysis.Analyzer {
	return []*analysis.Analyzer{FlowLinear, MustWrite, DeadCycle}
}
