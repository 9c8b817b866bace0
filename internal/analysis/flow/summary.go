package flow

import (
	"go/types"

	"pipefut/internal/cellapi"
	"pipefut/internal/ssa"
)

// Summary is one function's interprocedural abstract: how it treats the
// cells handed to it (parameters) and the cells it captures (free
// variables). May-facts are least fixpoints (start empty, grow);
// must-facts that suppress reports elsewhere start at the optimistic top
// (ParamMustWrite = true) so recursion cannot manufacture a false
// "never written" claim, while must-facts that CREATE reports
// (ParamMustTouch, FreeMustTouch — deadlock-cycle edges) start false so
// the analyzers only ever under-claim.
type Summary struct {
	// ParamTouch[i] bounds how many touches may reach cell parameter i
	// (directly or through views of it) during one call.
	ParamTouch []Count
	// FreeTouch bounds touches of captured cell variables.
	FreeTouch map[*types.Var]Count

	// ParamMayWrite[i]: parameter i may be written, or may leak (be
	// returned, stored into memory, or passed somewhere untracked, after
	// which anyone may write it).
	ParamMayWrite []bool
	FreeMayWrite  map[*types.Var]bool

	// ParamMustWrite[i]: on every path reaching a normal return,
	// parameter i has been written or has leaked ("handled" — the caller
	// cannot prove a missing write). Vacuously true when no normal
	// return is reachable.
	ParamMustWrite []bool
	FreeMustWrite  map[*types.Var]bool

	// ParamLeak[i]: parameter i escapes tracking (returned, stored,
	// passed to an untracked or leaking callee) somewhere in the body.
	ParamLeak []bool
	FreeLeak  map[*types.Var]bool

	// ParamTouchUnwritten[i]: some path touches parameter i at a point
	// where no write can possibly have reached it — inside a fork body
	// this is a guaranteed deadlock for the body's own result params.
	ParamTouchUnwritten []bool

	// ParamMustTouch[i] / FreeMustTouch[v]: every path to a normal
	// return touches the cell. Used for deadlock-cycle edges, so these
	// are deliberate under-approximations.
	ParamMustTouch []bool
	FreeMustTouch  map[*types.Var]bool
}

func newSummary(fn *ssa.Func) *Summary {
	n := len(fn.Params)
	s := &Summary{
		ParamTouch:          make([]Count, n),
		FreeTouch:           map[*types.Var]Count{},
		ParamMayWrite:       make([]bool, n),
		FreeMayWrite:        map[*types.Var]bool{},
		ParamMustWrite:      make([]bool, n),
		FreeMustWrite:       map[*types.Var]bool{},
		ParamLeak:           make([]bool, n),
		FreeLeak:            map[*types.Var]bool{},
		ParamTouchUnwritten: make([]bool, n),
		ParamMustTouch:      make([]bool, n),
		FreeMustTouch:       map[*types.Var]bool{},
	}
	for i := range s.ParamMustWrite {
		s.ParamMustWrite[i] = true // optimistic top; descends during iteration
	}
	return s
}

func (s *Summary) equal(o *Summary) bool {
	return countsEqual(s.ParamTouch, o.ParamTouch) &&
		countMapsEqual(s.FreeTouch, o.FreeTouch) &&
		boolsEqual(s.ParamMayWrite, o.ParamMayWrite) &&
		boolMapsEqual(s.FreeMayWrite, o.FreeMayWrite) &&
		boolsEqual(s.ParamMustWrite, o.ParamMustWrite) &&
		boolMapsEqual(s.FreeMustWrite, o.FreeMustWrite) &&
		boolsEqual(s.ParamLeak, o.ParamLeak) &&
		boolMapsEqual(s.FreeLeak, o.FreeLeak) &&
		boolsEqual(s.ParamTouchUnwritten, o.ParamTouchUnwritten) &&
		boolsEqual(s.ParamMustTouch, o.ParamMustTouch) &&
		boolMapsEqual(s.FreeMustTouch, o.FreeMustTouch)
}

func countsEqual(a, b []Count) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func boolsEqual(a, b []bool) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func countMapsEqual(a, b map[*types.Var]Count) bool {
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

func boolMapsEqual(a, b map[*types.Var]bool) bool {
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

// Summaries holds the converged per-function summaries of one program.
type Summaries struct {
	prog *ssa.Program
	m    map[*ssa.Func]*Summary
}

// Of returns fn's summary, or nil for nil/foreign functions.
func (s *Summaries) Of(fn *ssa.Func) *Summary {
	if fn == nil {
		return nil
	}
	return s.m[fn]
}

// computeSummaries iterates intraprocedural solves over every function
// until all summaries stabilize. Each field is monotone in its own
// direction over a finite lattice, so the iteration converges; the round
// cap is a backstop whose only effect, if ever hit, is missed reports
// (never false ones).
func computeSummaries(prog *ssa.Program) *Summaries {
	s := &Summaries{prog: prog, m: make(map[*ssa.Func]*Summary, len(prog.Funcs))}
	for _, fn := range prog.Funcs {
		s.m[fn] = bootstrapSummary(fn)
	}
	for round := 0; round < 64; round++ {
		changed := false
		for _, fn := range prog.Funcs {
			if len(fn.Blocks) == 0 {
				continue // bodyless: keep the blackbox bootstrap
			}
			ns := s.compute(fn)
			if !ns.equal(s.m[fn]) {
				s.m[fn] = ns
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	return s
}

// bootstrapSummary is the starting point: bottom/top per field
// direction. Bodyless declarations keep it forever, behaving like the
// blackbox contract for unseen code: every cell parameter may be written
// and escapes tracking, nothing is provable, and — like callees outside
// the package (see TouchTransfer) — no touches are charged.
func bootstrapSummary(fn *ssa.Func) *Summary {
	ns := newSummary(fn)
	if len(fn.Blocks) == 0 {
		for i, p := range fn.Params {
			if cellapi.IsCellType(p.Type()) {
				ns.ParamMayWrite[i] = true
				ns.ParamLeak[i] = true
			}
		}
	}
	return ns
}

func (s *Summaries) compute(fn *ssa.Func) *Summary {
	ns := newSummary(fn)

	// Leaks: path-insensitive facts over the resolved operands.
	s.scanLeaks(fn, ns)

	// May-touch counts.
	touch := (&Problem{Fn: fn, Mode: May, Transfer: s.TouchTransfer(nil)}).Solve()
	for _, b := range fn.Blocks {
		st, ok := touch.Out[b]
		if !ok {
			continue
		}
		for o, c := range st {
			for _, root := range rootsOf(o) {
				switch root.Kind {
				case ssa.OParam:
					if root.Index < len(ns.ParamTouch) {
						ns.ParamTouch[root.Index] = maxCount(ns.ParamTouch[root.Index], c)
					}
				case ssa.OFree:
					ns.FreeTouch[root.Var] = maxCount(ns.FreeTouch[root.Var], c)
				}
			}
		}
	}

	// May-write (and, replaying it, touch-before-any-possible-write).
	mayW := (&Problem{Fn: fn, Mode: May, Transfer: s.MayWriteTransfer(fn)}).Solve()
	for _, b := range fn.Blocks {
		st, ok := mayW.Out[b]
		if !ok {
			continue
		}
		for o := range st {
			for _, root := range rootsOf(o) {
				switch root.Kind {
				case ssa.OParam:
					if root.Index < len(ns.ParamMayWrite) {
						ns.ParamMayWrite[root.Index] = true
					}
				case ssa.OFree:
					ns.FreeMayWrite[root.Var] = true
				}
			}
		}
	}
	replay(fn, mayW, s.MayWriteTransfer(fn), func(in *ssa.Instr, st State) {
		s.touchUnwrittenAt(in, st, func(o *ssa.Origin) {
			if o.Kind == ssa.OParam && o.Index < len(ns.ParamTouchUnwritten) {
				ns.ParamTouchUnwritten[o.Index] = true
			}
		})
	})

	// Must-write ("handled"): read at the exit's in-state. An
	// unreachable exit (every path panics or loops) keeps the vacuous
	// true.
	mustW := (&Problem{Fn: fn, Mode: Must, Transfer: s.MustWriteTransfer(fn)}).Solve()
	if exitIn, ok := mustW.In[fn.Exit]; ok {
		written := make([]bool, len(fn.Params))
		freeWritten := map[*types.Var]bool{}
		for o := range exitIn {
			for _, root := range rootsOf(o) {
				switch root.Kind {
				case ssa.OParam:
					if root.Index < len(written) {
						written[root.Index] = true
					}
				case ssa.OFree:
					freeWritten[root.Var] = true
				}
			}
		}
		for i := range ns.ParamMustWrite {
			ns.ParamMustWrite[i] = written[i] || ns.ParamLeak[i]
		}
		for _, v := range fn.FreeVars {
			if cellapi.IsCellType(v.Type()) {
				ns.FreeMustWrite[v] = freeWritten[v] || ns.FreeLeak[v]
			}
		}
	} else {
		for _, v := range fn.FreeVars {
			if cellapi.IsCellType(v.Type()) {
				ns.FreeMustWrite[v] = true
			}
		}
	}

	// Must-touch: direct facts only (no view/phi attribution) — these
	// become deadlock edges, so stay strictly under-approximate.
	mustT := (&Problem{Fn: fn, Mode: Must, Transfer: s.MustTouchTransfer()}).Solve()
	if exitIn, ok := mustT.In[fn.Exit]; ok {
		for o := range exitIn {
			switch o.Kind {
			case ssa.OParam:
				if o.Index < len(ns.ParamMustTouch) {
					ns.ParamMustTouch[o.Index] = true
				}
			case ssa.OFree:
				ns.FreeMustTouch[o.Var] = true
			}
		}
	}
	return ns
}

// scanLeaks marks parameters and free cells that escape tracking.
func (s *Summaries) scanLeaks(fn *ssa.Func, ns *Summary) {
	mark := func(o *ssa.Origin) {
		for _, root := range rootsOf(o) {
			switch root.Kind {
			case ssa.OParam:
				if root.Index < len(ns.ParamLeak) {
					ns.ParamLeak[root.Index] = true
				}
			case ssa.OFree:
				ns.FreeLeak[root.Var] = true
			}
		}
	}
	for _, b := range fn.Blocks {
		for _, in := range b.Instrs {
			switch in.Op {
			case ssa.OpDef:
				if in.Store && in.Val != nil {
					mark(in.Val)
				}
				if in.Var != nil && in.Cell != nil && !fn.Prog.IsLocal(fn, in.Var) {
					mark(in.Cell) // assigned to a global or enclosing frame
				}
			case ssa.OpReturn:
				for _, a := range in.Args {
					mark(a.Origin)
				}
			case ssa.OpCall:
				callee := s.Of(in.Callee)
				for _, a := range in.Args {
					if callee == nil || leakAt(callee.ParamLeak, a.Index) {
						mark(a.Origin)
					}
				}
				if callee != nil {
					for _, fc := range in.Free {
						if callee.FreeLeak[fc.Var] {
							mark(fc.Origin)
						}
					}
				}
			case ssa.OpFork:
				body := s.Of(in.Fork.Body)
				for _, fc := range in.Free {
					if body == nil || body.FreeLeak[fc.Var] {
						mark(fc.Origin)
					}
				}
			}
		}
	}
}

func leakAt(leak []bool, idx int) bool {
	if len(leak) == 0 {
		return true // untracked shape: assume escape
	}
	if idx < 0 || idx >= len(leak) {
		idx = len(leak) - 1
	}
	return leak[idx]
}

// touchUnwrittenAt invokes found for every origin in, at this point, may
// be touched while no write can possibly have reached it. st is the
// may-written state flowing into in.
func (s *Summaries) touchUnwrittenAt(in *ssa.Instr, st State, found func(*ssa.Origin)) {
	unwritten := func(o *ssa.Origin) bool {
		return o != nil && !writtenCovered(st, o)
	}
	switch in.Op {
	case ssa.OpTouch:
		if unwritten(in.Cell) {
			found(in.Cell)
		}
	case ssa.OpCall:
		callee := s.Of(in.Callee)
		if callee == nil {
			return // blackboxes are assumed not to touch-before-write
		}
		for _, a := range in.Args {
			if boolAt(callee.ParamTouchUnwritten, a.Index) && unwritten(a.Origin) {
				found(a.Origin)
			}
		}
	}
}

func boolAt(bs []bool, idx int) bool {
	if len(bs) == 0 {
		return false
	}
	if idx < 0 || idx >= len(bs) {
		idx = len(bs) - 1
	}
	return bs[idx]
}

func countAt(cs []Count, idx int) Count {
	if len(cs) == 0 {
		return Zero
	}
	if idx < 0 || idx >= len(cs) {
		idx = len(cs) - 1
	}
	return cs[idx]
}

// writtenCovered reports whether the cell named by o may already be
// written according to st, looking through views (derived origins), the
// base chain, and phi inputs.
func writtenCovered(st State, o *ssa.Origin) bool {
	return chainCount(st, o, nil) > Zero
}

// chainCount returns the highest count reachable from o through its
// derived views, base chain, and phi inputs.
func chainCount(st State, o *ssa.Origin, seen map[*ssa.Origin]bool) Count {
	if o == nil || seen[o] {
		return Zero
	}
	if seen == nil {
		seen = map[*ssa.Origin]bool{}
	}
	seen[o] = true
	c := Zero
	for _, d := range o.ResetSet() { // o itself plus derived views
		c = maxCount(c, st[d])
	}
	for b := o.Base; b != nil; b = b.Base {
		c = maxCount(c, st[b])
	}
	if o.Kind == ssa.OPhi {
		for _, ph := range o.Block.Phis {
			if ph.Origin != o {
				continue
			}
			for _, inp := range ph.Inputs {
				c = maxCount(c, chainCount(st, inp, seen))
			}
			break
		}
	}
	return c
}

// rootsOf returns the parameter/free-variable roots an origin may alias:
// the end of its base chain, expanded through phi inputs. Non-root kinds
// (fresh calls, forks, locals) yield themselves, letting callers filter
// by kind.
func rootsOf(o *ssa.Origin) []*ssa.Origin {
	var out []*ssa.Origin
	collectRoots(o, map[*ssa.Origin]bool{}, &out)
	return out
}

func collectRoots(o *ssa.Origin, seen map[*ssa.Origin]bool, out *[]*ssa.Origin) {
	for o != nil && o.Base != nil {
		o = o.Base
	}
	if o == nil || seen[o] {
		return
	}
	seen[o] = true
	if o.Kind == ssa.OPhi {
		for _, ph := range o.Block.Phis {
			if ph.Origin != o {
				continue
			}
			for _, inp := range ph.Inputs {
				collectRoots(inp, seen, out)
			}
			break
		}
		return
	}
	*out = append(*out, o)
}

// ---------------------------------------------------------------------
// Transfer functions
// ---------------------------------------------------------------------

// TouchHook observes each touch contribution as it is applied: the
// instruction, the touched origin, the count already reaching it, and
// this instruction's contribution.
type TouchHook func(in *ssa.Instr, o *ssa.Origin, pre, contrib Count)

// TouchTransfer is the may-touch-count transfer: direct touches add one;
// calls add the callee's per-parameter touch bound to each cell
// argument; forks charge the body's captured-cell touches at the spawn
// site and the body's own-result touches to the result origins.
//
// Callees outside the analyzed package contribute no touches. Charging
// them one touch per cell argument sounds safer but flags any pair of
// library calls sharing a cell — including probe-only readers like
// completion-time scans, which are not touches in the model. The cost is
// a documented miss: a touch hidden behind a package boundary is this
// analyzer's blind spot, and covering it is exactly what the verifycross
// dynamic harness is for.
func (s *Summaries) TouchTransfer(hook TouchHook) func(in *ssa.Instr, st State) {
	return func(in *ssa.Instr, st State) {
		ApplyResets(in, st)
		add := func(o *ssa.Origin, c Count) {
			if o == nil || c == Zero {
				return
			}
			if hook != nil {
				hook(in, o, chainCount(st, o, nil), c)
			}
			st[o] = st[o].Add(c)
		}
		switch in.Op {
		case ssa.OpTouch:
			add(in.Cell, One)
		case ssa.OpCall:
			callee := s.Of(in.Callee)
			if callee == nil {
				return
			}
			for _, a := range in.Args {
				add(a.Origin, countAt(callee.ParamTouch, a.Index))
			}
			for _, fc := range in.Free {
				add(fc.Origin, callee.FreeTouch[fc.Var])
			}
		case ssa.OpFork:
			body := s.Of(in.Fork.Body)
			if body == nil {
				return
			}
			for _, fc := range in.Free {
				add(fc.Origin, body.FreeTouch[fc.Var])
			}
			for _, rp := range cellResultParams(in.Fork.Info) {
				if rp[0] < len(in.Fork.Results) {
					add(in.Fork.Results[rp[0]], countAt(body.ParamTouch, rp[1]))
				}
			}
		}
	}
}

// MayWriteTransfer tracks cells that may have been written — or may be
// written by anyone from here on because they escaped (stores, returns,
// untracked calls) or because a spawned producer may write them.
func (s *Summaries) MayWriteTransfer(fn *ssa.Func) func(in *ssa.Instr, st State) {
	return s.writeTransfer(fn, true)
}

// MustWriteTransfer tracks cells that, on every path, have been written
// or are out of the caller's hands (escaped, or handed to a producer
// that may write them) — "the analyzer cannot prove a missing write".
func (s *Summaries) MustWriteTransfer(fn *ssa.Func) func(in *ssa.Instr, st State) {
	return s.writeTransfer(fn, false)
}

func (s *Summaries) writeTransfer(fn *ssa.Func, may bool) func(in *ssa.Instr, st State) {
	return func(in *ssa.Instr, st State) {
		ApplyResets(in, st)
		mark := func(o *ssa.Origin) {
			if o != nil {
				st[o] = One
			}
		}
		switch in.Op {
		case ssa.OpWrite:
			mark(in.Cell)
		case ssa.OpNewCell:
			if in.Cell != nil && in.Cell.Prewritten {
				mark(in.Cell) // Done/NowCell arrive written
			}
		case ssa.OpDef:
			if in.Store && in.Val != nil {
				mark(in.Val) // escaped into memory
			}
			if in.Var != nil && in.Cell != nil && !fn.Prog.IsLocal(fn, in.Var) {
				mark(in.Cell) // escaped to a global or enclosing frame
			}
		case ssa.OpReturn:
			for _, a := range in.Args {
				mark(a.Origin) // escaped to the caller
			}
		case ssa.OpCall:
			callee := s.Of(in.Callee)
			for _, a := range in.Args {
				if callee == nil {
					mark(a.Origin) // untracked: may write / unprovable
					continue
				}
				if may {
					if boolAt(callee.ParamMayWrite, a.Index) {
						mark(a.Origin)
					}
				} else if boolAt(callee.ParamMustWrite, a.Index) {
					mark(a.Origin)
				}
			}
			if callee != nil {
				for _, fc := range in.Free {
					if may && callee.FreeMayWrite[fc.Var] {
						mark(fc.Origin)
					} else if !may && callee.FreeMustWrite[fc.Var] {
						mark(fc.Origin)
					}
				}
			}
		case ssa.OpFork:
			// The spawned body is a concurrent producer: a cell it may
			// write has a pending writer — enough to discharge both the
			// may-write question (a write can reach it) and the
			// must-write question (a missing write is unprovable).
			body := s.Of(in.Fork.Body)
			for _, fc := range in.Free {
				if body == nil || body.FreeMayWrite[fc.Var] {
					mark(fc.Origin)
				}
			}
			pairs := cellResultParams(in.Fork.Info)
			if len(pairs) == 0 {
				// Value-result fork: the runtime writes the result cell
				// when the body returns.
				for _, ro := range in.Fork.Results {
					mark(ro)
				}
				return
			}
			for _, rp := range pairs {
				if rp[0] >= len(in.Fork.Results) {
					continue
				}
				if body == nil || boolAt(body.ParamMayWrite, rp[1]) {
					mark(in.Fork.Results[rp[0]])
				}
			}
		}
	}
}

// MustTouchTransfer tracks cells touched on every path — deadlock-edge
// material, so only direct touches and tracked-callee must-touches
// count.
func (s *Summaries) MustTouchTransfer() func(in *ssa.Instr, st State) {
	return func(in *ssa.Instr, st State) {
		ApplyResets(in, st)
		switch in.Op {
		case ssa.OpTouch:
			if in.Cell != nil {
				st[in.Cell] = One
			}
		case ssa.OpCall:
			callee := s.Of(in.Callee)
			if callee == nil {
				return
			}
			for _, a := range in.Args {
				if a.Origin != nil && boolAt(callee.ParamMustTouch, a.Index) {
					st[a.Origin] = One
				}
			}
			for _, fc := range in.Free {
				if fc.Origin != nil && callee.FreeMustTouch[fc.Var] {
					st[fc.Origin] = One
				}
			}
		}
	}
}

// cellResultParams maps a fork shape's results to the body parameters
// that carry their write capability: (result index, flattened body
// parameter index) pairs. Value-result forks (Fork1, Spawn) yield nil;
// ForkN yields its single slice result mapped to the slice parameter.
func cellResultParams(fi cellapi.ForkInfo) [][2]int {
	if fi.CellParams < 0 {
		return nil
	}
	if fi.Results == 0 {
		return [][2]int{{0, fi.CellParams}}
	}
	out := make([][2]int, 0, fi.Results)
	for i := 0; i < fi.Results; i++ {
		out = append(out, [2]int{i, fi.CellParams + i})
	}
	return out
}

// replay walks every solved block once, invoking hook before each
// instruction's transfer — the way analyzers recover per-instruction
// pre-states (and report positions) from a converged Result.
func replay(fn *ssa.Func, res *Result, transfer func(*ssa.Instr, State), hook func(*ssa.Instr, State)) {
	for _, b := range fn.Blocks {
		in0, ok := res.In[b]
		if !ok {
			continue
		}
		st := in0.Clone()
		for _, in := range b.Instrs {
			if hook != nil {
				hook(in, st)
			}
			transfer(in, st)
		}
	}
}
