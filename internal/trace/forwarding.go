package trace

import (
	"sort"

	"pipefut/internal/core"
)

// Forwarding is the dynamic write-before-touch verdict of a recorded
// DAG: whether every touch of every cell is ordered after that cell's
// write by CONTROL edges alone (thread and fork edges), without relying
// on the touch's own data edge.
//
// This is the dynamic check of the manifest's "forwarded" class: a
// forwarded flow never needs to suspend, so the data edge a touch
// creates by parking a continuation must not be what orders it after
// the write. The write must instead be ordered before the touch by the
// rest of the DAG — a control path — or some schedule runs the touch
// first and the claim is wrong. The verdict is deliberately
// conservative: it ignores ALL data edges (even other cells'), treating
// them as value-flow records, not scheduling constraints.
type Forwarding struct {
	// TouchedCells counts cells with at least one recorded touch.
	TouchedCells int
	// EarlyTouched lists the engine cell IDs with some touch NOT
	// control-ordered after the cell's write, in ascending order. Input
	// cells (write node -1, written before the computation) are never
	// early.
	EarlyTouched []int64
}

// Forwarded reports whether every touch is control-ordered after its
// cell's write — the dynamic counterpart of the static forwarded
// verdict (internal/analysis/flow), exact for the one execution
// recorded: a static "forwarded" verdict must imply Forwarded() here.
func (f Forwarding) Forwarded() bool { return len(f.EarlyTouched) == 0 }

// Forwarding scans the recorded cell events and returns the verdict.
func (t *Trace) Forwarding() Forwarding {
	var v Forwarding
	for cell, touches := range t.cellTouches {
		if len(touches) == 0 {
			continue
		}
		v.TouchedCells++
		writes := t.cellWrites[cell]
		if len(writes) == 0 {
			// Touched but never written: Verify rejects such traces;
			// here it is trivially not write-before-touch.
			v.EarlyTouched = append(v.EarlyTouched, cell)
			continue
		}
		w := writes[0]
		if w == -1 {
			continue // input cell: written before the computation started
		}
		for _, r := range touches {
			if !t.controlReaches(w, r) {
				v.EarlyTouched = append(v.EarlyTouched, cell)
				break
			}
		}
	}
	sort.Slice(v.EarlyTouched, func(i, j int) bool { return v.EarlyTouched[i] < v.EarlyTouched[j] })
	return v
}

// controlReaches reports whether node w reaches node r through thread
// and fork edges only. Node IDs are topological (edges point from lower
// to higher IDs), so the backward search from r prunes every node below
// w.
func (t *Trace) controlReaches(w, r int32) bool {
	if r == w {
		return true
	}
	if r < w {
		return false
	}
	seen := make(map[int32]bool)
	stack := []int32{r}
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if id == w {
			return true
		}
		if id < w || seen[id] {
			continue
		}
		seen[id] = true
		if p := t.parent1[id]; p != none {
			stack = append(stack, p)
		}
		// parent2 is always the data edge and is skipped; extra edges
		// carry their kind (fan sinks contribute thread edges).
		for _, e := range t.extra[id] {
			if e.kind != core.DataEdgeKind {
				stack = append(stack, e.from)
			}
		}
	}
	return false
}
