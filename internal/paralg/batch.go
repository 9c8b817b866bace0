package paralg

// Batch entry points on RConfig — asynchronous treap construction and
// bulk insert/delete — plus the CPS query walks the serving layer (internal/serve) runs as
// scheduler tasks. Everything here follows the port.go discipline: no
// call ever blocks a goroutine; waiting is always a Touch that suspends
// only a continuation.

import (
	"sync/atomic"

	"pipefut/internal/seqtreap"
)

// BuildTreap builds a treap over the keys by divide-and-conquer pipelined
// unions on runtime c.R. The root cell becomes available while most of
// the tree is still under construction, so queries and further set
// operations can start immediately. ctx follows the Fork contract.
func (c RConfig) BuildTreap(ctx Ctx, keys []int) NodeCell {
	c = c.classed("paralg.RConfig.BuildTreap")
	return c.rbuildTreap(ctx, 0, keys)
}

func (c RConfig) rbuildTreap(ctx Ctx, d int, keys []int) NodeCell {
	if len(keys) <= 64 || d >= c.SpawnDepth {
		// Small or below the grain bound: build directly. With grain
		// coarsening on, the whole sequential subtree rides behind one
		// chunk cell — zero scheduler cells instead of one per node —
		// and decomposes lazily only if a pipelined consumer needs it.
		t := seqtreap.FromKeys(keys)
		if c.cutoff > 0 {
			return chunkCell(t)
		}
		return RFromSeqTreap(c.R, t)
	}
	half := len(keys) / 2
	a := c.R.NewNode()
	c.fork(ctx, d, func(ctx Ctx) { c.rbuildTreap(ctx, d+1, keys[:half]).Touch(ctx, a.Write) })
	b := c.rbuildTreap(ctx, d+1, keys[half:])
	out := c.R.NewNode()
	c.unionInto(ctx, d, a, b, out)
	return out
}

// InsertKeys returns the treap with all keys added, as one pipelined
// union — the batch entry the serving layer coalesces insert requests
// into.
func (c RConfig) InsertKeys(ctx Ctx, tree NodeCell, keys []int) NodeCell {
	c = c.classed("paralg.RConfig.InsertKeys")
	out := c.R.NewNode()
	c.unionInto(ctx, 0, tree, c.BuildTreap(ctx, keys), out)
	return out
}

// DeleteKeys returns the treap with all keys removed, as one pipelined
// difference.
func (c RConfig) DeleteKeys(ctx Ctx, tree NodeCell, keys []int) NodeCell {
	c = c.classed("paralg.RConfig.DeleteKeys")
	return c.Diff(ctx, tree, c.BuildTreap(ctx, keys))
}

// RContains walks the search path by touches and calls k with the
// membership verdict. It blocks only on cells along the path, and never
// blocks a goroutine: on the sched runtime an unwritten edge suspends
// the rest of the walk as a continuation.
func RContains(ctx Ctx, t NodeCell, key int, k func(Ctx, bool)) {
	t.Touch(ctx, func(ctx Ctx, n *RNode) {
		switch {
		case n == nil:
			k(ctx, false)
		case key == n.Key:
			k(ctx, true)
		case key < n.Key:
			RContains(ctx, n.Left, key, k)
		default:
			RContains(ctx, n.Right, key, k)
		}
	})
}

// RLen counts the tree's keys and calls k once with the total. The walk
// descends both children of every node with an atomic open-walk
// countdown, so continuation nesting stays O(tree height) and subtrees
// count concurrently as they materialize; whichever walk resolves last
// (on whatever scheduling context it resolves in) delivers the total.
func RLen(ctx Ctx, t NodeCell, k func(Ctx, int)) {
	st := &rlenState{k: k}
	st.open.Store(1)
	st.walk(ctx, t)
}

type rlenState struct {
	total atomic.Int64
	open  atomic.Int64 // walks started and not yet resolved at a nil edge
	k     func(Ctx, int)
}

func (st *rlenState) walk(ctx Ctx, t NodeCell) {
	t.Touch(ctx, func(ctx Ctx, n *RNode) {
		if n == nil {
			if st.open.Add(-1) == 0 {
				st.k(ctx, int(st.total.Load()))
			}
			return
		}
		st.total.Add(1)
		st.open.Add(1) // two child walks replace this one: net +1 open
		st.walk(ctx, n.Left)
		st.walk(ctx, n.Right)
	})
}
