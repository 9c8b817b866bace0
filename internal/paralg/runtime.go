// Package paralg runs the paper's algorithms for real, on the
// work-stealing scheduler of package sched (SchedRuntime, schedrt.go):
// every tree edge is a one-shot cell, so partially built trees flow
// between pipeline stages exactly as in the cost model, and the scheduler
// plays the runtime of Section 4 — touching an unwritten cell suspends
// only the touching continuation, and the write reactivates it.
//
// The algorithms (port.go, batch.go, split.go) are written in
// continuation-passing style: where straight-line future code would block
// on a read, they call NodeCell.Touch(ctx, k) and continue in k. The ctx
// value threads the current scheduling context (the *sched.Worker running
// the task, or nil from outside the runtime) through every fork and
// touch, mirroring how costalg threads *core.Ctx.
//
// Unbounded forking would drown the asymptotics in task overhead, so
// every algorithm takes an RConfig with a SpawnDepth: forks above that
// recursion depth become scheduler tasks, deeper ones run inline in the
// caller. SpawnDepth is the grain-size ablation knob of the A-GRAIN
// experiment.
package paralg

import (
	"pipefut/internal/seqtreap"
	"pipefut/internal/seqtree"
	"pipefut/internal/t26"
)

// Ctx is the opaque per-task scheduling context: the current
// *sched.Worker, so forks and reactivations land on the local deque, or
// nil (or an AffineCtx hint) from outside the runtime. Algorithm code
// only threads it.
type Ctx = any

// NodeCell is a one-shot future holding a treap/BST node. Scheduler cells
// and the born-written chunk cells of grain.go both implement it.
type NodeCell interface {
	// Write resolves the cell. Writing twice panics.
	Write(ctx Ctx, n *RNode)
	// Touch runs k(ctx', n) once the cell is written: immediately when it
	// already is, otherwise by suspending k until the write.
	Touch(ctx Ctx, k func(Ctx, *RNode))
	// Read blocks until the cell is written. Call it only from outside
	// the runtime's workers (tests, converters, benchmarks).
	Read() *RNode
}

// T26Cell is a one-shot future holding a 2-6 tree node.
type T26Cell interface {
	Write(ctx Ctx, n *RT26Node)
	Touch(ctx Ctx, k func(Ctx, *RT26Node))
	Read() *RT26Node
}

// RNode is a BST/treap node whose children are NodeCells. A cell holding
// nil is an empty subtree.
type RNode struct {
	Key   int
	Prio  int64
	Left  NodeCell
	Right NodeCell
}

// RT26Node is a 2-6 tree node whose children are T26Cells — the Section
// 3.4 structure executed for real: the root of each insertion's result is
// written as soon as its key structure is decided, so the next
// well-separated key array starts descending while the previous one is
// still working its way down.
type RT26Node struct {
	Keys []int
	Kids []T26Cell // nil for leaf
}

// IsLeaf reports whether n is a leaf.
func (n *RT26Node) IsLeaf() bool { return len(n.Kids) == 0 }

// RConfig pairs a scheduler with the granularity knobs.
type RConfig struct {
	// R is the scheduler the algorithms fork onto and allocate cells on.
	R *SchedRuntime
	// SpawnDepth bounds parallel recursion: forks at recursion depth <
	// SpawnDepth become runtime tasks, deeper ones run inline in the
	// caller. 0 makes every algorithm sequential; 64 is effectively
	// unbounded for laptop-scale inputs.
	SpawnDepth int
	// GrainCutoff coarsens below-cutoff subtrees into chunk cells (see
	// grain.go): subtrees of at most GrainCutoff nodes are built and
	// combined by the plain sequential seqtreap code behind a single
	// born-written cell, instead of one scheduler cell per node. The
	// zero value disables coarsening. The knob is honored ONLY for
	// entry points whose sequential twins carry the manifest's seqsafe
	// proof (the seqSafe table); other entries ignore it, failing
	// closed to the fully pipelined path.
	GrainCutoff int
	// cutoff is GrainCutoff after the seqsafe gate: non-zero only when
	// the entry point's sequential twins are proven cell-free, resolved
	// once in classed.
	cutoff int
	// gated records that classed has run on this config copy.
	gated bool
}

// DefaultConfig spawns down to recursion depth 14 (≈16k-way parallelism at
// the frontier), a good default for the benchmarks in this repository.
// Set R before use.
var DefaultConfig = RConfig{SpawnDepth: 14}

// seqSafe is the set of entry points whose below-cutoff sequential twins
// the verdict manifest (internal/verdict/verdicts.json, section
// cell_budget.seqsafe) proves cell-free. It is a copy so that the
// serving binary does not link the analyzer that writes the proof;
// internal/verdict's TestSeqSafeTable fails when the two differ.
var seqSafe = map[string]bool{
	"paralg.RConfig.BuildTreap":  true,
	"paralg.RConfig.DeleteKeys":  true,
	"paralg.RConfig.Diff":        true,
	"paralg.RConfig.InsertKeys":  true,
	"paralg.RConfig.Intersect":   true,
	"paralg.RConfig.Join":        true,
	"paralg.RConfig.Merge":       true,
	"paralg.RConfig.Split":       true,
	"paralg.RConfig.SplitRanges": true,
	"paralg.RConfig.Union":       true,
}

// classed resolves the GrainCutoff gate for the named entry point onto
// the config copy that flows through one public call: the knob is
// honored only when the verdict manifest proves the entry's below-cutoff
// sequential twins cell-free (seqSafe, see grain.go), and otherwise
// fails closed to the fully pipelined path. The first stamp wins, so an
// entry point calling another keeps the gate of the call the user
// actually made.
func (c RConfig) classed(entry string) RConfig {
	if !c.gated {
		c.gated = true
		if c.GrainCutoff > 0 && seqSafe[entry] {
			c.cutoff = c.GrainCutoff
		}
	}
	return c
}

// fork runs f as a task when the depth is above the grain, else inline.
func (c RConfig) fork(ctx Ctx, d int, f func(Ctx)) {
	if d < c.SpawnDepth {
		c.R.Fork(ctx, f)
		return
	}
	f(ctx)
}

// --- converters -----------------------------------------------------------

// RFromSeqTree converts a sequential BST into a materialized cell tree.
func RFromSeqTree(r *SchedRuntime, t *seqtree.Node) NodeCell {
	if t == nil {
		return r.DoneNode(nil)
	}
	return r.DoneNode(&RNode{Key: t.Key, Left: RFromSeqTree(r, t.Left), Right: RFromSeqTree(r, t.Right)})
}

// RFromSeqTreap converts a sequential treap into a materialized cell tree.
func RFromSeqTreap(r *SchedRuntime, t *seqtreap.Node) NodeCell {
	if t == nil {
		return r.DoneNode(nil)
	}
	return r.DoneNode(&RNode{Key: t.Key, Prio: t.Prio, Left: RFromSeqTreap(r, t.Left), Right: RFromSeqTreap(r, t.Right)})
}

// RToSeqTree reads the whole tree (blocking until complete) back into a
// sequential BST. External callers only.
func RToSeqTree(t NodeCell) *seqtree.Node {
	n := t.Read()
	if n == nil {
		return nil
	}
	return &seqtree.Node{Key: n.Key, Left: RToSeqTree(n.Left), Right: RToSeqTree(n.Right)}
}

// RToSeqTreap reads the whole tree back into a sequential treap.
func RToSeqTreap(t NodeCell) *seqtreap.Node {
	n := t.Read()
	if n == nil {
		return nil
	}
	return &seqtreap.Node{Key: n.Key, Prio: n.Prio, Left: RToSeqTreap(n.Left), Right: RToSeqTreap(n.Right)}
}

// RWait blocks until every cell of the tree is written — the barrier the
// benchmarks time. External callers only.
func RWait(t NodeCell) {
	n := t.Read()
	if n == nil {
		return
	}
	RWait(n.Left)
	RWait(n.Right)
}

// RFromSeqT26 converts a sequential 2-6 tree into a materialized cell tree.
func RFromSeqT26(r *SchedRuntime, t *t26.Node) T26Cell {
	n := &RT26Node{Keys: append([]int(nil), t.Keys...)}
	for _, kid := range t.Kids {
		n.Kids = append(n.Kids, RFromSeqT26(r, kid))
	}
	return r.DoneT26(n)
}

// RToSeqT26 reads the whole tree back (blocking until complete).
func RToSeqT26(t T26Cell) *t26.Node {
	n := t.Read()
	out := &t26.Node{Keys: append([]int(nil), n.Keys...)}
	for _, kid := range n.Kids {
		out.Kids = append(out.Kids, RToSeqT26(kid))
	}
	return out
}

// RWaitT26 blocks until every cell of the tree is written.
func RWaitT26(t T26Cell) {
	n := t.Read()
	for _, kid := range n.Kids {
		RWaitT26(kid)
	}
}
