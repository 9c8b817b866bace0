package paralg

// This file defines the runtime-portable face of the package: a small
// Runtime interface that the pipelined algorithms in port.go are written
// against, so the same algorithm text runs either on the goroutine-per-
// future runtime of package future (GoRuntime, below) or on the explicit
// work-stealing scheduler of package sched (SchedRuntime, schedrt.go).
//
// The portable style is continuation-passing: where the classic Config
// methods call Cell.Read (blocking a goroutine), the RConfig ports call
// NodeCell.Touch(ctx, k), which on the sched runtime suspends only the
// continuation k — never a goroutine. The ctx value threads the current
// scheduling context (a *sched.Worker, or nil on the Go runtime) through
// every fork and touch, mirroring how costalg threads *core.Ctx.

import (
	"pipefut/internal/future"
	"pipefut/internal/seqtreap"
	"pipefut/internal/seqtree"
	"pipefut/internal/t26"
	"pipefut/internal/verdict"
)

// Ctx is the opaque per-task scheduling context. The Go runtime ignores
// it; the sched runtime passes the current *sched.Worker so forks and
// reactivations land on the local deque. Algorithm code only threads it.
type Ctx = any

// Runtime abstracts the futures machinery an algorithm needs: forking a
// task and creating one-shot cells for tree edges.
type Runtime interface {
	// Name identifies the runtime in benchmark output.
	Name() string
	// Fork schedules f as an independent task. ctx must be the value the
	// caller's own task received (or nil from outside the runtime).
	Fork(ctx Ctx, f func(Ctx))
	// NewNode returns a fresh unwritten tree-edge cell.
	NewNode() NodeCell
	// DoneNode returns a cell already holding n.
	DoneNode(n *RNode) NodeCell
	// NewT26 returns a fresh unwritten 2-6-tree-edge cell.
	NewT26() T26Cell
	// DoneT26 returns a cell already holding n.
	DoneT26(n *RT26Node) T26Cell
}

// NodeCell is a one-shot future holding a treap/BST node.
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

// RNode is the runtime-portable analogue of Node: a BST/treap node whose
// children are NodeCells. A cell holding nil is an empty subtree.
type RNode struct {
	Key   int
	Prio  int64
	Left  NodeCell
	Right NodeCell
}

// RT26Node is the runtime-portable analogue of T26Node.
type RT26Node struct {
	Keys []int
	Kids []T26Cell // nil for leaf
}

// IsLeaf reports whether n is a leaf.
func (n *RT26Node) IsLeaf() bool { return len(n.Kids) == 0 }

// RConfig pairs a Runtime with the granularity knob, mirroring Config.
type RConfig struct {
	R Runtime
	// SpawnDepth bounds parallel recursion exactly as Config.SpawnDepth:
	// forks at recursion depth < SpawnDepth become runtime tasks, deeper
	// ones run inline in the caller.
	SpawnDepth int
	// GrainCutoff coarsens below-cutoff subtrees into chunk cells (see
	// grain.go): subtrees of at most GrainCutoff nodes are built and
	// combined by the plain sequential seqtreap code behind a single
	// born-written cell, instead of one scheduler cell per node. The
	// zero value disables coarsening. The knob is honored ONLY for
	// entry points whose sequential twins carry the manifest's seqsafe
	// proof (verdict.SeqSafeOf); other entries ignore it, failing
	// closed to the fully pipelined path.
	GrainCutoff int
	// cutoff is GrainCutoff after the seqsafe gate: non-zero only when
	// the entry point's sequential twins are proven cell-free, resolved
	// once in classed.
	cutoff int
	// gated records that classed has run on this config copy.
	gated bool
}

// classed resolves the GrainCutoff gate for the named entry point onto
// the config copy that flows through one public call: the knob is
// honored only when the verdict manifest proves the entry's below-cutoff
// sequential twins cell-free (see grain.go), and otherwise fails closed
// to the fully pipelined path. The first stamp wins, so an entry point
// calling another keeps the gate of the call the user actually made.
func (c RConfig) classed(entry string) RConfig {
	if !c.gated {
		c.gated = true
		if c.GrainCutoff > 0 && verdict.SeqSafeOf(entry) {
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
func RFromSeqTree(r Runtime, t *seqtree.Node) NodeCell {
	if t == nil {
		return r.DoneNode(nil)
	}
	return r.DoneNode(&RNode{Key: t.Key, Left: RFromSeqTree(r, t.Left), Right: RFromSeqTree(r, t.Right)})
}

// RFromSeqTreap converts a sequential treap into a materialized cell tree.
func RFromSeqTreap(r Runtime, t *seqtreap.Node) NodeCell {
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
func RFromSeqT26(r Runtime, t *t26.Node) T26Cell {
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

// --- GoRuntime ------------------------------------------------------------

// GoRuntime runs forks as goroutines and cells as future.Cell — the
// classic runtime of this package behind the portable interface. Touch
// blocks the calling goroutine on Read, so suspension costs a goroutine;
// that is exactly the cost the sched runtime removes.
type GoRuntime struct{}

// Name implements Runtime.
func (GoRuntime) Name() string { return "go" }

// Fork implements Runtime.
func (GoRuntime) Fork(_ Ctx, f func(Ctx)) { go f(nil) }

// NewNode implements Runtime.
func (GoRuntime) NewNode() NodeCell { return goNodeCell{future.New[*RNode]()} }

// DoneNode implements Runtime.
func (GoRuntime) DoneNode(n *RNode) NodeCell { return goNodeCell{future.Done(n)} }

// NewT26 implements Runtime.
func (GoRuntime) NewT26() T26Cell { return goT26Cell{future.New[*RT26Node]()} }

// DoneT26 implements Runtime.
func (GoRuntime) DoneT26(n *RT26Node) T26Cell { return goT26Cell{future.Done(n)} }

type goNodeCell struct{ c *future.Cell[*RNode] }

func (g goNodeCell) Write(_ Ctx, n *RNode)              { g.c.Write(n) }
func (g goNodeCell) Touch(ctx Ctx, k func(Ctx, *RNode)) { k(ctx, g.c.Read()) }
func (g goNodeCell) Read() *RNode                       { return g.c.Read() }

type goT26Cell struct{ c *future.Cell[*RT26Node] }

func (g goT26Cell) Write(_ Ctx, n *RT26Node)              { g.c.Write(n) }
func (g goT26Cell) Touch(ctx Ctx, k func(Ctx, *RT26Node)) { k(ctx, g.c.Read()) }
func (g goT26Cell) Read() *RT26Node                       { return g.c.Read() }
