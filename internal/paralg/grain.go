package paralg

// Grain coarsening: below-cutoff subtrees as CHUNK cells instead of
// cell-per-node trees. The X-SERVE benchmark's headline gap is cell
// count — every treap node access is a sched cell round-trip, ~500
// cells for one 32-key union — and most of those cells sit in subtrees
// so small that pipelining them buys nothing. A chunk cell wraps a
// plain (persistent, immutable) seqtreap subtree behind the NodeCell
// interface with ZERO scheduler cells: it is born written, its Touch
// runs the continuation inline, and it expands to RNode form lazily,
// one node at a time, only if a pipelined consumer actually walks it.
//
// The entry-point fast paths below-cutoff (see port.go, batch.go,
// split.go) recognize chunk operands and run the sequential seqtreap
// twin of the whole operation, producing a new chunk — a single
// frontier cell per coarsened subtree where the pipelined path would
// allocate one cell per node. A chunk against a big tree takes the
// one-sided path (chunkInto in port.go): the chunk is path-copied apart
// along the big tree, with cells only where its keys land.
//
// Sequential-twin safety is a STATIC verdict: RConfig.GrainCutoff is
// honored only for entry points whose twins the cellcost analysis
// proved cell-free (the seqSafe table in runtime.go, a copy of manifest
// section cell_budget.seqsafe); everything else fails closed to the
// pipelined path. internal/verifycross re-proves the claim dynamically
// (zero cells below cutoff, budgets respected above).
//
// Chunk cells never suspend a continuation (nothing is ever pending on
// a born-written cell), and the lazy expansion race is benign — RNodes
// are immutable, seqtreap subtrees are shared persistently, and a CAS
// loser's node is discarded before anyone sees it.

import (
	"sync/atomic"

	"pipefut/internal/seqtreap"
)

// chunk is the shared box behind one chunk cell: the wrapped subtree
// and the memoized one-level expansion.
type chunk struct {
	t    *seqtreap.Node
	node atomic.Pointer[RNode]
}

// chunkNodeCell adapts a chunk to NodeCell. Like the wrappers in
// schedrt.go it is a concrete single-pointer struct, so converting it
// to the interface allocates nothing.
type chunkNodeCell struct{ ch *chunk }

// chunkCell wraps a (possibly nil) seqtreap subtree as a born-written
// NodeCell. No scheduler cell is allocated, now or ever.
func chunkCell(t *seqtreap.Node) chunkNodeCell { return chunkNodeCell{&chunk{t: t}} }

// emptyChunk is one shared empty subtree: an empty chunk never memoizes
// an expansion, so nothing about it is ever written.
var emptyChunk = chunkCell(nil)

// expand materializes the chunk's root as an RNode with chunk children,
// memoized so repeated touches share one spine. Racing expanders CAS;
// the loser's node is garbage nobody observed.
func (c chunkNodeCell) expand() *RNode {
	ch := c.ch
	if ch.t == nil {
		return nil
	}
	if n := ch.node.Load(); n != nil {
		return n
	}
	t := ch.t
	n := &RNode{Key: t.Key, Prio: t.Prio, Left: chunkCell(t.Left), Right: chunkCell(t.Right)}
	if ch.node.CompareAndSwap(nil, n) {
		return n
	}
	return ch.node.Load()
}

// Write implements NodeCell. A chunk cell is born written; a second
// write is the same single-assignment violation it is on every cell.
func (c chunkNodeCell) Write(Ctx, *RNode) {
	panic("paralg: write of a chunk cell (born written)")
}

// Touch implements NodeCell: always inline, never a suspension.
func (c chunkNodeCell) Touch(ctx Ctx, k func(Ctx, *RNode)) { k(ctx, c.expand()) }

// Read implements NodeCell.
func (c chunkNodeCell) Read() *RNode { return c.expand() }

// chunkTop is expand without the wrapper: the root RNode (nil for an
// empty subtree) whose children are chunk cells. Entry-point fast paths
// use it to write a sequential result into a real frontier cell.
func chunkTop(t *seqtreap.Node) *RNode {
	if t == nil {
		return nil
	}
	return &RNode{Key: t.Key, Prio: t.Prio, Left: chunkCell(t.Left), Right: chunkCell(t.Right)}
}

// sizeUpTo returns cap minus t's node count, or -1 as soon as t proves
// larger than cap — an early-exit walk, so the per-entry size check
// costs O(cutoff), not O(n).
func sizeUpTo(t *seqtreap.Node, cap int) int {
	if t == nil {
		return cap
	}
	if cap <= 0 {
		return -1
	}
	cap = sizeUpTo(t.Left, cap-1)
	if cap < 0 {
		return -1
	}
	return sizeUpTo(t.Right, cap)
}

// chunkArg returns the seqtreap subtree behind a below-cutoff chunk
// operand. It fails (routing the caller to the pipelined path) when the
// cutoff is off for this entry point, when the operand is not a chunk,
// or when the chunk is too big to swallow sequentially — a big chunk
// instead decomposes lazily through Touch until its subtrees fit.
func (c RConfig) chunkArg(t NodeCell) (*seqtreap.Node, bool) {
	if c.cutoff <= 0 {
		return nil, false
	}
	cc, ok := t.(chunkNodeCell)
	if !ok {
		return nil, false
	}
	if sizeUpTo(cc.ch.t, c.cutoff) < 0 {
		return nil, false
	}
	return cc.ch.t, true
}

// chunkArgs is chunkArg over both operands of a binary set operation.
func (c RConfig) chunkArgs(a, b NodeCell) (ta, tb *seqtreap.Node, ok bool) {
	if ta, ok = c.chunkArg(a); !ok {
		return nil, nil, false
	}
	if tb, ok = c.chunkArg(b); !ok {
		return nil, nil, false
	}
	return ta, tb, true
}

// chunkSplitGE is rsplit's sequential twin, shape-identical by the same
// case analysis (s <= key descends left and keeps the node on the
// ≥-side): keys < s and keys ≥ s, path-copying like every seqtreap op.
func chunkSplitGE(s int, t *seqtreap.Node) (lt, ge *seqtreap.Node) {
	if t == nil {
		return nil, nil
	}
	if s <= t.Key {
		l1, r1 := chunkSplitGE(s, t.Left)
		return l1, &seqtreap.Node{Key: t.Key, Prio: t.Prio, Left: r1, Right: t.Right}
	}
	l1, r1 := chunkSplitGE(s, t.Right)
	return &seqtreap.Node{Key: t.Key, Prio: t.Prio, Left: t.Left, Right: l1}, r1
}

// chunkMerge is mergeInto's sequential twin, shape-identical by the
// same recursion (a's structure on top, b split in): disjoint-key BST
// merge, Section 3.1.
func chunkMerge(a, b *seqtreap.Node) *seqtreap.Node {
	if a == nil {
		return b
	}
	lt, ge := chunkSplitGE(a.Key, b)
	return &seqtreap.Node{
		Key:   a.Key,
		Prio:  a.Prio,
		Left:  chunkMerge(a.Left, lt),
		Right: chunkMerge(a.Right, ge),
	}
}
