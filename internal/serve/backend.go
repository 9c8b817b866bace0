package serve

// Backend abstracts the per-shard set store behind the server, so the
// same sharded router, admission controller, and consistent-cut
// machinery can serve more than one data structure. It has one value
// type and one binary operation: a stored shard state, a mutation's
// routed piece, a recovered record and a DAG intermediate are all a
// Value, and coalescing, mutating, replaying and evaluating a DAG node
// are all Combine. Two backends ship:
//
//   - treap: the pipelined persistent treap of internal/paralg. Combine
//     only *starts* the tree operation and returns the new root cell;
//     materialization rides the scheduler behind the published root, so
//     a burst of mutations — or the operator stages of one DAG request —
//     becomes one deep pipeline (the paper's claim, served).
//   - t26: the 2-6 tree of paralg.RConfig.T26BulkInsert. Each insertion
//     run pipelines its level arrays internally, but Combine blocks
//     until the run's tree fully materializes before returning — no
//     pipelining across batches. It is the control group: same API,
//     same scheduler, no cross-batch future graph.
//
// The serve bench experiment reports the two backends' throughput side
// by side per (load, p, shards); the difference is what the treap's
// implicit pipelining buys.

import (
	"fmt"
	"sort"

	"pipefut/internal/paralg"
	"pipefut/internal/t26"
	"pipefut/internal/workload"
)

// Value is a backend-private immutable set: a stored shard state, a
// routed mutation piece, a literal, and a DAG intermediate are all the
// same thing — for the treap a root cell that may not have materialized
// yet. The server publishes (Value, version) pairs; queries run against
// a Value without interference from later mutations.
type Value any

// Backend is the per-shard store interface. Implementations must be safe
// for concurrent use: FromKeys, Route and Combine run on client
// goroutines (routing, DAG lowering) and shard applier goroutines
// (coalescing, mutations), queries on scheduler workers. Key slices
// handed in are sorted, distinct, and the caller's: implementations may
// alias them but must not write to them.
type Backend interface {
	// Name identifies the backend in metrics and benchmark output.
	Name() string
	// FromKeys lifts a key set into a value; FromKeys(nil) is the empty
	// shard's state. The treap build pipelines, so recovery and literal
	// DAG leaves are consumed before they materialize.
	FromKeys(ctx paralg.Ctx, keys []int) Value
	// Route splits one batch into per-shard values at the router's
	// ascending shard pivots: len(pivots)+1 pieces, piece i inside
	// [pivots[i-1], pivots[i]), concatenating to the batch.
	Route(ctx paralg.Ctx, keys []int, pivots []int) []Value
	// Combine applies union (OpInsert is an alias), difference or
	// intersect to two values. It is every binary step the server takes:
	// coalescing adjacent pieces (union, following (A∪B1)∪B2 = A∪(B1∪B2)
	// and (A\B1)\B2 = A\(B1∪B2); intersects never coalesce), a mutation
	// (shard state against the coalesced piece), recovery replay, and a
	// DAG operator node. The treap backend returns immediately
	// (pipelined: the result root is consumable before either operand
	// materializes); the t26 backend returns only materialized values.
	Combine(ctx paralg.Ctx, op Op, a, b Value) Value
	// Ready invokes k once v is published enough to answer queries —
	// for the treap, when the root cell is written (well before the tree
	// materializes); for t26, immediately.
	Ready(v Value, k func(paralg.Ctx))
	// Contains reports key's membership in v through continuation k.
	Contains(ctx paralg.Ctx, v Value, key int, k func(paralg.Ctx, bool))
	// Count reports v's cardinality through continuation k, suspending
	// (never blocking) on unmaterialized parts.
	Count(ctx paralg.Ctx, v Value, k func(paralg.Ctx, int))
	// Keys returns v's contents in ascending order, blocking until it
	// fully materializes. Verification path, external callers only.
	Keys(v Value) []int
	// Snapshot reports v's full sorted key set through continuation k,
	// suspending (never blocking) on parts of v that have not
	// materialized — the durability layer's background snapshot walk.
	Snapshot(ctx paralg.Ctx, v Value, k func(paralg.Ctx, []int))
}

// newBackend resolves a backend name ("" defaults to treap).
func newBackend(name string, pc paralg.RConfig) (Backend, error) {
	switch name {
	case "", "treap":
		return treapBackend{pc: pc}, nil
	case "t26":
		// Grain coarsening targets the treap's one-cell-per-node cost;
		// the t26 entries carry no seqsafe proof, so the knob could
		// never fire here — zero it to keep the config honest.
		pc.GrainCutoff = 0
		return t26Backend{pc: pc}, nil
	default:
		return nil, fmt.Errorf("serve: unknown backend %q (want treap or t26)", name)
	}
}

// ---- treap backend -------------------------------------------------------

// treapBackend's values are all paralg.NodeCell: the stored root — possibly
// still materializing behind an earlier mutation — *is* the DAG value,
// which is exactly the published-before-materialized contract:
// downstream combines start splitting against it immediately.
type treapBackend struct{ pc paralg.RConfig }

func (b treapBackend) Name() string { return "treap" }

func (b treapBackend) FromKeys(ctx paralg.Ctx, keys []int) Value {
	return b.pc.BuildTreap(ctx, keys)
}

// Route builds one operand treap over the whole batch and splits it at
// the shard pivots (paralg.SplitRanges), so the per-shard pieces share
// the build's pipelined work and materialize concurrently while each
// shard's pipeline is already consuming them.
func (b treapBackend) Route(ctx paralg.Ctx, keys []int, pivots []int) []Value {
	pieces := b.pc.SplitRanges(ctx, b.pc.BuildTreap(ctx, keys), pivots)
	out := make([]Value, len(pieces))
	for i, piece := range pieces {
		out[i] = piece
	}
	return out
}

func (b treapBackend) Combine(ctx paralg.Ctx, op Op, x, y Value) Value {
	l, r := x.(paralg.NodeCell), y.(paralg.NodeCell)
	switch op {
	case OpUnion, OpInsert:
		return b.pc.Union(ctx, l, r)
	case OpDifference:
		return b.pc.Diff(ctx, l, r)
	case OpIntersect:
		return b.pc.Intersect(ctx, l, r)
	}
	panic("serve: treap backend: unknown op " + string(op))
}

func (b treapBackend) Ready(v Value, k func(paralg.Ctx)) {
	v.(paralg.NodeCell).Touch(nil, func(ctx paralg.Ctx, _ *paralg.RNode) { k(ctx) })
}

func (b treapBackend) Contains(ctx paralg.Ctx, v Value, key int, k func(paralg.Ctx, bool)) {
	paralg.RContains(ctx, v.(paralg.NodeCell), key, k)
}

func (b treapBackend) Count(ctx paralg.Ctx, v Value, k func(paralg.Ctx, int)) {
	paralg.RLen(ctx, v.(paralg.NodeCell), k)
}

func (b treapBackend) Snapshot(ctx paralg.Ctx, v Value, k func(paralg.Ctx, []int)) {
	paralg.RSnapshotKeys(ctx, v.(paralg.NodeCell), k)
}

func (b treapBackend) Keys(v Value) []int {
	return treapAppendKeys(v.(paralg.NodeCell), nil)
}

func treapAppendKeys(t paralg.NodeCell, out []int) []int {
	n := t.Read()
	if n == nil {
		return out
	}
	out = treapAppendKeys(n.Left, out)
	out = append(out, n.Key)
	return treapAppendKeys(n.Right, out)
}

// ---- t26 backend ---------------------------------------------------------

// t26Backend keeps two value forms, both always materialized: a 2-6
// tree (paralg.T26Cell) and a plain sorted key slice. A tree is grown
// in exactly one place — where a routed piece meets a value that is not
// one, which is what a mutation is — so shard states are trees from
// their first mutation on (the empty shard and a freshly recovered one
// are still the slices FromKeys made them). Every other combination is
// sorted-slice arithmetic: coalescing two pieces, replaying a record
// into a recovered state, and every DAG node — an operator applied to
// the stored set reads the tree's keys once and never rebuilds it.
type t26Backend struct{ pc paralg.RConfig }

// t26Piece is a routed mutation piece: a sorted slice like any literal,
// typed so that Combine can tell the mutation (grow a tree) from a DAG
// operator over a literal (don't).
type t26Piece []int

func (b t26Backend) Name() string { return "t26" }

func (b t26Backend) FromKeys(_ paralg.Ctx, keys []int) Value { return keys }

// Route slices the sorted batch at the shard pivots; t26 pieces stay
// plain sorted key arrays (the level decomposition happens at combine
// time, against the tree the run actually meets).
func (b t26Backend) Route(_ paralg.Ctx, keys []int, pivots []int) []Value {
	out := make([]Value, len(pivots)+1)
	for i := range out {
		out[i] = t26Piece(pieceKeys(keys, pivots, i))
	}
	return out
}

func (b t26Backend) Combine(ctx paralg.Ctx, op Op, x, y Value) Value {
	_, coalescing := x.(t26Piece)
	if piece, mutation := y.(t26Piece); mutation && !coalescing {
		return b.mutate(ctx, op, x, piece)
	}
	out := sortedCombine(op, t26Keys(x), t26Keys(y))
	if coalescing {
		return t26Piece(out)
	}
	return out
}

// mutate applies one coalesced piece to a shard state and returns the
// next state's tree.
func (b t26Backend) mutate(ctx paralg.Ctx, op Op, state Value, keys []int) Value {
	root, ok := state.(paralg.T26Cell)
	if !ok {
		root = paralg.RFromSeqT26(b.pc.R, t26.FromKeys(t26Keys(state)))
	}
	switch op {
	case OpUnion, OpInsert:
		// The run's level arrays pipeline through the tree, but the batch
		// as a whole is a barrier: wait for full materialization before
		// handing the state back, so the next run cannot overlap it.
		next := b.pc.T26BulkInsert(ctx, root, workload.WellSeparatedLevels(keys))
		paralg.RWaitT26(next)
		return next
	case OpDifference:
		return paralg.RFromSeqT26(b.pc.R, t26.DeleteAll(paralg.RToSeqT26(root), keys))
	case OpIntersect:
		return paralg.RFromSeqT26(b.pc.R, t26.FromKeys(sortedIntersect(t26AppendKeys(root, nil), keys)))
	}
	panic("serve: t26 backend: unknown op " + string(op))
}

// Ready is immediate: Combine already materialized the value.
func (b t26Backend) Ready(_ Value, k func(paralg.Ctx)) { k(nil) }

func (b t26Backend) Contains(ctx paralg.Ctx, v Value, key int, k func(paralg.Ctx, bool)) {
	if c, ok := v.(paralg.T26Cell); ok {
		t26ContainsCPS(ctx, c, key, k)
		return
	}
	keys := t26Keys(v)
	i := sort.SearchInts(keys, key)
	k(ctx, i < len(keys) && keys[i] == key)
}

func t26ContainsCPS(ctx paralg.Ctx, c paralg.T26Cell, key int, k func(paralg.Ctx, bool)) {
	c.Touch(ctx, func(ctx paralg.Ctx, n *paralg.RT26Node) {
		i := sort.SearchInts(n.Keys, key)
		if i < len(n.Keys) && n.Keys[i] == key {
			k(ctx, true)
			return
		}
		if n.IsLeaf() {
			k(ctx, false)
			return
		}
		t26ContainsCPS(ctx, n.Kids[i], key, k)
	})
}

// Count, Keys and Snapshot never suspend: every t26 value is
// materialized before anyone holds it.
func (b t26Backend) Count(ctx paralg.Ctx, v Value, k func(paralg.Ctx, int)) {
	if c, ok := v.(paralg.T26Cell); ok {
		k(ctx, t26Count(c))
		return
	}
	k(ctx, len(t26Keys(v)))
}

func t26Count(c paralg.T26Cell) int {
	n := c.Read()
	total := len(n.Keys)
	for _, kid := range n.Kids {
		total += t26Count(kid)
	}
	return total
}

func (b t26Backend) Snapshot(ctx paralg.Ctx, v Value, k func(paralg.Ctx, []int)) {
	k(ctx, t26Keys(v))
}

func (b t26Backend) Keys(v Value) []int { return t26Keys(v) }

// t26Keys reads any value form as its sorted key slice.
func t26Keys(v Value) []int {
	switch v := v.(type) {
	case paralg.T26Cell:
		return t26AppendKeys(v, nil)
	case t26Piece:
		return v
	}
	return v.([]int)
}

func t26AppendKeys(c paralg.T26Cell, out []int) []int {
	n := c.Read()
	if n.IsLeaf() {
		return append(out, n.Keys...)
	}
	for i, kid := range n.Kids {
		out = t26AppendKeys(kid, out)
		if i < len(n.Keys) {
			out = append(out, n.Keys[i])
		}
	}
	return out
}

// ---- sorted-array helpers ------------------------------------------------

// sortedCombine is the set algebra on sorted distinct slices — t26's
// arithmetic and the tests' oracle.
func sortedCombine(op Op, a, b []int) []int {
	switch op {
	case OpUnion, OpInsert:
		return mergeSortedDistinct(a, b)
	case OpDifference:
		return sortedDiff(a, b)
	case OpIntersect:
		return sortedIntersect(a, b)
	}
	panic("serve: unknown op " + string(op))
}

func mergeSortedDistinct(a, b []int) []int {
	out := make([]int, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			out = append(out, a[i])
			i++
		case a[i] > b[j]:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	out = append(out, a[i:]...)
	return append(out, b[j:]...)
}

func sortedDiff(a, b []int) []int {
	var out []int
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			out = append(out, a[i])
			i++
		case a[i] > b[j]:
			j++
		default:
			i++
			j++
		}
	}
	return append(out, a[i:]...)
}

func sortedIntersect(a, b []int) []int {
	var out []int
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}
