package paralg

// Runtime-portable ports of the pipelined algorithms, written in
// continuation-passing style against the Runtime interface: every place
// the classic Config methods block a goroutine on Cell.Read, these ports
// Touch the cell and continue in the callback. On GoRuntime the two
// styles cost the same; on SchedRuntime the CPS form is what lets a
// million suspended threads share p goroutines.
//
// The algorithms are textually parallel to their Config counterparts in
// paralg.go and t26.go (same recursion structure, same depth accounting,
// same helper functions for the 2-6 key arithmetic), so the two can be
// diffed side by side. One deliberate difference: where the classic code
// builds a node after its children's cells exist, the CPS form writes
// each output node as soon as its key is decided and then fills the
// child cells — the same data, available strictly earlier, which is the
// pipelining the paper is about.

import (
	"fmt"

	"pipefut/internal/seqtreap"
	"pipefut/internal/t26"
)

// Merge merges two binary search trees with disjoint key sets (Section
// 3.1) on runtime c.R and returns the result cell immediately; nodes
// materialize concurrently. ctx follows the Fork contract (current
// worker context, or nil from outside the runtime).
func (c RConfig) Merge(ctx Ctx, a, b NodeCell) NodeCell {
	c = c.classed("paralg.RConfig.Merge")
	out := c.newNode()
	c.mergeInto(ctx, 0, a, b, out)
	return out
}

func (c RConfig) mergeInto(ctx Ctx, d int, a, b NodeCell, out NodeCell) {
	if ta, tb, ok := c.chunkArgs(a, b); ok {
		// Below-cutoff: one sequential merge, one frontier cell.
		out.Write(ctx, chunkTop(chunkMerge(ta, tb)))
		return
	}
	c.fork(ctx, d, func(ctx Ctx) {
		a.Touch(ctx, func(ctx Ctx, n1 *RNode) {
			if n1 == nil {
				b.Touch(ctx, out.Write)
				return
			}
			lt, ge := c.rsplit(ctx, d, n1.Key, b)
			nl, nr := c.newNode(), c.newNode()
			out.Write(ctx, &RNode{Key: n1.Key, Prio: n1.Prio, Left: nl, Right: nr})
			c.mergeInto(ctx, d+1, n1.Left, lt, nl)
			c.mergeInto(ctx, d+1, n1.Right, ge, nr)
		})
	})
}

// rsplit divides tree by s into keys < s and keys ≥ s with independently
// written result cells — Figure 12 in CPS form: the near-side output is
// written immediately with the recursive cell as a child, the far-side
// cell is forwarded from the recursion by a touch.
func (c RConfig) rsplit(ctx Ctx, d int, s int, tree NodeCell) (lt, ge NodeCell) {
	if t, ok := c.chunkArg(tree); ok {
		// Below-cutoff: split sequentially into two chunks, zero cells.
		l, g := chunkSplitGE(s, t)
		return chunkCell(l), chunkCell(g)
	}
	lo, ro := c.newNode(), c.newNode()
	c.fork(ctx, d, func(ctx Ctx) {
		tree.Touch(ctx, func(ctx Ctx, n *RNode) {
			if n == nil {
				lo.Write(ctx, nil)
				ro.Write(ctx, nil)
				return
			}
			if s <= n.Key {
				l1, r1 := c.rsplit(ctx, d+1, s, n.Left)
				ro.Write(ctx, &RNode{Key: n.Key, Prio: n.Prio, Left: r1, Right: n.Right})
				l1.Touch(ctx, lo.Write)
			} else {
				l1, r1 := c.rsplit(ctx, d+1, s, n.Right)
				lo.Write(ctx, &RNode{Key: n.Key, Prio: n.Prio, Left: n.Left, Right: l1})
				r1.Touch(ctx, ro.Write)
			}
		})
	})
	return lo, ro
}

// Union returns the union of two treaps, discarding duplicates (Section
// 3.2), on runtime c.R.
func (c RConfig) Union(ctx Ctx, a, b NodeCell) NodeCell {
	c = c.classed("paralg.RConfig.Union")
	out := c.newNode()
	c.unionInto(ctx, 0, a, b, out)
	return out
}

func (c RConfig) unionInto(ctx Ctx, d int, a, b NodeCell, out NodeCell) {
	if c.chunkInto(ctx, d, opUnion, a, b, out) {
		return
	}
	c.fork(ctx, d, func(ctx Ctx) {
		a.Touch(ctx, func(ctx Ctx, n1 *RNode) {
			if n1 == nil {
				b.Touch(ctx, out.Write)
				return
			}
			b.Touch(ctx, func(ctx Ctx, n2 *RNode) {
				if n2 == nil {
					out.Write(ctx, n1)
					return
				}
				hi, lo := n1, n2
				if hi.Prio < lo.Prio {
					hi, lo = lo, hi
				}
				l2, r2, _ := c.rsplitM(ctx, d, hi.Key, lo)
				nl, nr := c.newNode(), c.newNode()
				out.Write(ctx, &RNode{Key: hi.Key, Prio: hi.Prio, Left: nl, Right: nr})
				c.unionInto(ctx, d+1, hi.Left, l2, nl)
				c.unionInto(ctx, d+1, hi.Right, r2, nr)
			})
		})
	})
}

// rsplitM splits the treap rooted at the already-read node around s,
// excluding and reporting s itself if present (Union discards the
// duplicate cell; Diff and Intersect branch on it).
func (c RConfig) rsplitM(ctx Ctx, d int, s int, n *RNode) (lt, gt, dup NodeCell) {
	lo, ro, do := c.newNode(), c.newNode(), c.newNode()
	c.fork(ctx, d, func(ctx Ctx) { c.rsplitMBody(ctx, d, s, n, lo, ro, do) })
	return lo, ro, do
}

func (c RConfig) rsplitMBody(ctx Ctx, d int, s int, n *RNode, lo, ro, do NodeCell) {
	if n == nil {
		lo.Write(ctx, nil)
		ro.Write(ctx, nil)
		do.Write(ctx, nil)
		return
	}
	switch {
	case s == n.Key:
		do.Write(ctx, n)
		n.Left.Touch(ctx, lo.Write)
		n.Right.Touch(ctx, ro.Write)
	case s < n.Key:
		l1, r1, d1 := c.rsplitMCell(ctx, d+1, s, n.Left)
		ro.Write(ctx, &RNode{Key: n.Key, Prio: n.Prio, Left: r1, Right: n.Right})
		d1.Touch(ctx, do.Write)
		l1.Touch(ctx, lo.Write)
	default:
		l1, r1, d1 := c.rsplitMCell(ctx, d+1, s, n.Right)
		lo.Write(ctx, &RNode{Key: n.Key, Prio: n.Prio, Left: n.Left, Right: l1})
		d1.Touch(ctx, do.Write)
		r1.Touch(ctx, ro.Write)
	}
}

func (c RConfig) rsplitMCell(ctx Ctx, d int, s int, tree NodeCell) (lt, gt, dup NodeCell) {
	if t, ok := c.chunkArg(tree); ok {
		// Below-cutoff: the consumers only nil-test (or discard) dup, so
		// wrapping the excluded node as a chunk preserves the contract.
		l, g, du := seqtreap.SplitM(s, t)
		return chunkCell(l), chunkCell(g), chunkCell(du)
	}
	lo, ro, do := c.newNode(), c.newNode(), c.newNode()
	c.fork(ctx, d, func(ctx Ctx) {
		tree.Touch(ctx, func(ctx Ctx, n *RNode) { c.rsplitMBody(ctx, d, s, n, lo, ro, do) })
	})
	return lo, ro, do
}

// Diff returns treap a with every key of treap b removed (Section 3.3)
// on runtime c.R. Like the classic diff it cannot write an output node
// before knowing whether the node's key survives, so the write waits on
// the duplicate cell — but both child differences recurse eagerly.
func (c RConfig) Diff(ctx Ctx, a, b NodeCell) NodeCell {
	c = c.classed("paralg.RConfig.Diff")
	out := c.newNode()
	c.diffInto(ctx, 0, a, b, out)
	return out
}

func (c RConfig) diffInto(ctx Ctx, d int, a, b, out NodeCell) {
	if c.chunkInto(ctx, d, opDiff, a, b, out) {
		return
	}
	c.fork(ctx, d, func(ctx Ctx) {
		a.Touch(ctx, func(ctx Ctx, n1 *RNode) {
			if n1 == nil {
				out.Write(ctx, nil)
				return
			}
			b.Touch(ctx, func(ctx Ctx, n2 *RNode) {
				if n2 == nil {
					out.Write(ctx, n1)
					return
				}
				l2, r2, dup := c.rsplitM(ctx, d, n1.Key, n2)
				l, r := c.newNode(), c.newNode()
				c.diffInto(ctx, d+1, n1.Left, l2, l)
				c.diffInto(ctx, d+1, n1.Right, r2, r)
				dup.Touch(ctx, func(ctx Ctx, dn *RNode) {
					if dn == nil {
						out.Write(ctx, &RNode{Key: n1.Key, Prio: n1.Prio, Left: l, Right: r})
						return
					}
					c.joinInto(ctx, d, l, r, out)
				})
			})
		})
	})
}

// Intersect returns the treap of keys present in both treaps — the
// extension companion of Union and Diff, pipelined the same way.
func (c RConfig) Intersect(ctx Ctx, a, b NodeCell) NodeCell {
	c = c.classed("paralg.RConfig.Intersect")
	out := c.newNode()
	c.intersectInto(ctx, 0, a, b, out)
	return out
}

func (c RConfig) intersectInto(ctx Ctx, d int, a, b, out NodeCell) {
	if c.chunkInto(ctx, d, opIntersect, a, b, out) {
		return
	}
	c.fork(ctx, d, func(ctx Ctx) {
		a.Touch(ctx, func(ctx Ctx, n1 *RNode) {
			if n1 == nil {
				out.Write(ctx, nil)
				return
			}
			b.Touch(ctx, func(ctx Ctx, n2 *RNode) {
				if n2 == nil {
					out.Write(ctx, nil)
					return
				}
				l2, r2, dup := c.rsplitM(ctx, d, n1.Key, n2)
				l, r := c.newNode(), c.newNode()
				c.intersectInto(ctx, d+1, n1.Left, l2, l)
				c.intersectInto(ctx, d+1, n1.Right, r2, r)
				dup.Touch(ctx, func(ctx Ctx, dn *RNode) {
					if dn != nil {
						out.Write(ctx, &RNode{Key: n1.Key, Prio: n1.Prio, Left: l, Right: r})
						return
					}
					c.joinInto(ctx, d, l, r, out)
				})
			})
		})
	})
}

// setOp names the three set operations that share the chunk paths below.
type setOp uint8

const (
	opUnion setOp = iota
	opDiff
	opIntersect
)

// seq is the operation's sequential seqtreap twin.
func (op setOp) seq(a, b *seqtreap.Node) *seqtreap.Node {
	switch op {
	case opUnion:
		return seqtreap.Union(a, b)
	case opDiff:
		return seqtreap.Diff(a, b)
	}
	return seqtreap.Intersect(a, b)
}

// chunkInto is the below-cutoff front of unionInto, diffInto and
// intersectInto: it computes op(a, b) into out and reports true when a
// chunk operand lets it skip the general recursion. Two chunks run the
// sequential twin outright — treap shapes are priority-determined, so
// the result is node-for-node the tree the pipelined recursion would
// build. One chunk against a big tree (either side for the commutative
// ops, only the removed side for diff) forks once and walks just the
// big-side paths the chunk's keys touch: O(m·lg(n/m)) work, where the
// general recursion would pay a fork and cells at every level of the
// big tree, even for an empty side.
func (c RConfig) chunkInto(ctx Ctx, d int, op setOp, a, b, out NodeCell) bool {
	ta, okA := c.chunkArg(a)
	tb, okB := c.chunkArg(b)
	switch {
	case okA && okB:
		out.Write(ctx, chunkTop(op.seq(ta, tb)))
	case okB:
		c.fork(ctx, d, func(ctx Ctx) { c.smallInto(ctx, d, op, a, tb, out) })
	case okA && op != opDiff:
		c.fork(ctx, d, func(ctx Ctx) { c.smallInto(ctx, d, op, b, ta, out) })
	default:
		return false
	}
	return true
}

// smallInto computes op(big, s) into out, inline in the calling task,
// for a below-cutoff seqtreap s. At each big-side node it path-copies s
// apart at the node's key (seqtreap.SplitM) and writes the output node
// as soon as its key is decided, before its children, so the root is
// written after O(1) work and consumers pipeline behind it exactly as
// they do behind the general recursion. Only a child whose share of s
// is non-empty gets a fresh cell; otherwise the output reuses the big
// child (union, diff: nothing to add or remove there) or the empty
// chunk (intersect).
func (c RConfig) smallInto(ctx Ctx, d int, op setOp, big NodeCell, s *seqtreap.Node, out NodeCell) {
	if s == nil { // an empty chunk operand, at entry only
		if op == opIntersect {
			out.Write(ctx, nil)
		} else {
			big.Touch(ctx, out.Write)
		}
		return
	}
	if tb, ok := c.chunkArg(big); ok {
		out.Write(ctx, chunkTop(op.seq(tb, s)))
		return
	}
	big.Touch(ctx, func(ctx Ctx, n *RNode) {
		if n == nil {
			if op == opUnion {
				out.Write(ctx, chunkTop(s))
			} else {
				out.Write(ctx, nil)
			}
			return
		}
		// The output node is the big node with s split around its key —
		// or, when the chunk's root outranks it (union only), the chunk's
		// root with the big side split around it by one general step.
		key, prio, bl, br := n.Key, n.Prio, n.Left, n.Right
		var sl, sr, dup *seqtreap.Node
		if op == opUnion && s.Prio > n.Prio {
			key, prio, sl, sr = s.Key, s.Prio, s.Left, s.Right
			bl, br, _ = c.rsplitM(ctx, d, s.Key, n)
		} else {
			sl, sr, dup = seqtreap.SplitM(n.Key, s)
		}
		l, r := c.smallChild(op, bl, sl), c.smallChild(op, br, sr)
		// Union keeps every node; diff keeps the big node unless s holds
		// its key, intersect only if s does.
		keep := op == opUnion || (dup != nil) == (op == opIntersect)
		if keep {
			out.Write(ctx, &RNode{Key: key, Prio: prio, Left: l, Right: r})
		}
		if sl != nil {
			c.smallInto(ctx, d+1, op, bl, sl, l)
		}
		if sr != nil {
			c.smallInto(ctx, d+1, op, br, sr, r)
		}
		if !keep {
			c.joinInto(ctx, d, l, r, out)
		}
	})
}

// smallChild picks the output cell for a big-side child meeting its
// share s of the chunk (see smallInto).
func (c RConfig) smallChild(op setOp, big NodeCell, s *seqtreap.Node) NodeCell {
	switch {
	case s != nil:
		return c.newNode()
	case op == opIntersect:
		return emptyChunk
	}
	return big
}

// Join joins two treaps where every key of a precedes every key of b.
func (c RConfig) Join(ctx Ctx, a, b NodeCell) NodeCell {
	c = c.classed("paralg.RConfig.Join")
	out := c.newNode()
	c.fork(ctx, 0, func(ctx Ctx) { c.joinInto(ctx, 0, a, b, out) })
	return out
}

func (c RConfig) joinInto(ctx Ctx, d int, a, b, out NodeCell) {
	if ta, tb, ok := c.chunkArgs(a, b); ok {
		out.Write(ctx, chunkTop(seqtreap.Join(ta, tb)))
		return
	}
	a.Touch(ctx, func(ctx Ctx, na *RNode) {
		if na == nil {
			b.Touch(ctx, out.Write)
			return
		}
		b.Touch(ctx, func(ctx Ctx, nb *RNode) {
			if nb == nil {
				out.Write(ctx, na)
				return
			}
			c.joinNodesInto(ctx, d, na, nb, out)
		})
	})
}

// joinNodesInto is joinNodes in CPS — with the pipelining twist the
// classic form lacks: the winning root is written before the recursive
// join below it resolves, so consumers see the result's spine early.
func (c RConfig) joinNodesInto(ctx Ctx, d int, na, nb *RNode, out NodeCell) {
	if na.Prio > nb.Prio {
		right := c.newNode()
		out.Write(ctx, &RNode{Key: na.Key, Prio: na.Prio, Left: na.Left, Right: right})
		c.fork(ctx, d, func(ctx Ctx) {
			na.Right.Touch(ctx, func(ctx Ctx, r *RNode) {
				if r == nil {
					right.Write(ctx, nb) // nothing right of the seam in a: the rest is all of b
					return
				}
				c.joinNodesInto(ctx, d+1, r, nb, right)
			})
		})
		return
	}
	left := c.newNode()
	out.Write(ctx, &RNode{Key: nb.Key, Prio: nb.Prio, Left: left, Right: nb.Right})
	c.fork(ctx, d, func(ctx Ctx) {
		nb.Left.Touch(ctx, func(ctx Ctx, l *RNode) {
			if l == nil {
				left.Write(ctx, na)
				return
			}
			c.joinNodesInto(ctx, d+1, na, l, left)
		})
	})
}

// T26Insert inserts one well-separated sorted key array (Section 3.4) on
// runtime c.R and returns the new root cell immediately.
func (c RConfig) T26Insert(ctx Ctx, tree T26Cell, ws []int) T26Cell {
	c = c.classed("paralg.RConfig.T26Insert")
	out := c.newT26()
	run := func(ctx Ctx) {
		tree.Touch(ctx, func(ctx Ctx, n *RT26Node) {
			if len(ws) == 0 {
				out.Write(ctx, n)
				return
			}
			if len(n.Keys) >= t26SplitThreshold {
				l, mid, r := splitRT26Node(n)
				n = &RT26Node{Keys: []int{mid}, Kids: []T26Cell{c.R.DoneT26(l), c.R.DoneT26(r)}}
			}
			c.t26InsertInto(ctx, 0, n, ws, out)
		})
	}
	if c.SpawnDepth > 0 {
		c.R.Fork(ctx, run)
	} else {
		run(ctx)
	}
	return out
}

// T26BulkInsert pipelines the level arrays through the tree: each
// insertion starts as soon as the previous root cell is written.
func (c RConfig) T26BulkInsert(ctx Ctx, tree T26Cell, levels [][]int) T26Cell {
	c = c.classed("paralg.RConfig.T26BulkInsert")
	for _, lv := range levels {
		tree = c.T26Insert(ctx, tree, lv)
	}
	return tree
}

func splitRT26Node(n *RT26Node) (l *RT26Node, mid int, r *RT26Node) {
	m := len(n.Keys) / 2
	mid = n.Keys[m]
	l = &RT26Node{Keys: append([]int(nil), n.Keys[:m]...)}
	r = &RT26Node{Keys: append([]int(nil), n.Keys[m+1:]...)}
	if !n.IsLeaf() {
		l.Kids = append([]T26Cell(nil), n.Kids[:m+1]...)
		r.Kids = append([]T26Cell(nil), n.Kids[m+1:]...)
	}
	return l, mid, r
}

// t26InsertInto is t26InsertBody in CPS: the descending loop over
// partitions becomes a continuation chain, each child touch resuming the
// loop at the next lower index. newKeys/newKids are touched by exactly
// one continuation at a time (the chain is a single logical thread;
// the cell's write→touch edge orders the handoff), so no locking.
func (c RConfig) t26InsertInto(ctx Ctx, d int, n *RT26Node, ws []int, out T26Cell) {
	if n.IsLeaf() {
		merged := mergeUniqueKeys(n.Keys, ws)
		if len(merged) > t26.MaxKeys {
			panic(fmt.Sprintf("paralg: leaf would hold %d keys — insert array not well separated", len(merged)))
		}
		out.Write(ctx, &RT26Node{Keys: merged})
		return
	}
	parts := partitionKeys(ws, n.Keys)
	newKeys := append([]int(nil), n.Keys...)
	newKids := append([]T26Cell(nil), n.Kids...)
	var step func(ctx Ctx, i int)
	step = func(ctx Ctx, i int) {
		for ; i >= 0; i-- {
			sub := parts[i]
			if len(sub) == 0 {
				continue
			}
			i := i
			newKids[i].Touch(ctx, func(ctx Ctx, child *RT26Node) {
				if len(child.Keys) >= t26SplitThreshold {
					l, mid, r := splitRT26Node(child)
					wl, wr := splitKeysAround(sub, mid)
					nl, nr := c.R.DoneT26(l), c.R.DoneT26(r)
					if len(wl) > 0 {
						nl = c.rt26Recurse(ctx, d+1, l, wl)
					}
					if len(wr) > 0 {
						nr = c.rt26Recurse(ctx, d+1, r, wr)
					}
					newKeys = insertKeyAt(newKeys, i, mid)
					newKids[i] = nl
					newKids = insertT26CellAt(newKids, i+1, nr)
				} else {
					newKids[i] = c.rt26Recurse(ctx, d+1, child, sub)
				}
				step(ctx, i-1)
			})
			return // the loop continues inside the touch continuation
		}
		if len(newKeys) > t26.MaxKeys {
			panic(fmt.Sprintf("paralg: node would hold %d keys — invariant violated", len(newKeys)))
		}
		out.Write(ctx, &RT26Node{Keys: newKeys, Kids: newKids})
	}
	step(ctx, len(parts)-1)
}

func (c RConfig) rt26Recurse(ctx Ctx, d int, n *RT26Node, ws []int) T26Cell {
	out := c.newT26()
	c.fork(ctx, d, func(ctx Ctx) { c.t26InsertInto(ctx, d, n, ws, out) })
	return out
}

func insertT26CellAt(xs []T26Cell, i int, v T26Cell) []T26Cell {
	xs = append(xs, nil)
	copy(xs[i+1:], xs[i:])
	xs[i] = v
	return xs
}
