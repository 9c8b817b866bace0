package serve

// The Backend laws, stated once and checked on every backend against
// the sorted-slice oracle (the same helpers the DAG test oracle uses).
// Operands are drawn from every way the server comes to hold a Value —
// a FromKeys literal, a stored state grown from the empty value by
// earlier Combines, the empty value itself, a Route piece — in both
// operand positions, because with one value type any of them can meet
// any other (a set leaf on the right of a DAG operator, two set leaves).

import (
	"reflect"
	"testing"

	"pipefut/internal/paralg"
	"pipefut/internal/sched"
)

// await runs one CPS backend query as a scheduler task, the way the
// server does, and blocks for its answer.
func await[T any](rt *sched.Runtime, q func(paralg.Ctx, func(paralg.Ctx, T))) T {
	done := sched.NewCell[T](rt)
	rt.Fork(nil, func(w *sched.Worker) {
		q(w, func(ctx paralg.Ctx, v T) { done.Write(asWorker(ctx), v) })
	})
	return done.Read()
}

func TestBackendLaws(t *testing.T) {
	const universe = 96
	pivots := []int{24, 48, 72}
	for _, c := range []struct {
		backend string
		cutoff  int
	}{
		{"treap", DefaultGrainCutoff},
		{"treap", 0},
		{"t26", 0},
	} {
		t.Run(c.backend+"/cutoff="+itoa(c.cutoff), func(t *testing.T) {
			rt := paralg.NewSchedRuntime(2)
			defer rt.RT.Shutdown()
			be, err := newBackend(c.backend, paralg.RConfig{R: rt, SpawnDepth: paralg.DefaultConfig.SpawnDepth, GrainCutoff: c.cutoff})
			if err != nil {
				t.Fatal(err)
			}

			// check holds v to every single-value law: Keys is the
			// expected set, and Count, Snapshot, Contains and Ready agree
			// with it.
			check := func(name string, v Value, want []int) {
				t.Helper()
				got := be.Keys(v)
				if len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
					t.Fatalf("%s: Keys = %v, want %v", name, got, want)
				}
				if n := await(rt.RT, func(ctx paralg.Ctx, k func(paralg.Ctx, int)) { be.Count(ctx, v, k) }); n != len(want) {
					t.Errorf("%s: Count = %d, want len(Keys) = %d", name, n, len(want))
				}
				snap := await(rt.RT, func(ctx paralg.Ctx, k func(paralg.Ctx, []int)) { be.Snapshot(ctx, v, k) })
				if len(snap) != len(want) || (len(want) > 0 && !reflect.DeepEqual(snap, want)) {
					t.Errorf("%s: Snapshot = %v, want %v", name, snap, want)
				}
				in := make(map[int]bool, len(want))
				for _, k := range want {
					in[k] = true
				}
				for key := -1; key <= universe; key++ {
					if ok := await(rt.RT, func(ctx paralg.Ctx, k func(paralg.Ctx, bool)) { be.Contains(ctx, v, key, k) }); ok != in[key] {
						t.Errorf("%s: Contains(%d) = %v, want %v", name, key, ok, in[key])
					}
				}
				ready := make(chan struct{})
				be.Ready(v, func(paralg.Ctx) { close(ready) })
				<-ready
			}

			// FromKeys(nil) is a valid empty value (on the treap, with grain
			// coarsening on it is a chunk cell, off a plain written one).
			check("empty", be.FromKeys(nil, nil), nil)

			// Route: len(pivots)+1 pieces, piece i inside its pivot range,
			// concatenating to the batch.
			batch := sortedDistinct([]int{0, 3, 23, 24, 25, 47, 50, 71, 72, 90, 95})
			pieces := be.Route(nil, batch, pivots)
			if len(pieces) != len(pivots)+1 {
				t.Fatalf("Route: %d pieces, want %d", len(pieces), len(pivots)+1)
			}
			var concat []int
			for i, p := range pieces {
				ks := be.Keys(p)
				for _, k := range ks {
					if (i > 0 && k < pivots[i-1]) || (i < len(pivots) && k >= pivots[i]) {
						t.Errorf("Route: piece %d holds %d, outside its pivot range", i, k)
					}
				}
				check("piece "+itoa(i), p, pieceKeys(batch, pivots, i))
				concat = append(concat, ks...)
			}
			if !reflect.DeepEqual(concat, batch) {
				t.Errorf("Route: pieces concatenate to %v, want %v", concat, batch)
			}
			// A batch that misses shards still routes a (empty) piece to each.
			for i, p := range be.Route(nil, []int{30}, pivots) {
				check("sparse piece "+itoa(i), p, pieceKeys([]int{30}, pivots, i))
			}

			// A stored state: grown from the empty value the way a shard
			// grows — every mutation's right operand is a routed piece.
			routed := func(keys []int) Value { return be.Route(nil, keys, nil)[0] }
			storedKeys := func(seed int) []int {
				var ks []int
				for k := seed; k < universe; k += 3 {
					ks = append(ks, k)
				}
				return ks
			}
			stored := func(seed int) (Value, []int) {
				a, b, c := storedKeys(seed), sortedDistinct([]int{seed + 3, seed + 9, 80}), mergeSortedDistinct(storedKeys(seed%2), []int{seed, 95})
				v := be.Combine(nil, OpUnion, be.FromKeys(nil, nil), routed(a))
				v = be.Combine(nil, OpDifference, v, routed(b))
				v = be.Combine(nil, OpIntersect, v, routed(c))
				return v, sortedIntersect(sortedDiff(a, b), c)
			}

			type operand struct {
				name string
				v    Value
				keys []int
			}
			kinds := func(seed int) []operand {
				lit := sortedDistinct([]int{seed, seed + 1, 10, 40, 41, 77, 95})
				st, stKeys := stored(seed)
				batch := sortedDistinct([]int{seed + 2, 30, 31, 44, 47})
				return []operand{
					{"literal", be.FromKeys(nil, lit), lit},
					{"stored", st, stKeys},
					{"empty", be.FromKeys(nil, nil), nil},
					{"piece", be.Route(nil, batch, pivots)[1], pieceKeys(batch, pivots, 1)},
				}
			}
			xs, ys := kinds(1), kinds(2)
			for _, op := range []Op{OpUnion, OpDifference, OpIntersect} {
				for _, x := range xs {
					for _, y := range ys {
						check(string(op)+"("+x.name+","+y.name+")", be.Combine(nil, op, x.v, y.v), sortedCombine(op, x.keys, y.keys))
					}
				}
			}
			// Values are immutable: every operand still reads as it did.
			for _, o := range append(xs, ys...) {
				check(o.name+" after combines", o.v, o.keys)
			}
			// OpInsert is union.
			check("insert", be.Combine(nil, OpInsert, xs[1].v, ys[0].v), mergeSortedDistinct(xs[1].keys, ys[0].keys))
			rt.RT.Wait()
		})
	}
}

// TestT26ValueForms pins where the control backend grows a tree: a
// routed piece meeting a shard state (the mutation, also from an empty
// or freshly recovered slice state) — and nowhere else. A DAG operator
// over the stored set must stay sorted-slice arithmetic, or every DAG
// request would pay a tree rebuild per node.
func TestT26ValueForms(t *testing.T) {
	rt := paralg.NewSchedRuntime(2)
	defer rt.RT.Shutdown()
	be, err := newBackend("t26", paralg.RConfig{R: rt, SpawnDepth: paralg.DefaultConfig.SpawnDepth})
	if err != nil {
		t.Fatal(err)
	}
	isTree := func(v Value) bool { _, ok := v.(paralg.T26Cell); return ok }
	piece := func(keys ...int) Value { return be.Route(nil, keys, nil)[0] }

	st := be.FromKeys(nil, []int{1, 5, 9}) // a recovered snapshot
	for _, op := range []Op{OpUnion, OpDifference, OpIntersect} {
		if st = be.Combine(nil, op, st, piece(5, 6, 9)); !isTree(st) {
			t.Fatalf("%s(state, piece) is %T, want a tree", op, st)
		}
	}
	if co := be.Combine(nil, OpUnion, piece(1), piece(2)); isTree(co) {
		t.Error("coalescing two pieces grew a tree")
	} else if !isTree(be.Combine(nil, OpUnion, st, co)) {
		t.Error("a coalesced piece no longer mutates like a piece")
	}
	lit := be.FromKeys(nil, []int{5, 7})
	for _, v := range []Value{be.Combine(nil, OpUnion, st, lit), be.Combine(nil, OpDifference, lit, st), be.Combine(nil, OpIntersect, st, st)} {
		if isTree(v) {
			t.Errorf("a DAG-shaped combine grew a tree (%T)", v)
		}
	}
}
