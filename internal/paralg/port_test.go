package paralg

import (
	"sort"
	"testing"
	"testing/quick"

	"pipefut/internal/seqtreap"
	"pipefut/internal/seqtree"
	"pipefut/internal/t26"
	"pipefut/internal/workload"
)

// portSpawnDepths covers sequential, shallow, and fork-everywhere runs.
var portSpawnDepths = []int{0, 3, 64}

// withPortRuntimes runs f on a fresh 4-worker scheduler once per way of
// entering it: "go" calls the entry points from a plain goroutine (ctx
// nil, as the public Set API does), "sched" calls them from inside a
// scheduler task (ctx the task's *sched.Worker, as the serving layer
// does). enter runs one batch of calls in the chosen way and returns when
// the calls have returned — not when their results have materialized —
// so reads of the results stay outside it.
func withPortRuntimes(t *testing.T, f func(t *testing.T, r *SchedRuntime, enter func(func(Ctx)))) {
	t.Run("go", func(t *testing.T) {
		s := NewSchedRuntime(4)
		defer s.Close()
		f(t, s, func(calls func(Ctx)) { calls(nil) })
	})
	t.Run("sched", func(t *testing.T) {
		s := NewSchedRuntime(4)
		defer s.Close()
		f(t, s, func(calls func(Ctx)) {
			done := make(chan struct{})
			s.Fork(nil, func(ctx Ctx) {
				calls(ctx)
				close(done)
			})
			<-done
		})
	})
}

func TestPortMergeMatchesOracleProperty(t *testing.T) {
	withPortRuntimes(t, func(t *testing.T, r *SchedRuntime, enter func(func(Ctx))) {
		f := func(seed uint16, n8, m8, cfgPick uint8) bool {
			n, m := int(n8%100)+1, int(m8%100)+1
			rng := workload.NewRNG(uint64(seed))
			ka, kb := workload.DisjointKeySets(rng, n, m)
			sort.Ints(ka)
			sort.Ints(kb)
			t1 := seqtree.FromSortedBalanced(ka)
			t2 := seqtree.FromSortedBalanced(kb)
			want := seqtree.Merge(t1, t2)

			cfg := RConfig{R: r, SpawnDepth: portSpawnDepths[int(cfgPick)%len(portSpawnDepths)]}
			var got NodeCell
			enter(func(ctx Ctx) { got = cfg.Merge(ctx, RFromSeqTree(r, t1), RFromSeqTree(r, t2)) })
			return seqtree.Equal(RToSeqTree(got), want)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
			t.Fatal(err)
		}
	})
}

func TestPortUnionMatchesOracleProperty(t *testing.T) {
	withPortRuntimes(t, func(t *testing.T, r *SchedRuntime, enter func(func(Ctx))) {
		f := func(seed uint16, n8, m8, cfgPick uint8) bool {
			n, m := int(n8%100)+1, int(m8%100)+1
			rng := workload.NewRNG(uint64(seed))
			ka, kb := workload.OverlappingKeySets(rng, n, m, float64(cfgPick%4)/4)
			ta, tb := seqtreap.FromKeys(ka), seqtreap.FromKeys(kb)
			want := seqtreap.Union(ta, tb)

			cfg := RConfig{R: r, SpawnDepth: portSpawnDepths[int(cfgPick)%len(portSpawnDepths)]}
			var got NodeCell
			enter(func(ctx Ctx) { got = cfg.Union(ctx, RFromSeqTreap(r, ta), RFromSeqTreap(r, tb)) })
			return seqtreap.Equal(RToSeqTreap(got), want)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
			t.Fatal(err)
		}
	})
}

func TestPortT26BulkInsertMatchesOracleProperty(t *testing.T) {
	withPortRuntimes(t, func(t *testing.T, r *SchedRuntime, enter func(func(Ctx))) {
		f := func(seed uint16, n8, m8, cfgPick uint8) bool {
			n, m := int(n8%150)+1, int(m8%150)+1
			rng := workload.NewRNG(uint64(seed))
			all := workload.DistinctKeys(rng, n+m, 4*(n+m))
			base := t26.FromKeys(all[:n])
			ins := append([]int(nil), all[n:]...)
			sort.Ints(ins)
			levels := workload.WellSeparatedLevels(ins)

			cfg := RConfig{R: r, SpawnDepth: portSpawnDepths[int(cfgPick)%len(portSpawnDepths)]}
			var root T26Cell
			enter(func(ctx Ctx) { root = cfg.T26BulkInsert(ctx, RFromSeqT26(r, base), levels) })
			got := RToSeqT26(root)
			if ok, _ := t26.Check(got); !ok {
				return false
			}
			want := append([]int{}, all...)
			sort.Ints(want)
			gotKeys := t26.Keys(got)
			if len(gotKeys) != len(want) {
				return false
			}
			for i := range want {
				if gotKeys[i] != want[i] {
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
			t.Fatal(err)
		}
	})
}

// TestPortSchedSuspensionsBalance checks the runtime's books after a
// pipelined union: every suspended continuation must have been
// reactivated, and the pool must go quiescent.
func TestPortSchedSuspensionsBalance(t *testing.T) {
	s := NewSchedRuntime(4)
	defer s.Close()
	rng := workload.NewRNG(11)
	ka, kb := workload.OverlappingKeySets(rng, 3000, 3000, 0.25)
	ta, tb := seqtreap.FromKeys(ka), seqtreap.FromKeys(kb)
	want := seqtreap.Union(ta, tb)

	cfg := RConfig{R: s, SpawnDepth: 32}
	got := cfg.Union(nil, RFromSeqTreap(s, ta), RFromSeqTreap(s, tb))
	if !seqtreap.Equal(RToSeqTreap(got), want) {
		t.Fatal("union mismatch")
	}
	s.RT.Wait()
	ctr := s.RT.Counters()
	if ctr.Suspensions != ctr.Reactivations {
		t.Fatalf("suspensions=%d reactivations=%d", ctr.Suspensions, ctr.Reactivations)
	}
	if ctr.Spawns == 0 {
		t.Fatal("no tasks spawned at SpawnDepth=32")
	}
}

// TestMergesortSorts: the in-order keys of Mergesort's tree are the input
// sorted, duplicates kept, at every spawn depth.
func TestMergesortSorts(t *testing.T) {
	s := NewSchedRuntime(4)
	defer s.Close()
	f := func(seed uint16, n8 uint8, cfgPick uint8) bool {
		n := int(n8 % 200)
		rng := workload.NewRNG(uint64(seed))
		xs := make([]int, n)
		for i := range xs {
			xs[i] = rng.Intn(n/2 + 1) // about half the keys repeat
		}
		want := append([]int(nil), xs...)
		sort.Ints(want)

		cfg := RConfig{R: s, SpawnDepth: portSpawnDepths[int(cfgPick)%len(portSpawnDepths)]}
		got := seqtree.Keys(RToSeqTree(cfg.Mergesort(nil, xs)))
		if len(got) != len(want) {
			return false
		}
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestEmptyCases: every binary operation of two empty operands is empty,
// and waiting on an empty tree returns.
func TestEmptyCases(t *testing.T) {
	s := NewSchedRuntime(2)
	defer s.Close()
	cfg := RConfig{R: s, SpawnDepth: DefaultConfig.SpawnDepth}
	e := RFromSeqTreap(s, nil)
	for name, op := range map[string]func(Ctx, NodeCell, NodeCell) NodeCell{
		"Merge": cfg.Merge, "Union": cfg.Union, "Diff": cfg.Diff, "Intersect": cfg.Intersect, "Join": cfg.Join,
	} {
		if got := op(nil, e, e).Read(); got != nil {
			t.Errorf("%s of two empty trees is not empty", name)
		}
	}
	RWait(e) // must not hang
}

// TestPipelineOverlap verifies real pipelining: a union consuming the
// output of another union completes without waiting for the first to be
// fully materialized (we can only check it completes and is correct — the
// overlap itself is what makes this terminate quickly).
func TestPipelineOverlap(t *testing.T) {
	s := NewSchedRuntime(4)
	defer s.Close()
	rng := workload.NewRNG(4)
	ka := workload.DistinctKeys(rng, 2000, 100000)
	kb := workload.DistinctKeys(rng, 2000, 100000)
	kc := workload.DistinctKeys(rng, 2000, 100000)
	ta, tb, tc := seqtreap.FromKeys(ka), seqtreap.FromKeys(kb), seqtreap.FromKeys(kc)

	cfg := RConfig{R: s, SpawnDepth: 10}
	// (A ∪ B) ∪ C where the second union starts immediately on the
	// still-materializing first result.
	u1 := cfg.Union(nil, RFromSeqTreap(s, ta), RFromSeqTreap(s, tb))
	u2 := cfg.Union(nil, u1, RFromSeqTreap(s, tc))
	want := seqtreap.Union(seqtreap.Union(ta, tb), tc)
	if !seqtreap.Equal(RToSeqTreap(u2), want) {
		t.Fatal("chained unions differ from oracle")
	}
}

// TestWaitBlocksUntilComplete: after RWait returns, every cell of the
// tree is written.
func TestWaitBlocksUntilComplete(t *testing.T) {
	s := NewSchedRuntime(4)
	defer s.Close()
	rng := workload.NewRNG(5)
	ka, kb := workload.DisjointKeySets(rng, 3000, 3000)
	sort.Ints(ka)
	sort.Ints(kb)
	cfg := RConfig{R: s, SpawnDepth: DefaultConfig.SpawnDepth}
	got := cfg.Merge(nil,
		RFromSeqTree(s, seqtree.FromSortedBalanced(ka)),
		RFromSeqTree(s, seqtree.FromSortedBalanced(kb)))
	RWait(got)
	var walk func(tr NodeCell) int
	walk = func(tr NodeCell) int {
		n, ok := tr.(schedNodeCell).c.TryRead()
		if !ok {
			t.Fatal("cell not written after RWait")
		}
		if n == nil {
			return 0
		}
		return 1 + walk(n.Left) + walk(n.Right)
	}
	if walk(got) != 6000 {
		t.Fatal("wrong size")
	}
}

// TestBuildTreapRootAvailableEarly: the root and search paths of an
// asynchronously built treap are readable while construction continues.
func TestBuildTreapRootAvailableEarly(t *testing.T) {
	s := NewSchedRuntime(4)
	defer s.Close()
	rng := workload.NewRNG(3)
	keys := workload.DistinctKeys(rng, 50000, 1<<20)
	tr := RConfig{R: s, SpawnDepth: 10}.BuildTreap(nil, keys)
	if tr.Read() == nil {
		t.Fatal("empty root")
	}
	found := 0
	for _, k := range keys[:100] {
		cur := tr
		for {
			c := cur.Read()
			if c == nil {
				break
			}
			if c.Key == k {
				found++
				break
			}
			if k < c.Key {
				cur = c.Left
			} else {
				cur = c.Right
			}
		}
	}
	if found != 100 {
		t.Fatalf("found %d of 100 keys during construction", found)
	}
}

// TestT26InsertEmptyArray: inserting no keys — an empty array, or no
// arrays at all — leaves the tree unchanged.
func TestT26InsertEmptyArray(t *testing.T) {
	s := NewSchedRuntime(2)
	defer s.Close()
	cfg := RConfig{R: s, SpawnDepth: DefaultConfig.SpawnDepth}
	base := t26.FromKeys([]int{1, 2, 3})
	if t26.Size(RToSeqT26(cfg.T26Insert(nil, RFromSeqT26(s, base), nil))) != 3 {
		t.Error("empty-array insert changed the tree")
	}
	if t26.Size(RToSeqT26(cfg.T26BulkInsert(nil, RFromSeqT26(s, base), nil))) != 3 {
		t.Error("bulk insert of no arrays changed the tree")
	}
}

// TestT26PipelinedWavesOverlapSafely: a large bulk insertion forking
// everywhere, so many waves are in flight at once.
func TestT26PipelinedWavesOverlapSafely(t *testing.T) {
	s := NewSchedRuntime(4)
	defer s.Close()
	rng := workload.NewRNG(9)
	all := workload.DistinctKeys(rng, 20000, 1<<20)
	base := t26.FromKeys(all[:10000])
	ins := append([]int(nil), all[10000:]...)
	sort.Ints(ins)
	cfg := RConfig{R: s, SpawnDepth: 32}
	got := cfg.T26BulkInsert(nil, RFromSeqT26(s, base), workload.WellSeparatedLevels(ins))
	RWaitT26(got)
	res := RToSeqT26(got)
	if ok, why := t26.Check(res); !ok {
		t.Fatal(why)
	}
	if t26.Size(res) != 20000 {
		t.Fatalf("size = %d", t26.Size(res))
	}
}
