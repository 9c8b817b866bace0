package paralg

import (
	"sort"
	"sync/atomic"
	"testing"
	"testing/quick"

	"pipefut/internal/seqtreap"
	"pipefut/internal/workload"
)

func TestPortDiffMatchesOracleProperty(t *testing.T) {
	withPortRuntimes(t, func(t *testing.T, r *SchedRuntime, enter func(func(Ctx))) {
		f := func(seed uint16, n8, m8, cfgPick uint8) bool {
			n, m := int(n8%100)+1, int(m8%100)+1
			rng := workload.NewRNG(uint64(seed))
			ka, kb := workload.OverlappingKeySets(rng, n, m, float64(cfgPick%4)/4)
			ta, tb := seqtreap.FromKeys(ka), seqtreap.FromKeys(kb)
			want := seqtreap.Diff(ta, tb)

			cfg := RConfig{R: r, SpawnDepth: portSpawnDepths[int(cfgPick)%len(portSpawnDepths)]}
			var got NodeCell
			enter(func(ctx Ctx) { got = cfg.Diff(ctx, RFromSeqTreap(r, ta), RFromSeqTreap(r, tb)) })
			return seqtreap.Equal(RToSeqTreap(got), want)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
			t.Fatal(err)
		}
	})
}

func TestPortIntersectMatchesOracleProperty(t *testing.T) {
	withPortRuntimes(t, func(t *testing.T, r *SchedRuntime, enter func(func(Ctx))) {
		f := func(seed uint16, n8, m8, cfgPick uint8) bool {
			n, m := int(n8%100)+1, int(m8%100)+1
			rng := workload.NewRNG(uint64(seed))
			ka, kb := workload.OverlappingKeySets(rng, n, m, float64(cfgPick%4)/4)
			ta, tb := seqtreap.FromKeys(ka), seqtreap.FromKeys(kb)
			want := seqtreap.Intersect(ta, tb)

			cfg := RConfig{R: r, SpawnDepth: portSpawnDepths[int(cfgPick)%len(portSpawnDepths)]}
			var got NodeCell
			enter(func(ctx Ctx) { got = cfg.Intersect(ctx, RFromSeqTreap(r, ta), RFromSeqTreap(r, tb)) })
			return seqtreap.Equal(RToSeqTreap(got), want)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
			t.Fatal(err)
		}
	})
}

func TestPortJoinMatchesOracleProperty(t *testing.T) {
	withPortRuntimes(t, func(t *testing.T, r *SchedRuntime, enter func(func(Ctx))) {
		f := func(seed uint16, n8, m8, cfgPick uint8) bool {
			n, m := int(n8%100)+1, int(m8%100)+1
			rng := workload.NewRNG(uint64(seed))
			ka, kb := workload.DisjointKeySets(rng, n, m)
			sort.Ints(ka)
			sort.Ints(kb)
			// Join requires every key of a below every key of b: shift kb.
			shift := ka[len(ka)-1] - kb[0] + 1
			for i := range kb {
				kb[i] += shift
			}
			ta, tb := seqtreap.FromKeys(ka), seqtreap.FromKeys(kb)
			want := seqtreap.Join(ta, tb)

			cfg := RConfig{R: r, SpawnDepth: portSpawnDepths[int(cfgPick)%len(portSpawnDepths)]}
			var got NodeCell
			enter(func(ctx Ctx) { got = cfg.Join(ctx, RFromSeqTreap(r, ta), RFromSeqTreap(r, tb)) })
			return seqtreap.Equal(RToSeqTreap(got), want)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
			t.Fatal(err)
		}
	})
}

func TestPortBuildTreapMatchesOracleProperty(t *testing.T) {
	withPortRuntimes(t, func(t *testing.T, r *SchedRuntime, enter func(func(Ctx))) {
		f := func(seed uint16, n16 uint16, cfgPick uint8) bool {
			n := int(n16%600) + 1
			rng := workload.NewRNG(uint64(seed))
			keys := workload.DistinctKeys(rng, n, 4*n)
			want := seqtreap.FromKeys(keys)

			cfg := RConfig{R: r, SpawnDepth: portSpawnDepths[int(cfgPick)%len(portSpawnDepths)]}
			var got NodeCell
			enter(func(ctx Ctx) { got = cfg.BuildTreap(ctx, keys) })
			return seqtreap.Equal(RToSeqTreap(got), want)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
			t.Fatal(err)
		}
	})
}

func TestPortInsertDeleteKeysMatchesOracleProperty(t *testing.T) {
	withPortRuntimes(t, func(t *testing.T, r *SchedRuntime, enter func(func(Ctx))) {
		f := func(seed uint16, n8, m8, cfgPick uint8) bool {
			n, m := int(n8%100)+1, int(m8%100)+1
			rng := workload.NewRNG(uint64(seed))
			ka, kb := workload.OverlappingKeySets(rng, n, m, float64(cfgPick%4)/4)
			ta := seqtreap.FromKeys(ka)
			wantIns := seqtreap.Union(ta, seqtreap.FromKeys(kb))
			wantDel := seqtreap.Diff(ta, seqtreap.FromKeys(kb))

			cfg := RConfig{R: r, SpawnDepth: portSpawnDepths[int(cfgPick)%len(portSpawnDepths)]}
			var gotIns, gotDel NodeCell
			enter(func(ctx Ctx) {
				gotIns = cfg.InsertKeys(ctx, RFromSeqTreap(r, ta), kb)
				gotDel = cfg.DeleteKeys(ctx, RFromSeqTreap(r, ta), kb)
			})
			return seqtreap.Equal(RToSeqTreap(gotIns), wantIns) &&
				seqtreap.Equal(RToSeqTreap(gotDel), wantDel)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
			t.Fatal(err)
		}
	})
}

// TestRContainsRLen exercises the CPS queries against the map oracle,
// including queries racing a still-materializing pipelined union.
func TestRContainsRLen(t *testing.T) {
	withPortRuntimes(t, func(t *testing.T, r *SchedRuntime, enter func(func(Ctx))) {
		rng := workload.NewRNG(7)
		ka, kb := workload.OverlappingKeySets(rng, 300, 300, 0.3)
		in := map[int]bool{}
		for _, k := range ka {
			in[k] = true
		}
		for _, k := range kb {
			in[k] = true
		}

		cfg := RConfig{R: r, SpawnDepth: 5}
		var u NodeCell
		enter(func(ctx Ctx) {
			u = cfg.Union(ctx, RFromSeqTreap(r, seqtreap.FromKeys(ka)), RFromSeqTreap(r, seqtreap.FromKeys(kb)))
		})

		// Fire all queries before waiting: many hit unwritten cells and
		// suspend as continuations.
		probes := append(append([]int(nil), ka[:50]...), -1, -2, 1<<40)
		results := make([]atomic.Int32, len(probes))
		var pendingQ atomic.Int64
		pendingQ.Store(int64(len(probes)) + 1)
		done := make(chan struct{})
		queryDone := func() {
			if pendingQ.Add(-1) == 0 {
				close(done)
			}
		}
		var gotLen atomic.Int64
		enter(func(ctx Ctx) {
			for i, key := range probes {
				RContains(ctx, u, key, func(_ Ctx, ok bool) {
					if ok {
						results[i].Store(1)
					} else {
						results[i].Store(-1)
					}
					queryDone()
				})
			}
			RLen(ctx, u, func(_ Ctx, n int) {
				gotLen.Store(int64(n))
				queryDone()
			})
		})
		RWait(u)
		<-done

		for i, key := range probes {
			want := int32(-1)
			if in[key] {
				want = 1
			}
			if got := results[i].Load(); got != want {
				t.Errorf("RContains(%d) = %d, want %d", key, got, want)
			}
		}
		if got, want := int(gotLen.Load()), len(in); got != want {
			t.Errorf("RLen = %d, want %d", got, want)
		}
	})
}
