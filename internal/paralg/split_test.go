package paralg

import (
	"testing"
	"testing/quick"

	"pipefut/internal/seqtreap"
	"pipefut/internal/workload"
)

// Treaps are history-independent (priorities are a pure hash of the key),
// so the pieces of any split must be structurally equal to treaps built
// directly over the filtered key sets.

func TestSplitMatchesOracleProperty(t *testing.T) {
	withPortRuntimes(t, func(t *testing.T, r *SchedRuntime, enter func(func(Ctx))) {
		f := func(seed uint16, n8, pivotPick, cfgPick uint8) bool {
			n := int(n8%200) + 1
			rng := workload.NewRNG(uint64(seed))
			keys := workload.DistinctKeys(rng, n, 4*n)
			pivot := int(pivotPick) % (4 * n)
			var lo, hi []int
			for _, k := range keys {
				if k < pivot {
					lo = append(lo, k)
				} else {
					hi = append(hi, k)
				}
			}

			cfg := RConfig{R: r, SpawnDepth: portSpawnDepths[int(cfgPick)%len(portSpawnDepths)]}
			var lt, ge NodeCell
			enter(func(ctx Ctx) { lt, ge = cfg.Split(ctx, RFromSeqTreap(r, seqtreap.FromKeys(keys)), pivot) })
			return seqtreap.Equal(RToSeqTreap(lt), seqtreap.FromKeys(lo)) &&
				seqtreap.Equal(RToSeqTreap(ge), seqtreap.FromKeys(hi))
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
			t.Fatal(err)
		}
	})
}

func TestSplitRangesMatchesOracleProperty(t *testing.T) {
	withPortRuntimes(t, func(t *testing.T, r *SchedRuntime, enter func(func(Ctx))) {
		f := func(seed uint16, n8, k8, cfgPick uint8) bool {
			n := int(n8%200) + 1
			k := int(k8%7) + 1 // 1..7 shards → 0..6 pivots
			universe := 4 * n
			rng := workload.NewRNG(uint64(seed))
			keys := workload.DistinctKeys(rng, n, universe)
			pivots := make([]int, 0, k-1)
			for i := 1; i < k; i++ {
				pivots = append(pivots, universe*i/k)
			}

			cfg := RConfig{R: r, SpawnDepth: portSpawnDepths[int(cfgPick)%len(portSpawnDepths)]}
			var pieces []NodeCell
			enter(func(ctx Ctx) { pieces = cfg.SplitRanges(ctx, RFromSeqTreap(r, seqtreap.FromKeys(keys)), pivots) })
			if len(pieces) != k {
				return false
			}
			for i, piece := range pieces {
				lo, hi := minIntKey, maxIntKey
				if i > 0 {
					lo = pivots[i-1]
				}
				if i < len(pivots) {
					hi = pivots[i]
				}
				var want []int
				for _, key := range keys {
					if key >= lo && key < hi {
						want = append(want, key)
					}
				}
				if !seqtreap.Equal(RToSeqTreap(piece), seqtreap.FromKeys(want)) {
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
			t.Fatal(err)
		}
	})
}

const (
	minIntKey = -1 << 62
	maxIntKey = 1 << 62
)

// TestSplitRangesNoPivots: the degenerate single-shard partition returns
// the input cell itself — no split work at all.
func TestSplitRangesNoPivots(t *testing.T) {
	r := NewSchedRuntime(1)
	defer r.Close()
	cfg := RConfig{R: r, SpawnDepth: 4}
	in := RFromSeqTreap(r, seqtreap.FromKeys([]int{3, 1, 2}))
	out := cfg.SplitRanges(nil, in, nil)
	if len(out) != 1 || out[0] != in {
		t.Fatalf("SplitRanges with no pivots: got %d pieces, want the input cell back", len(out))
	}
}

// TestSplitOfUnderConstructionTree: splitting a result cell that is still
// materializing (the output of a pipelined union) works — the split
// consumes cells as they are written.
func TestSplitOfUnderConstructionTree(t *testing.T) {
	withPortRuntimes(t, func(t *testing.T, r *SchedRuntime, enter func(func(Ctx))) {
		cfg := RConfig{R: r, SpawnDepth: 64}
		rng := workload.NewRNG(7)
		ka := workload.DistinctKeys(rng, 300, 2048)
		kb := workload.DistinctKeys(rng, 300, 2048)
		var lt, ge NodeCell
		enter(func(ctx Ctx) {
			u := cfg.Union(ctx, RFromSeqTreap(r, seqtreap.FromKeys(ka)), RFromSeqTreap(r, seqtreap.FromKeys(kb)))
			lt, ge = cfg.Split(ctx, u, 1024)
		})

		all := seqtreap.Union(seqtreap.FromKeys(ka), seqtreap.FromKeys(kb))
		var lo, hi []int
		for _, k := range seqtreap.Keys(all) {
			if k < 1024 {
				lo = append(lo, k)
			} else {
				hi = append(hi, k)
			}
		}
		if !seqtreap.Equal(RToSeqTreap(lt), seqtreap.FromKeys(lo)) {
			t.Error("< side of split-under-construction diverges from oracle")
		}
		if !seqtreap.Equal(RToSeqTreap(ge), seqtreap.FromKeys(hi)) {
			t.Error("≥ side of split-under-construction diverges from oracle")
		}
	})
}
