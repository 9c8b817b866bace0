package paralg

import (
	"sort"
	"sync/atomic"
	"testing"

	"pipefut/internal/seqtreap"
	"pipefut/internal/workload"
)

// TestRSnapshotKeys checks the snapshot walk returns the full sorted key
// set, including when fired at a root whose tree is still materializing
// under a pipelined union — the durability layer's exact usage.
func TestRSnapshotKeys(t *testing.T) {
	withPortRuntimes(t, func(t *testing.T, r *SchedRuntime, enter func(func(Ctx))) {
		rng := workload.NewRNG(11)
		for _, cutoff := range []int{0, 32} {
			ka, kb := workload.OverlappingKeySets(rng, 400, 400, 0.3)
			in := map[int]bool{}
			for _, k := range ka {
				in[k] = true
			}
			for _, k := range kb {
				in[k] = true
			}
			want := make([]int, 0, len(in))
			for k := range in {
				want = append(want, k)
			}
			sort.Ints(want)

			cfg := RConfig{R: r, SpawnDepth: 5, GrainCutoff: cutoff}
			var u NodeCell
			var got atomic.Pointer[[]int]
			done := make(chan struct{})
			enter(func(ctx Ctx) {
				u = cfg.Union(ctx, RFromSeqTreap(r, seqtreap.FromKeys(ka)), RFromSeqTreap(r, seqtreap.FromKeys(kb)))
				RSnapshotKeys(ctx, u, func(_ Ctx, keys []int) {
					got.Store(&keys)
					close(done)
				})
			})
			RWait(u)
			<-done

			keys := *got.Load()
			if len(keys) != len(want) {
				t.Fatalf("cutoff=%d: snapshot has %d keys, want %d", cutoff, len(keys), len(want))
			}
			for i := range want {
				if keys[i] != want[i] {
					t.Fatalf("cutoff=%d: keys[%d] = %d, want %d", cutoff, i, keys[i], want[i])
				}
			}
		}

		// Empty tree: the walk resolves immediately with no keys.
		done := make(chan struct{})
		enter(func(ctx Ctx) {
			RSnapshotKeys(ctx, RFromSeqTreap(r, nil), func(_ Ctx, keys []int) {
				if len(keys) != 0 {
					t.Errorf("empty snapshot has %d keys", len(keys))
				}
				close(done)
			})
		})
		<-done
	})
}
