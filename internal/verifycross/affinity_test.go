package verifycross

import (
	"testing"

	"pipefut/internal/paralg"
	"pipefut/internal/sched"
	"pipefut/internal/seqtreap"
	"pipefut/internal/workload"
)

// The locality machinery (affinity hints, per-worker mailboxes,
// steal-half) is pure scheduling: it may move tasks between workers but
// must never change what any operation computes. This file replays the
// same recorded operation shapes as the plain-Submit lanes, once with a
// nil ctx (global injection) and once through AffineCtx for every
// worker, and demands bit-identical results against the sequential
// oracle. Where the verdict manifest claims linearity, it is checked on
// the recorded DAGs themselves (manifest_test.go), which no scheduling
// choice can change.

// affinityCase builds inputs deterministically and runs one operation
// to a sequential result; want is computed from the same keys with the
// seqtreap oracle.
type affinityCase struct {
	name string
	run  func(cfg paralg.RConfig, ctx paralg.Ctx) *seqtreap.Node
	want func() *seqtreap.Node
}

func affinityCases() []affinityCase {
	keys := func(seed uint64) ([]int, []int) {
		r := workload.NewRNG(seed)
		return workload.OverlappingKeySets(r, 500, 400, 0.3)
	}
	return []affinityCase{
		{
			name: "union",
			run: func(cfg paralg.RConfig, ctx paralg.Ctx) *seqtreap.Node {
				ka, kb := keys(31)
				a := cfg.BuildTreap(ctx, ka)
				b := cfg.BuildTreap(ctx, kb)
				return paralg.RToSeqTreap(cfg.Union(ctx, a, b))
			},
			want: func() *seqtreap.Node {
				ka, kb := keys(31)
				return seqtreap.Union(seqtreap.FromKeys(ka), seqtreap.FromKeys(kb))
			},
		},
		{
			name: "diff",
			run: func(cfg paralg.RConfig, ctx paralg.Ctx) *seqtreap.Node {
				ka, kb := keys(32)
				a := cfg.BuildTreap(ctx, ka)
				b := cfg.BuildTreap(ctx, kb)
				return paralg.RToSeqTreap(cfg.Diff(ctx, a, b))
			},
			want: func() *seqtreap.Node {
				ka, kb := keys(32)
				return seqtreap.Diff(seqtreap.FromKeys(ka), seqtreap.FromKeys(kb))
			},
		},
		{
			name: "intersect",
			run: func(cfg paralg.RConfig, ctx paralg.Ctx) *seqtreap.Node {
				ka, kb := keys(33)
				a := cfg.BuildTreap(ctx, ka)
				b := cfg.BuildTreap(ctx, kb)
				return paralg.RToSeqTreap(cfg.Intersect(ctx, a, b))
			},
			want: func() *seqtreap.Node {
				ka, kb := keys(33)
				return seqtreap.Intersect(seqtreap.FromKeys(ka), seqtreap.FromKeys(kb))
			},
		},
		{
			name: "insert-delete",
			run: func(cfg paralg.RConfig, ctx paralg.Ctx) *seqtreap.Node {
				ka, kb := keys(34)
				t := cfg.BuildTreap(ctx, ka)
				t = cfg.InsertKeys(ctx, t, kb)
				t = cfg.DeleteKeys(ctx, t, ka[:250])
				return paralg.RToSeqTreap(t)
			},
			want: func() *seqtreap.Node {
				ka, kb := keys(34)
				u := seqtreap.Union(seqtreap.FromKeys(ka), seqtreap.FromKeys(kb))
				return seqtreap.Diff(u, seqtreap.FromKeys(ka[:250]))
			},
		},
	}
}

// TestAffinityHintsPreserveResults replays each case through every
// entry path the serving layer uses — global injection (ctx=nil) and
// AffineCtx(w) for each worker w — on a locality-configured runtime
// (affinity groups + steal-half + mailboxes on). Any divergence from the
// oracle fails the claim that hints are results-neutral. The lane keeps
// the subtest name of the shared-cell discipline (disc=0), the one cell
// discipline the runtime has.
func TestAffinityHintsPreserveResults(t *testing.T) {
	t.Run("disc=0", func(t *testing.T) {
		const p = 4
		s := paralg.NewSchedRuntimeOpts(p, sched.Options{Groups: 2, StealHalf: true})
		defer s.Close()
		cfg := paralg.RConfig{R: s, SpawnDepth: 6, GrainCutoff: 32}

		for _, tc := range affinityCases() {
			want := tc.want()
			// ctx = nil: the plain injection path every other
			// verifycross lane uses; the reference run.
			if got := tc.run(cfg, nil); !seqtreap.Equal(got, want) {
				t.Errorf("%s: plain injection diverges from oracle", tc.name)
			}
			for w := 0; w < p; w++ {
				got := tc.run(cfg, s.AffineCtx(w))
				if !seqtreap.Equal(got, want) {
					t.Errorf("%s: AffineCtx(%d) diverges from oracle", tc.name, w)
				}
			}
		}
	})
}

// TestAffinityPathActuallyExercised pins the affine lane to a p=1
// runtime, where a hint for worker 0 is always drained from worker 0's
// own mailbox (no peer can race it away), so a zero MailboxHits delta
// would mean the replay above silently fell back to plain injection and
// proved nothing about the mailbox path.
func TestAffinityPathActuallyExercised(t *testing.T) {
	s := paralg.NewSchedRuntimeOpts(1, sched.Options{})
	defer s.Close()
	cfg := paralg.RConfig{R: s, SpawnDepth: 4, GrainCutoff: 32}

	before := s.RT.Counters()
	tc := affinityCases()[0]
	if got := tc.run(cfg, s.AffineCtx(0)); !seqtreap.Equal(got, tc.want()) {
		t.Fatal("p=1 affine union diverges from oracle")
	}
	d := s.RT.Counters().Sub(before)
	if d.MailboxHits == 0 {
		t.Fatalf("affine replay recorded no mailbox hits — hint path not exercised (delta %v)", d)
	}
}
