package verifycross

import (
	"fmt"
	"slices"
	"testing"

	"pipefut/internal/paralg"
	"pipefut/internal/sched"
	"pipefut/internal/seqtreap"
	"pipefut/internal/serve"
	"pipefut/internal/workload"
)

// DAG-plan replay lane: the serving layer's operation-DAG planner (see
// internal/serve/dag.go) lowers a request DAG onto the same RConfig
// entry points this package already cross-checks one at a time. The
// composition is the new claim — intermediate roots feed downstream
// operations before they materialize, possibly fanning out to two
// consumers (diamonds) — so this lane replays a catalog of DAG shapes
// two ways: the fold-left lowering directly on RConfig (nil ctx and
// AffineCtx for every worker, mirroring the affinity lane) and
// end-to-end through serve.EvalDAG (both backends × steal policies ×
// shard counts), each against the seqtreap oracle.

// dagPlanCase is one request DAG plus deterministic inputs: base is the
// stored set, lits the literal leaves; req's lowering must equal the
// oracle's sequential set algebra over the same keys.
type dagPlanCase struct {
	name string
	base []int
	req  serve.DAGRequest
}

func dagPlanCases() []dagPlanCase {
	r := workload.NewRNG(71)
	base := workload.DistinctKeys(r, 600, 1<<12)
	la := workload.DistinctKeys(r, 200, 1<<12)
	lb := workload.DistinctKeys(r, 150, 1<<12)
	lc := workload.DistinctKeys(r, 100, 1<<12)
	return []dagPlanCase{
		{
			// The acceptance shape: (set ∪ A) \ B.
			name: "union-then-diff",
			base: base,
			req: serve.DAGRequest{Nodes: []serve.DAGNode{
				{Ref: serve.SetRef},
				{Keys: la},
				{Op: "union", Args: []int{0, 1}},
				{Keys: lb},
				{Op: "difference", Args: []int{2, 3}},
			}},
		},
		{
			// k-way union folded left at one level.
			name: "kway-union",
			base: base,
			req: serve.DAGRequest{Nodes: []serve.DAGNode{
				{Ref: serve.SetRef},
				{Keys: la},
				{Keys: lb},
				{Keys: lc},
				{Op: "union", Args: []int{0, 1, 2, 3}},
			}},
		},
		{
			// Filter-then-count: intersect against a literal filter set.
			name: "filter-count",
			base: base,
			req: serve.DAGRequest{Nodes: []serve.DAGNode{
				{Ref: serve.SetRef},
				{Keys: la},
				{Op: "intersect", Args: []int{0, 1}},
			}},
		},
		{
			// Diamond: the set leaf fans out to both arms, so its root
			// cell is consumed by two pipelines at once.
			name: "diamond",
			base: base,
			req: serve.DAGRequest{Nodes: []serve.DAGNode{
				{Ref: serve.SetRef},
				{Keys: la},
				{Keys: lb},
				{Op: "union", Args: []int{0, 1}},
				{Op: "difference", Args: []int{0, 2}},
				{Op: "intersect", Args: []int{3, 4}},
			}},
		},
	}
}

// dagOracle evaluates the case's DAG with the sequential treap — result
// node defaulting and left folds exactly as the planner specifies.
func dagOracle(tc dagPlanCase) *seqtreap.Node {
	vals := make([]*seqtreap.Node, len(tc.req.Nodes))
	for i, nd := range tc.req.Nodes {
		switch {
		case nd.Ref != "":
			vals[i] = seqtreap.FromKeys(tc.base)
		case nd.Op != "":
			acc := vals[nd.Args[0]]
			for _, a := range nd.Args[1:] {
				switch nd.Op {
				case "union":
					acc = seqtreap.Union(acc, vals[a])
				case "difference":
					acc = seqtreap.Diff(acc, vals[a])
				case "intersect":
					acc = seqtreap.Intersect(acc, vals[a])
				default:
					panic("dagplan: unknown op " + nd.Op)
				}
			}
			vals[i] = acc
		default:
			vals[i] = seqtreap.FromKeys(nd.Keys)
		}
	}
	return vals[len(vals)-1]
}

// lowerDAG is the planner's per-shard lowering written directly against
// RConfig — leaves build, ops fold left over pipelined root cells — so
// divergence here implicates the entry-point composition itself, not
// the serving layer around it.
func lowerDAG(cfg paralg.RConfig, ctx paralg.Ctx, tc dagPlanCase) *seqtreap.Node {
	vals := make([]paralg.NodeCell, len(tc.req.Nodes))
	for i, nd := range tc.req.Nodes {
		switch {
		case nd.Ref != "":
			vals[i] = cfg.BuildTreap(ctx, tc.base)
		case nd.Op != "":
			acc := vals[nd.Args[0]]
			for _, a := range nd.Args[1:] {
				switch nd.Op {
				case "union":
					acc = cfg.Union(ctx, acc, vals[a])
				case "difference":
					acc = cfg.Diff(ctx, acc, vals[a])
				case "intersect":
					acc = cfg.Intersect(ctx, acc, vals[a])
				}
			}
			vals[i] = acc
		default:
			vals[i] = cfg.BuildTreap(ctx, nd.Keys)
		}
	}
	return paralg.RToSeqTreap(vals[len(vals)-1])
}

// TestDAGPlanReplayParalg replays each DAG shape's lowering on the bare
// runtime, through global injection and every worker's AffineCtx,
// against the sequential oracle. As in the affinity lane, it runs under
// the shared-cell discipline's subtest name (disc=0).
func TestDAGPlanReplayParalg(t *testing.T) {
	t.Run("disc=0", func(t *testing.T) {
		const p = 4
		s := paralg.NewSchedRuntimeOpts(p, sched.Options{Groups: 2, StealHalf: true})
		defer s.Close()
		cfg := paralg.RConfig{R: s, SpawnDepth: 6, GrainCutoff: 32}
		for _, tc := range dagPlanCases() {
			want := dagOracle(tc)
			if got := lowerDAG(cfg, nil, tc); !seqtreap.Equal(got, want) {
				t.Errorf("%s: plain-injection lowering diverges from oracle", tc.name)
			}
			for w := 0; w < p; w++ {
				if got := lowerDAG(cfg, s.AffineCtx(w), tc); !seqtreap.Equal(got, want) {
					t.Errorf("%s: AffineCtx(%d) lowering diverges from oracle", tc.name, w)
				}
			}
		}
	})
}

// TestDAGPlanReplayServe replays the same catalog end-to-end through
// serve.EvalDAG — planner, consistent cut, sharded lowering, countdown
// terminal — on every backend × steal policy × shard count.
func TestDAGPlanReplayServe(t *testing.T) {
	for _, backend := range serve.KnownBackends() {
		for _, policy := range serve.KnownStealPolicies() {
			for _, shards := range []int{1, 3} {
				name := fmt.Sprintf("%s/%s/shards=%d", backend, policy, shards)
				t.Run(name, func(t *testing.T) {
					for _, tc := range dagPlanCases() {
						s := serve.New(serve.Config{
							P: 2, Shards: shards, Universe: 1 << 12,
							Backend: backend, StealPolicy: policy,
						})
						if _, err := s.Apply(serve.OpUnion, tc.base); err != nil {
							t.Fatalf("%s: seed: %v", tc.name, err)
						}
						req := tc.req
						req.Want = serve.DAGWantKeys
						res, err := s.EvalDAG(req)
						if err != nil {
							t.Fatalf("%s: EvalDAG: %v", tc.name, err)
						}
						want := seqtreap.Keys(dagOracle(tc))
						if !slices.Equal(res.Keys, want) {
							t.Errorf("%s: keys diverge from oracle (got %d keys, want %d)",
								tc.name, len(res.Keys), len(want))
						}
						if res.Count != len(want) {
							t.Errorf("%s: count=%d, want %d", tc.name, res.Count, len(want))
						}
						s.Close()
					}
				})
			}
		}
	}
}
