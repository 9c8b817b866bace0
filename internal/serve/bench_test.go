package serve

// The serve layer's own microbenchmarks (ROADMAP ledger (b)): one
// request kind each, in process — no HTTP, no persistence — against a
// preloaded 4-shard server, from a single caller so every Apply is its
// own coalesced run and ns/op is the unloaded request path. They use
// only the exported API, so the same file measures any commit.

import (
	"testing"

	"pipefut/internal/workload"
)

const (
	benchUniverse = 1 << 16
	benchPreload  = 1 << 15
)

func benchServer(b *testing.B, backend string) (*Server, *workload.RNG) {
	b.Helper()
	rng := workload.NewRNG(7)
	s := New(Config{P: 2, Shards: 4, Universe: benchUniverse, Backend: backend})
	b.Cleanup(s.Close)
	if _, err := s.Apply(OpUnion, workload.DistinctKeys(rng, benchPreload, benchUniverse)); err != nil {
		b.Fatal(err)
	}
	if _, _, err := s.Keys(); err != nil { // materialize the preload before timing
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	return s, rng
}

func benchKeys(rng *workload.RNG, n int) []int {
	ks := make([]int, n)
	for i := range ks {
		ks[i] = rng.Intn(benchUniverse)
	}
	return ks
}

func forBackends(b *testing.B, f func(b *testing.B, backend string)) {
	for _, backend := range KnownBackends() {
		b.Run(backend, func(b *testing.B) { f(b, backend) })
	}
}

// BenchmarkServeApply: one op is a 16-key union followed by the
// difference of the same keys, so the set's size holds steady.
func BenchmarkServeApply(b *testing.B) {
	forBackends(b, func(b *testing.B, backend string) {
		s, rng := benchServer(b, backend)
		for i := 0; i < b.N; i++ {
			ks := benchKeys(rng, 16)
			if _, err := s.Apply(OpUnion, ks); err != nil {
				b.Fatal(err)
			}
			if _, err := s.Apply(OpDifference, ks); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkServeContains(b *testing.B) {
	forBackends(b, func(b *testing.B, backend string) {
		s, rng := benchServer(b, backend)
		for i := 0; i < b.N; i++ {
			if _, _, err := s.Contains(rng.Intn(benchUniverse)); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkServeEvalDAG: (set ∩ F) \ G with a count terminal — three
// operands, two fused operator stages, nothing published.
func BenchmarkServeEvalDAG(b *testing.B) {
	forBackends(b, func(b *testing.B, backend string) {
		s, rng := benchServer(b, backend)
		for i := 0; i < b.N; i++ {
			_, err := s.EvalDAG(DAGRequest{Nodes: []DAGNode{
				{Ref: SetRef}, {Keys: benchKeys(rng, 64)}, {Op: "intersect", Args: []int{0, 1}},
				{Keys: benchKeys(rng, 16)}, {Op: "difference", Args: []int{2, 3}},
			}})
			if err != nil {
				b.Fatal(err)
			}
		}
	})
}
