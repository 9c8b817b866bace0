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

// The tests in this file check each entry point against its sequential
// oracle on a single-worker scheduler, called from a plain goroutine.
// With one worker every suspended continuation is resumed on the worker
// that wrote the cell, so these runs cover the serial interleavings the
// 4-worker port tests rarely hit.

// oneWorkerCfg returns a config over a fresh single-worker scheduler,
// closed when the test ends.
func oneWorkerCfg(t *testing.T, spawnDepth int) RConfig {
	r := NewSchedRuntime(1)
	t.Cleanup(r.Close)
	return RConfig{R: r, SpawnDepth: spawnDepth}
}

func TestMergeMatchesOracleProperty(t *testing.T) {
	cfg := oneWorkerCfg(t, 0)
	f := func(seed uint16, n8, m8, cfgPick uint8) bool {
		n, m := int(n8%100)+1, int(m8%100)+1
		rng := workload.NewRNG(uint64(seed))
		ka, kb := workload.DisjointKeySets(rng, n, m)
		sort.Ints(ka)
		sort.Ints(kb)
		t1 := seqtree.FromSortedBalanced(ka)
		t2 := seqtree.FromSortedBalanced(kb)
		want := seqtree.Merge(t1, t2)

		cfg.SpawnDepth = portSpawnDepths[int(cfgPick)%len(portSpawnDepths)]
		got := cfg.Merge(nil, RFromSeqTree(cfg.R, t1), RFromSeqTree(cfg.R, t2))
		return seqtree.Equal(RToSeqTree(got), want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// checkTreapOpProperty checks a two-treap operation against its oracle
// over random overlapping key sets.
func checkTreapOpProperty(t *testing.T,
	op func(c RConfig, a, b NodeCell) NodeCell,
	oracle func(a, b *seqtreap.Node) *seqtreap.Node) {
	cfg := oneWorkerCfg(t, 0)
	f := func(seed uint16, n8, m8, cfgPick uint8) bool {
		n, m := int(n8%100)+1, int(m8%100)+1
		rng := workload.NewRNG(uint64(seed))
		ka, kb := workload.OverlappingKeySets(rng, n, m, float64(cfgPick%4)/4)
		ta, tb := seqtreap.FromKeys(ka), seqtreap.FromKeys(kb)
		want := oracle(ta, tb)

		cfg.SpawnDepth = portSpawnDepths[int(cfgPick)%len(portSpawnDepths)]
		got := op(cfg, RFromSeqTreap(cfg.R, ta), RFromSeqTreap(cfg.R, tb))
		return seqtreap.Equal(RToSeqTreap(got), want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestUnionMatchesOracleProperty(t *testing.T) {
	checkTreapOpProperty(t,
		func(c RConfig, a, b NodeCell) NodeCell { return c.Union(nil, a, b) },
		seqtreap.Union)
}

func TestDiffMatchesOracleProperty(t *testing.T) {
	checkTreapOpProperty(t,
		func(c RConfig, a, b NodeCell) NodeCell { return c.Diff(nil, a, b) },
		seqtreap.Diff)
}

func TestIntersectMatchesOracleProperty(t *testing.T) {
	checkTreapOpProperty(t,
		func(c RConfig, a, b NodeCell) NodeCell { return c.Intersect(nil, a, b) },
		seqtreap.Intersect)
}

func TestJoinMatchesOracle(t *testing.T) {
	cfg := oneWorkerCfg(t, 64)
	rng := workload.NewRNG(3)
	keys := workload.SortedDistinct(rng, 200, 2000)
	ta := seqtreap.FromKeys(keys[:120])
	tb := seqtreap.FromKeys(keys[120:])
	want := seqtreap.Join(ta, tb)
	got := cfg.Join(nil, RFromSeqTreap(cfg.R, ta), RFromSeqTreap(cfg.R, tb))
	if !seqtreap.Equal(RToSeqTreap(got), want) {
		t.Fatal("join differs from oracle")
	}
}

func TestBuildTreapMatchesOracleProperty(t *testing.T) {
	cfg := oneWorkerCfg(t, 0)
	f := func(seed uint16, n8, cfgPick uint8) bool {
		n := int(n8)*4 + 1 // up to ~1k, crossing the direct-build cutoff
		rng := workload.NewRNG(uint64(seed))
		keys := workload.DistinctKeys(rng, n, 4*n)
		cfg.SpawnDepth = portSpawnDepths[int(cfgPick)%len(portSpawnDepths)]
		got := cfg.BuildTreap(nil, keys)
		return seqtreap.Equal(RToSeqTreap(got), seqtreap.FromKeys(keys))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestInsertDeleteKeys(t *testing.T) {
	cfg := oneWorkerCfg(t, 8)
	rng := workload.NewRNG(2)
	base := workload.DistinctKeys(rng, 1000, 100000)
	batch := workload.DistinctKeys(rng, 1000, 100000)
	tr := seqtreap.FromKeys(base)

	ins := cfg.InsertKeys(nil, RFromSeqTreap(cfg.R, tr), batch)
	if !seqtreap.Equal(RToSeqTreap(ins), seqtreap.Union(tr, seqtreap.FromKeys(batch))) {
		t.Fatal("InsertKeys differs from oracle")
	}
	del := cfg.DeleteKeys(nil, RFromSeqTreap(cfg.R, tr), batch)
	if !seqtreap.Equal(RToSeqTreap(del), seqtreap.Diff(tr, seqtreap.FromKeys(batch))) {
		t.Fatal("DeleteKeys differs from oracle")
	}
}

func TestT26BulkInsertMatchesOracleProperty(t *testing.T) {
	cfg := oneWorkerCfg(t, 0)
	f := func(seed uint16, n8, m8, cfgPick uint8) bool {
		n, m := int(n8%150)+1, int(m8%150)+1
		rng := workload.NewRNG(uint64(seed))
		all := workload.DistinctKeys(rng, n+m, 4*(n+m))
		base := t26.FromKeys(all[:n])
		ins := append([]int(nil), all[n:]...)
		sort.Ints(ins)
		levels := workload.WellSeparatedLevels(ins)

		cfg.SpawnDepth = portSpawnDepths[int(cfgPick)%len(portSpawnDepths)]
		got := RToSeqT26(cfg.T26BulkInsert(nil, RFromSeqT26(cfg.R, base), levels))
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
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
