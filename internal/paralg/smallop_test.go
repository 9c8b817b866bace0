package paralg

import (
	"encoding/json"
	"flag"
	"os"
	"strconv"
	"testing"

	"pipefut/internal/seqtreap"
	"pipefut/internal/workload"
)

var update = flag.Bool("update", false, "rewrite testdata/smallop_counts.json from the current code")

// setOps is the three set operations, each with its sequential oracle.
var setOps = []struct {
	name string
	run  func(c RConfig, a, b NodeCell) NodeCell
	seq  func(a, b *seqtreap.Node) *seqtreap.Node
}{
	{"union", func(c RConfig, a, b NodeCell) NodeCell { return c.Union(nil, a, b) }, seqtreap.Union},
	{"diff", func(c RConfig, a, b NodeCell) NodeCell { return c.Diff(nil, a, b) }, seqtreap.Diff},
	{"intersect", func(c RConfig, a, b NodeCell) NodeCell { return c.Intersect(nil, a, b) }, seqtreap.Intersect},
}

// TestOneSidedChunkMatchesOracle checks the one-sided chunk path (a
// below-cutoff chunk against a big tree) against the seqtreap oracle for
// every op, both operand orders (diff with the chunk on the left takes
// the general path, and is checked too), empty to full chunks, and a big
// operand that is either materialized or still materializing — the op
// chained behind an unwaited union, so the path's touches park.
func TestOneSidedChunkMatchesOracle(t *testing.T) {
	rng := workload.NewRNG(37)
	all := workload.DistinctKeys(rng, 2600, 1<<14)
	ka, kb, outside := all[:1200], all[1000:2200], all[2200:]
	bigKeys := all[:2200]
	wantBig := seqtreap.FromKeys(bigKeys)

	for _, cutoff := range []int{1, 8, 32} {
		for _, rt := range []string{"go", "sched"} {
			t.Run(rt, func(t *testing.T) {
				var r Runtime = GoRuntime{}
				if rt == "sched" {
					s := NewSchedRuntime(2)
					defer s.Close()
					r = s
				}
				cfg := RConfig{R: r, SpawnDepth: 6, GrainCutoff: cutoff}
				ta, tb := cfg.BuildTreap(nil, ka), cfg.BuildTreap(nil, kb)
				materialized := cfg.Union(nil, ta, tb)
				RWait(materialized)

				for _, m := range []int{0, 1, cutoff/2 + 1, cutoff} {
					// Half the chunk's keys are in the big set, half are not.
					sk := append(append([]int(nil), bigKeys[3*m:3*m+m/2]...), outside[:m-m/2]...)
					small := cfg.BuildTreap(nil, sk)
					if _, ok := cfg.classed("paralg.RConfig.Union").chunkArg(small); !ok {
						t.Fatalf("cutoff=%d m=%d: operand is not a below-cutoff chunk", cutoff, m)
					}
					wantSmall := seqtreap.FromKeys(sk)
					for _, op := range setOps {
						for _, pipelined := range []bool{false, true} {
							big := materialized
							if pipelined {
								big = cfg.Union(nil, ta, tb)
							}
							check := func(order string, got NodeCell, want *seqtreap.Node) {
								t.Helper()
								if !seqtreap.Equal(RToSeqTreap(got), want) {
									t.Errorf("cutoff=%d m=%d %s(%s) pipelined=%v disagrees with the oracle",
										cutoff, m, op.name, order, pipelined)
								}
							}
							check("big, chunk", op.run(cfg, big, small), op.seq(wantBig, wantSmall))
							check("chunk, big", op.run(cfg, small, big), op.seq(wantSmall, wantBig))
						}
					}
				}
			})
		}
	}
}

// smallOpCounts is one golden row: scheduler cells allocated and tasks
// forked by one op, from call to quiescence.
type smallOpCounts struct {
	Cells  int64 `json:"cells"`
	Spawns int64 `json:"spawns"`
}

// TestSmallOpCountGolden pins the exact cells and spawns of 2- and 16-key
// union, difference and intersect against a materialized 32k-key treap
// at serve's defaults (paralg.DefaultConfig's SpawnDepth, serve's grain
// cutoff 32). Both are functions of the operand shapes alone — which
// cells are allocated and which recursion depths fork is decided by the
// keys, never by the schedule — so the golden is exact and fails in
// either direction: a change that earns fewer cells updates it with
//
//	go test ./internal/paralg -run TestSmallOpCountGolden -update
func TestSmallOpCountGolden(t *testing.T) {
	s := NewSchedRuntime(2)
	defer s.Close()
	cfg := RConfig{R: s, SpawnDepth: DefaultConfig.SpawnDepth, GrainCutoff: 32}
	rng := workload.NewRNG(43)
	keys := workload.DistinctKeys(rng, 1<<15+8, 1<<18)
	present, absent := keys[:1<<15], keys[1<<15:]
	big := cfg.BuildTreap(nil, present)
	RWait(big)
	wantBig := seqtreap.FromKeys(present)

	got := map[string]smallOpCounts{}
	for _, m := range []int{2, 16} {
		// m/2 keys already in the treap (spread across it), m/2 not.
		var sk []int
		for i := 0; i < m/2; i++ {
			sk = append(sk, present[i*(len(present)/(m/2))], absent[i])
		}
		small := cfg.BuildTreap(nil, sk)
		for _, op := range setOps {
			s.RT.Wait()
			before := s.RT.Counters()
			out := op.run(cfg, big, small)
			RWait(out)
			s.RT.Wait()
			d := s.RT.Counters().Sub(before)
			if !seqtreap.Equal(RToSeqTreap(out), op.seq(wantBig, seqtreap.FromKeys(sk))) {
				t.Errorf("%s of %d keys disagrees with the oracle", op.name, m)
			}
			got[op.name+"/"+strconv.Itoa(m)] = smallOpCounts{
				Cells:  d.CellsShared + d.CellsLinear + d.CellsForwarded,
				Spawns: d.Spawns,
			}
		}
	}

	const path = "testdata/smallop_counts.json"
	if *update {
		buf, _ := json.MarshalIndent(got, "", "\t")
		if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]smallOpCounts
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	for k, w := range want {
		if g, ok := got[k]; !ok || g != w {
			t.Errorf("%s: cells/spawns %d/%d, golden %d/%d", k, g.Cells, g.Spawns, w.Cells, w.Spawns)
		}
	}
	if len(got) != len(want) {
		t.Errorf("measured %d rows, golden has %d", len(got), len(want))
	}
}
