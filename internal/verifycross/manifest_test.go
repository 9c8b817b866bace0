package verifycross

import (
	"sort"
	"testing"

	"pipefut/internal/core"
	"pipefut/internal/costalg"
	"pipefut/internal/seqtree"
	"pipefut/internal/trace"
	"pipefut/internal/verdict"
	"pipefut/internal/workload"
)

// This file is the dynamic leg of the verdict manifest: the manifest
// (internal/verdict/verdicts.json) claims a flow class per witness
// group, a static claim about how often each cell may be touched before
// its write. Here every group's recorded DAG is checked against its
// claimed class with verdict.CheckTrace, so a manifest that
// over-promises (or an algorithm change that silently breaks a claim
// without regenerating the manifest) fails this suite. Linearity is
// checked here, on recorded DAGs, and nowhere at run time: the
// scheduler has one cell type, which admits every flow class.

// TestManifestGroupsMirrorCases pins the manifest's group structure to
// the verifycross harness: same group names, same entry sets. The
// generator (verdict.Generate) classifies exactly the entries the
// harness records, so neither side can drift without failing here.
func TestManifestGroupsMirrorCases(t *testing.T) {
	byName := make(map[string][]string, len(algCases))
	for _, c := range algCases {
		byName[c.name] = c.entries
	}
	if len(verdict.Groups) != len(algCases) {
		t.Errorf("verdict.Groups has %d groups, verifycross has %d cases", len(verdict.Groups), len(algCases))
	}
	for name, entries := range verdict.Groups {
		want, ok := byName[name]
		if !ok {
			t.Errorf("manifest group %q has no verifycross case", name)
			continue
		}
		if !sameStringSet(entries, want) {
			t.Errorf("group %q: manifest entries %v != case entries %v", name, entries, want)
		}
	}
	for name := range byName {
		if _, ok := verdict.Groups[name]; !ok {
			t.Errorf("verifycross case %q has no manifest group", name)
		}
	}
}

// TestManifestClaims replays every witness group's construction on the
// tracing engine and checks the recorded DAG against the class the
// golden manifest claims for the group. The group class is the meet
// over its analyzed members, and the unanalyzed RConfig ports inherit
// it — so a pass here is a dynamic witness for every member's claim.
// Entry-level classes above the meet (e.g. a linear helper inside a
// general group) are not separately checkable against the shared group
// trace and are covered statically by the generator.
func TestManifestClaims(t *testing.T) {
	golden := verdict.Golden()
	for _, c := range algCases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			gv, ok := golden.Groups[c.name]
			if !ok {
				t.Fatalf("golden manifest has no group %q", c.name)
			}
			tr := record(c.run)
			if err := trace.Verify(tr); err != nil {
				t.Fatalf("trace.Verify: %v", err)
			}
			if err := verdict.CheckTrace(gv.Class, tr); err != nil {
				t.Errorf("recorded DAG violates the claimed class %q: %v", gv.Class, err)
			}
		})
	}
}

// TestMisTaggedClassFailsClosed is the fail-closed regression: a
// manifest entry that claims a stronger class than the flow actually
// has must be rejected by CheckTrace, never waved through.
func TestMisTaggedClassFailsClosed(t *testing.T) {
	// A flow that touches one future cell twice is not linear.
	nonlinear := record(func(ctx *core.Ctx, eng *core.Engine) {
		c := core.Fork1(ctx, func(t *core.Ctx) int { return 1 })
		core.Touch(ctx, c)
		core.Touch(ctx, c)
	})
	if err := trace.Verify(nonlinear); err != nil {
		t.Fatalf("trace.Verify: %v", err)
	}
	if err := verdict.CheckTrace(verdict.Linear, nonlinear); err == nil {
		t.Error("claiming linear on a twice-touched flow must fail closed")
	} else {
		t.Logf("linear claim rejected as expected: %v", err)
	}
	if err := verdict.CheckTrace(verdict.General, nonlinear); err != nil {
		t.Errorf("the general class must accept every verified trace, got: %v", err)
	}

	// A pipelined touch — the toucher is not control-downstream of the
	// writer — touches its cell once: linear.
	pipelined := record(func(ctx *core.Ctx, eng *core.Engine) {
		c := core.Fork1(ctx, func(t *core.Ctx) int { return 1 })
		core.Touch(ctx, c)
	})
	if err := verdict.CheckTrace(verdict.Linear, pipelined); err != nil {
		t.Errorf("the single-touch flow is linear, got: %v", err)
	}
}

// TestStrongerClaimThanRealTraceFailsClosed runs the same check against
// a real algorithm: merge's result tree handed to two further merges has
// each of its cells touched twice, so a (mis-tagged) linear claim for
// that flow must be rejected by the exact code path TestManifestClaims
// relies on.
func TestStrongerClaimThanRealTraceFailsClosed(t *testing.T) {
	tr := record(func(ctx *core.Ctx, eng *core.Engine) {
		rng := workload.NewRNG(7)
		ka, kb := workload.DisjointKeySets(rng, algN, algN)
		sort.Ints(ka)
		sort.Ints(kb)
		r := costalg.Merge(ctx,
			costalg.FromSeqTree(eng, seqtree.FromSortedBalanced(ka)),
			costalg.FromSeqTree(eng, seqtree.FromSortedBalanced(kb)))
		costalg.CompletionTime(costalg.Merge(ctx, r, costalg.FromSeqTree(eng, nil)))
		costalg.CompletionTime(costalg.Merge(ctx, r, costalg.FromSeqTree(eng, nil)))
	})
	if err := trace.Verify(tr); err != nil {
		t.Fatalf("trace.Verify: %v", err)
	}
	if err := verdict.CheckTrace(verdict.Linear, tr); err == nil {
		t.Error("a merge result consumed twice must reject a linear claim")
	} else {
		t.Logf("linear claim rejected as expected: %v", err)
	}
}

func sameStringSet(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	as := append([]string(nil), a...)
	bs := append([]string(nil), b...)
	sort.Strings(as)
	sort.Strings(bs)
	for i := range as {
		if as[i] != bs[i] {
			return false
		}
	}
	return true
}
