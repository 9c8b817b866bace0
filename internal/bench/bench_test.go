package bench

import (
	"bytes"
	"io"
	"strings"
	"testing"
)

// TestEveryExperimentRunsQuick executes every registered experiment at the
// quick configuration — the end-to-end integration test of the whole
// harness. The two wall-clock experiments are exercised at a very small
// size to keep the suite fast.
func TestEveryExperimentRunsQuick(t *testing.T) {
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			cfg := QuickConfig
			if e.ID == "speedup" || e.ID == "grain" {
				cfg.MaxLgN = 10
			}
			var buf bytes.Buffer
			if err := e.Run(cfg, &buf); err != nil {
				t.Fatalf("%s: %v", e.ID, err)
			}
			out := buf.String()
			if !strings.Contains(out, "==") || !strings.Contains(out, "---") {
				t.Fatalf("%s produced no table:\n%s", e.ID, out)
			}
		})
	}
}

func TestRegistryContents(t *testing.T) {
	want := []string{"diff", "discipline", "fig1", "fig2", "grain", "intersect",
		"linearity", "machine", "merge", "mergesort", "mlpaper", "online",
		"patterns", "rebalance", "sched", "speedup", "t26", "union"}
	all := All()
	if len(all) != len(want) {
		t.Fatalf("registered %d experiments, want %d", len(all), len(want))
	}
	for i, e := range all {
		if e.ID != want[i] {
			t.Fatalf("experiment[%d] = %s, want %s", i, e.ID, want[i])
		}
		if e.Paper == "" || e.Claim == "" || e.Run == nil {
			t.Fatalf("experiment %s incompletely registered", e.ID)
		}
	}
	if _, ok := Get("merge"); !ok {
		t.Fatal("Get(merge) failed")
	}
	if _, ok := Get("nope"); ok {
		t.Fatal("Get(nope) should fail")
	}
}

func TestRegisterDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Register(Experiment{ID: "merge"})
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("Title", "col a", "b")
	tb.Row("1", "22")
	tb.Row("333", "4")
	tb.Note("a note %d", 7)
	var buf bytes.Buffer
	if err := tb.Fprint(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"== Title ==", "col a", "333", "a note 7"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
	lines := strings.Split(out, "\n")
	// Header and rows must be aligned to the same width.
	if len(lines) < 5 {
		t.Fatal("too few lines")
	}
}

func TestTableRowsWiderThanHeaderAreTruncatedSafely(t *testing.T) {
	tb := NewTable("t", "only")
	tb.Row("a", "extra", "more")
	if err := tb.Fprint(io.Discard); err != nil {
		t.Fatal(err)
	}
}

func TestFormatters(t *testing.T) {
	if F(3.14159) != "3.14" {
		t.Fatalf("F small = %s", F(3.14159))
	}
	if F(42.5) != "42.5" {
		t.Fatalf("F mid = %s", F(42.5))
	}
	if F(12345) != "12345" {
		t.Fatalf("F big = %s", F(12345))
	}
	nan := 0.0
	nan /= nan
	if F(nan) != "-" {
		t.Fatal("F(NaN) must be -")
	}
	if I(7) != "7" {
		t.Fatal("I wrong")
	}
}

func TestSizesSweep(t *testing.T) {
	cfg := Config{MaxLgN: 10}
	got := cfg.Sizes(8)
	if len(got) != 3 || got[0] != 256 || got[2] != 1024 {
		t.Fatalf("sizes = %v", got)
	}
	if s := (Config{MaxLgN: 5}).Sizes(8); s != nil {
		t.Fatal("empty sweep expected")
	}
}

// TestPSweep pins the worker-count sweep the speedup and sched
// experiments run: it starts at 1, ends at the host's GOMAXPROCS, and
// ascends strictly — so a sweep loop over it terminates at every host
// width, odd ones included.
func TestPSweep(t *testing.T) {
	for _, maxP := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 12} {
		ps := pSweep(maxP)
		if len(ps) == 0 || len(ps) > 4 || ps[0] != 1 || ps[len(ps)-1] != maxP {
			t.Errorf("pSweep(%d) = %v, want 1 … %d in at most 4 steps", maxP, ps, maxP)
			continue
		}
		for i := 1; i < len(ps); i++ {
			if ps[i] <= ps[i-1] {
				t.Errorf("pSweep(%d) = %v, not strictly ascending", maxP, ps)
			}
		}
	}
}

func TestLgInt(t *testing.T) {
	if lgInt(1) != 0 || lgInt(2) != 1 || lgInt(1024) != 10 || lgInt(1000) != 10 {
		t.Fatal("lgInt wrong")
	}
}
