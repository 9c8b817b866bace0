package verdict

import (
	"bytes"
	"flag"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"strconv"
	"strings"
	"testing"

	"pipefut/internal/core"
	"pipefut/internal/trace"
)

var update = flag.Bool("update", false, "rewrite verdicts.json from the current analyses")

func TestMeet(t *testing.T) {
	cases := []struct{ a, b, want Class }{
		{General, Linear, General},
		{Linear, Forwarded, Linear},
		{Forwarded, Forwarded, Forwarded},
		{Unanalyzed, Linear, Linear},
		{Unanalyzed, Unanalyzed, Unanalyzed},
		{"", Forwarded, Forwarded},
		{General, Unanalyzed, General},
	}
	for _, c := range cases {
		if got := Meet(c.a, c.b); got != c.want {
			t.Errorf("Meet(%q, %q) = %q, want %q", c.a, c.b, got, c.want)
		}
		if got := Meet(c.b, c.a); got != c.want {
			t.Errorf("Meet(%q, %q) = %q, want %q", c.b, c.a, got, c.want)
		}
	}
}

func TestParseClass(t *testing.T) {
	for _, s := range []string{"general", "linear", "forwarded", "unanalyzed"} {
		if _, err := ParseClass(s); err != nil {
			t.Errorf("ParseClass(%q): %v", s, err)
		}
	}
	if _, err := ParseClass("superlinear"); err == nil {
		t.Error("ParseClass accepted an unknown class")
	}
}

// pipelinedTrace records a fork whose result cell the main thread
// touches with only a data edge ordering it after the write (in
// schedule terms the touch races the write): a legal linear flow that
// is NOT forwarded.
func pipelinedTrace() *trace.Trace {
	tr := trace.New()
	root := tr.Root()
	child := tr.Step(root, core.ForkEdge)
	w := tr.Step(child, core.ThreadEdge)
	tr.CellWrite(1, w)
	touch := tr.Step(root, core.ThreadEdge)
	tr.CellTouch(1, touch)
	tr.DataEdge(w, touch)
	return tr
}

// doubleTouchTrace touches one cell twice, both control-after the
// write: not linear, yet forwarded.
func doubleTouchTrace() *trace.Trace {
	tr := trace.New()
	root := tr.Root()
	w := tr.Step(root, core.ThreadEdge)
	tr.CellWrite(1, w)
	t1 := tr.Step(w, core.ThreadEdge)
	tr.CellTouch(1, t1)
	t2 := tr.Step(t1, core.ThreadEdge)
	tr.CellTouch(1, t2)
	return tr
}

func TestCheckTrace(t *testing.T) {
	pipelined := pipelinedTrace()
	if err := CheckTrace(Linear, pipelined); err != nil {
		t.Errorf("CheckTrace(linear, pipelined single-touch trace): %v", err)
	}
	if err := CheckTrace(Forwarded, pipelined); err == nil {
		t.Error("CheckTrace(forwarded) accepted a pipelined trace whose touch races the write")
	} else if !strings.Contains(err.Error(), "forwarded") {
		t.Errorf("forwarded rejection should name the claim: %v", err)
	}

	double := doubleTouchTrace()
	if err := CheckTrace(Linear, double); err == nil {
		t.Error("CheckTrace(linear) accepted a double-touched cell")
	}
	// Both touches are control-after the write: forwarded holds even
	// though linear does not — the classes are incomparable dynamically.
	if err := CheckTrace(Forwarded, double); err != nil {
		t.Errorf("CheckTrace(forwarded, post-write double touch): %v", err)
	}

	if err := CheckTrace(General, double); err != nil {
		t.Errorf("CheckTrace(general) must accept anything: %v", err)
	}
	if err := CheckTrace(Unanalyzed, double); err != nil {
		t.Errorf("CheckTrace(unanalyzed) must accept anything: %v", err)
	}
	if err := CheckTrace("bogus", double); err == nil {
		t.Error("CheckTrace accepted an unknown class")
	}
}

// TestGoldenManifestUpToDate regenerates the manifest from the current
// analyses and fails on any drift against the checked-in golden — the
// same check CI's manifest-drift lane runs. Regenerate with
//
//	go test ./internal/verdict -run TestGoldenManifestUpToDate -update
//
// or `go run ./cmd/pipelint -verdicts > internal/verdict/verdicts.json`.
func TestGoldenManifestUpToDate(t *testing.T) {
	m, err := Generate("../..")
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	got := m.JSON()
	if *update {
		if err := os.WriteFile("verdicts.json", got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(got, goldenJSON) {
		t.Errorf("verdict manifest drift: regenerate verdicts.json (see test comment)\n-- regenerated --\n%s\n-- golden --\n%s", got, goldenJSON)
	}

	// Second generation from scratch must be byte-identical.
	m2, err := Generate("../..")
	if err != nil {
		t.Fatalf("Generate (second run): %v", err)
	}
	if !bytes.Equal(m2.JSON(), got) {
		t.Error("Generate is not deterministic across runs")
	}
}

// TestManifestShape pins structural invariants the runtime relies on.
func TestManifestShape(t *testing.T) {
	g := Golden()
	for group, members := range Groups {
		gv, ok := g.Groups[group]
		if !ok {
			t.Errorf("group %s missing from golden manifest", group)
			continue
		}
		if gv.Class == Unanalyzed || gv.Class == "" {
			t.Errorf("group %s has non-claiming class %q; Generate must fall back to general", group, gv.Class)
		}
		// The group class must be the meet of its analyzed members.
		want := Unanalyzed
		for _, m := range members {
			ev, ok := g.Entries[m]
			if !ok {
				t.Errorf("entry %s (group %s) missing from golden manifest", m, group)
				continue
			}
			want = Meet(want, ev.Class)
		}
		if want == Unanalyzed {
			want = General
		}
		if gv.Class != want {
			t.Errorf("group %s: class %q, want meet of members %q", group, gv.Class, want)
		}
	}
	for e := range g.Entries {
		found := false
		for _, members := range Groups {
			for _, m := range members {
				if m == e {
					found = true
				}
			}
		}
		if !found {
			t.Errorf("golden entry %s belongs to no witness group", e)
		}
	}
}

// TestSeqSafeTable holds paralg's seqSafe table, the copy of the
// manifest's cell_budget.seqsafe section that gates GrainCutoff at run
// time, equal to the manifest in both directions: every proven entry is
// in the table, and every table entry is proven. The table is read from
// paralg's source, so paralg need not export it and the server need not
// link this package.
func TestSeqSafeTable(t *testing.T) {
	const src = "../paralg/runtime.go"
	f, err := parser.ParseFile(token.NewFileSet(), src, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	table := map[string]bool{}
	found := false
	ast.Inspect(f, func(n ast.Node) bool {
		vs, ok := n.(*ast.ValueSpec)
		if !ok || len(vs.Names) != 1 || vs.Names[0].Name != "seqSafe" || len(vs.Values) != 1 {
			return true
		}
		found = true
		lit, ok := vs.Values[0].(*ast.CompositeLit)
		if !ok {
			t.Fatalf("%s: seqSafe is not a map literal", src)
		}
		for _, elt := range lit.Elts {
			kv, _ := elt.(*ast.KeyValueExpr)
			if kv == nil {
				t.Fatalf("%s: seqSafe entry is not \"entry\": bool", src)
			}
			key, kok := kv.Key.(*ast.BasicLit)
			val, vok := kv.Value.(*ast.Ident)
			if !kok || !vok || key.Kind != token.STRING {
				t.Fatalf("%s: seqSafe entry is not \"entry\": bool", src)
			}
			entry, err := strconv.Unquote(key.Value)
			if err != nil {
				t.Fatal(err)
			}
			table[entry] = val.Name == "true"
		}
		return false
	})
	if !found {
		t.Fatalf("%s declares no seqSafe table", src)
	}

	proven := map[string]bool{}
	for entry, sv := range Golden().CellBudget.SeqSafe {
		if sv.Safe {
			proven[entry] = true
			if !table[entry] {
				t.Errorf("manifest proves %s seqsafe, but paralg's seqSafe table leaves GrainCutoff off for it", entry)
			}
		}
	}
	for entry, on := range table {
		if on && !proven[entry] {
			t.Errorf("paralg's seqSafe table honors GrainCutoff for %s, which the manifest does not prove seqsafe", entry)
		}
	}
}
