package main

import (
	"encoding/json"
	"maps"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"

	"pipefut/internal/serve"
)

func testSpec(t *testing.T) *spec {
	t.Helper()
	sp, err := loadSpec("..")
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

func names(ms []metricSpec) []string {
	out := make([]string, len(ms))
	for i, m := range ms {
		out[i] = m.Name
	}
	return out
}

// TestSpecShape holds BENCHMARK.json to the limits on names and counts,
// and to the harness's own tables.
func TestSpecShape(t *testing.T) {
	sp := testSpec(t)
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := map[string]bool{}
	check := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q does not match %v", n, nameRE)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	if n := len(sp.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(sp.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(sp.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	var wl []string
	for _, w := range sp.Workloads {
		check(w.Name)
		wl = append(wl, w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	var have []string
	for _, w := range workloads() {
		have = append(have, w.name)
	}
	if !slices.Equal(wl, have) {
		t.Errorf("BENCHMARK.json workloads %v, harness %v", wl, have)
	}
	setup := false
	for _, m := range sp.EndToEnd {
		check(m.Name)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for _, m := range sp.PerLayer {
		check(m.Name)
		if m.Bound != 0 {
			t.Errorf("%s: a per-layer metric has no bound", m.Name)
		}
	}
	if !slices.Equal(names(sp.PerLayer), perLayerNames) {
		t.Errorf("BENCHMARK.json per_layer names differ from the harness's perLayerNames")
	}
}

// TestQuickFullSet runs every workload end to end and traced in quick
// mode and checks what came out: every name in BENCHMARK.json and no
// other, no failed request, and the two sums the trace must satisfy.
func TestQuickFullSet(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the benchmark; skipped in -short mode")
	}
	sp := testSpec(t)
	dir := t.TempDir()
	bin := filepath.Join(dir, "benchmark")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	outFile := filepath.Join(dir, "quick.json")
	start := time.Now()
	out, err := exec.Command(bin, "-quick", "-trace", "1", "-out", outFile).CombinedOutput()
	if err != nil {
		t.Fatalf("quick full set: %v\n%s", err, out)
	}
	t.Logf("quick full set took %v", time.Since(start))
	rf, err := readResultFile(outFile)
	if err != nil {
		t.Fatal(err)
	}
	if rf.Host.NProc == 0 || rf.Host.GOMAXPROCS == 0 || rf.Host.GoVersion == "" || rf.Host.Commit == "" {
		t.Errorf("result file does not record the host: %+v", rf.Host)
	}
	if len(rf.Runs) != len(sp.Workloads) {
		t.Fatalf("%d runs, want one per workload (%d)", len(rf.Runs), len(sp.Workloads))
	}
	keys := func(m map[string]float64) []string { return slices.Sorted(maps.Keys(m)) }
	sorted := func(xs []string) []string { return slices.Sorted(slices.Values(xs)) }
	for i, r := range rf.Runs {
		if r.Workload != sp.Workloads[i].Name {
			t.Errorf("run %d is %s, want %s", i, r.Workload, sp.Workloads[i].Name)
		}
		if r.FailShare != 0 || r.Attempted == 0 {
			t.Errorf("%s: fail_share %v over %d attempted", r.Workload, r.FailShare, r.Attempted)
		}
		if !slices.Equal(keys(r.EndToEnd), sorted(names(sp.EndToEnd))) {
			t.Errorf("%s: end-to-end metrics %v, BENCHMARK.json %v", r.Workload, keys(r.EndToEnd), names(sp.EndToEnd))
		}
		if !slices.Equal(keys(r.PerLayer), sorted(names(sp.PerLayer))) {
			t.Errorf("%s: per-layer metrics differ from BENCHMARK.json", r.Workload)
		}
		for k, v := range r.EndToEnd {
			if !(v > 0) {
				t.Errorf("%s: %s = %v, an end-to-end metric is never 0", r.Workload, k, v)
			}
		}
		pl := r.PerLayer
		near := func(what string, got, want float64) {
			if math.Abs(got-want) > 1e-6*math.Max(math.Abs(want), 1) {
				t.Errorf("%s: %s: %v != %v", r.Workload, what, got, want)
			}
		}
		near("loadgen.wait_us + serve.call_us = trace.request_us", pl["loadgen.wait_us"]+pl["serve.call_us"], pl["trace.request_us"])
		near("serve.self_us + paralg.root_us + persist.ack_always_us = serve.call_unloaded_us",
			pl["serve.self_us"]+pl["paralg.root_us"]+pl["persist.ack_always_us"], pl["serve.call_unloaded_us"])
		if _, err := os.Stat(filepath.Join("results", "trace_"+r.Workload+".json")); err != nil {
			t.Errorf("%s: no span file: %v", r.Workload, err)
		}
	}
}

// TestSpanFileSums reads a span file back the way a user would and checks
// that, per request, the wait and call spans' self times add up to the
// request span.
func TestSpanFileSums(t *testing.T) {
	tr := &tracer{}
	ph := phase{samples: []sample{
		{req: &request{}, due: 0, sent: 5, done: 30},
		{req: &request{}, due: 10, sent: 10, done: 50},
		{req: &request{}, due: 20, sent: 25, done: 40, resp: response{err: serve.ErrOverloaded}},
	}}
	calls := tr.addPhase(&ph, "serve.call")
	if calls[2] != 0 || len(tr.spans) != 6 {
		t.Fatalf("a failed request must leave no spans: calls %v, %d spans", calls, len(tr.spans))
	}
	tr.add(calls[0], 0, "paralg.root", 100, 400, true) // a replay: outside the parent, ignored by self time
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := tr.dump(path, "w", 1); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		Columns []string `json:"columns"`
		Spans   [][]any  `json:"spans"`
	}
	if err := json.Unmarshal(b, &file); err != nil {
		t.Fatalf("span file is not JSON: %v", err)
	}
	if len(file.Spans) != 7 || len(file.Columns) != len(file.Spans[0]) {
		t.Fatalf("%d spans with %d columns each, header has %d", len(file.Spans), len(file.Spans[0]), len(file.Columns))
	}
	self := selfTimes(tr.spans)
	for _, s := range tr.spans {
		if s.Name != "request" {
			continue
		}
		if self[s.ID] != 0 {
			t.Errorf("request %d keeps self time %v; its children cover it", s.Req, self[s.ID])
		}
		var kids time.Duration
		for _, k := range tr.spans {
			if k.Parent == s.ID {
				kids += self[k.ID]
			}
		}
		if kids != s.End-s.Start {
			t.Errorf("request %d: children's self times %v, span %v", s.Req, kids, s.End-s.Start)
		}
	}
	if got := self[calls[0]]; got != 25 {
		t.Errorf("call span self time %v, want 25: a replay child must not be subtracted", got)
	}
}

// TestSelfTimeOverlap covers the general rule: children that overlap or
// stick out of the parent are counted once and clipped.
func TestSelfTimeOverlap(t *testing.T) {
	spans := []span{
		{ID: 1, Start: 0, End: 100, Name: "p"},
		{ID: 2, Parent: 1, Start: 10, End: 40, Name: "a"},
		{ID: 3, Parent: 1, Start: 30, End: 60, Name: "b"},
		{ID: 4, Parent: 1, Start: 90, End: 130, Name: "c"},
	}
	if got := selfTimes(spans)[1]; got != 40 {
		t.Errorf("self time %v, want 40 (covered 10..60 and 90..100)", got)
	}
}

// TestWindowedP99 covers the estimator behind p99_ms: one long stall lifts
// the 99th percentile of all samples at once but not the median window's,
// and a phase shorter than two windows is one window.
func TestWindowedP99(t *testing.T) {
	lats := make([]time.Duration, 10*p99Window)
	for i := range lats {
		lats[i] = time.Duration(i%100+1) * time.Millisecond
	}
	for i := range p99Window {
		lats[3*p99Window+i] = time.Second // one window stalled throughout
	}
	got, windows := windowedP99(lats)
	if windows != 10 || got != 100*time.Millisecond {
		t.Errorf("windowed p99 %v over %d windows, want 100ms over 10", got, windows)
	}
	if lats[0] != time.Millisecond {
		t.Error("windowedP99 reordered its input")
	}
	if pooled := quantile(slices.Clone(lats), 0.99); pooled != time.Second {
		t.Errorf("p99 of all samples %v, want 1s", pooled)
	}
	short := lats[:2*p99Window-1]
	if got, windows := windowedP99(short); windows != 1 || got != quantile(slices.Clone(short), 0.99) {
		t.Errorf("short phase: %v over %d windows, want the plain p99 over 1", got, windows)
	}
}

// TestOracleCatchesWrongAnswers makes sure the output checks can fail: a
// wrong contains answer, a wrong DAG result, a lost write and a stale cut
// are each reported.
func TestOracleCatchesWrongAnswers(t *testing.T) {
	cut := func(v uint64) serve.Cut { return serve.Cut{v, 0, 0, 0} }
	base := func() *checker {
		c := &checker{}
		c.add(&sample{req: &request{kind: opUnion, keys: []int{1, 2, 3}}, resp: response{cut: cut(1)}})
		c.add(&sample{req: &request{kind: opDifference, keys: []int{2}}, resp: response{cut: cut(2)}})
		return c
	}
	if bad, problems := base().verify([]int{1, 3}, cut(2)); bad != 0 {
		t.Fatalf("a correct history failed its checks: %v", problems)
	}
	c := base()
	c.add(&sample{req: &request{kind: opContains, key: 2}, resp: response{version: 1, ok: true}})
	c.add(&sample{req: &request{kind: opContains, key: 2}, resp: response{version: 2, ok: false}})
	if bad, problems := c.verify([]int{1, 3}, cut(2)); bad != 0 {
		t.Fatalf("versioned contains answers failed: %v", problems)
	}
	c = base()
	c.add(&sample{req: &request{kind: opContains, key: 2}, resp: response{version: 2, ok: true}})
	if bad, _ := c.verify([]int{1, 3}, cut(2)); bad == 0 {
		t.Error("a stale contains answer passed")
	}
	filter := &request{kind: opDAG, dag: &serve.DAGRequest{Nodes: []serve.DAGNode{
		{Ref: serve.SetRef}, {Keys: []int{1, 2, 9}}, {Op: "intersect", Args: []int{0, 1}},
	}, Want: serve.DAGWantKeys}}
	c = base()
	c.add(&sample{req: filter, resp: response{cut: cut(2), count: 1, keys: []int{1}}})
	if bad, problems := c.verify([]int{1, 3}, cut(2)); bad != 0 {
		t.Fatalf("a correct dag answer failed: %v", problems)
	}
	c = base()
	c.add(&sample{req: filter, resp: response{cut: cut(2), count: 2, keys: []int{1, 2}}})
	if bad, _ := c.verify([]int{1, 3}, cut(2)); bad == 0 {
		t.Error("a wrong dag answer passed")
	}
	if bad, _ := base().verify([]int{1}, cut(2)); bad == 0 {
		t.Error("a lost write passed")
	}
	if bad, _ := base().verify([]int{1, 3}, cut(1)); bad == 0 {
		t.Error("a final cut behind the acknowledged versions passed")
	}
}

// TestCompare checks the gate itself: inside the bound passes, outside
// fails, and files from hosts with different core counts are refused.
func TestCompare(t *testing.T) {
	sp := testSpec(t)
	dir := t.TempDir()
	write := func(name string, nproc int, scale float64) string {
		rf := resultFile{Host: host{NProc: nproc, GOMAXPROCS: nproc, Seconds: 20}}
		for _, w := range sp.Workloads {
			r := runRecord{Workload: w.Name, Attempted: 100, EndToEnd: map[string]float64{}}
			for _, m := range sp.EndToEnd {
				r.EndToEnd[m.Name] = 10
				if m.Name == "p50_ms" {
					r.EndToEnd[m.Name] = 10 * scale
				}
			}
			rf.Runs = append(rf.Runs, r)
		}
		b, err := json.Marshal(rf)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	var p50 float64
	for _, m := range sp.EndToEnd {
		if m.Name == "p50_ms" {
			p50 = m.Bound
		}
	}
	a := write("a.json", 2, 1)
	if err := compare(sp, a, write("same.json", 2, 1+p50/2)); err != nil {
		t.Errorf("inside the bound: %v", err)
	}
	if err := compare(sp, a, write("worse.json", 2, 1+2*p50)); err == nil {
		t.Error("outside the bound passed")
	}
	if err := compare(sp, a, write("cores.json", 8, 1)); err == nil || !strings.Contains(err.Error(), "refusing") {
		t.Errorf("different core counts: %v", err)
	}
}

// TestFormatAndVet keeps the package clean under the tools CI runs.
func TestFormatAndVet(t *testing.T) {
	out, err := exec.Command("gofmt", "-l", ".").CombinedOutput()
	if err != nil || len(out) > 0 {
		t.Errorf("gofmt -l: %v\n%s", err, out)
	}
	if out, err := exec.Command("go", "vet", ".").CombinedOutput(); err != nil {
		t.Errorf("go vet: %v\n%s", err, out)
	}
}
