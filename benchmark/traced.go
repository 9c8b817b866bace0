package main

// The traced run: the same workload driven for a share of the time with
// spans kept, then every layer probed on the operands the live phase
// used. It reports the per-layer metrics; the end-to-end run reports
// nothing from here.

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime/metrics"
	"time"

	"pipefut/internal/serve"
)

// perLayerNames is every per-layer metric, in the order BENCHMARK.json
// lists them. A layer that a workload bypasses reports 0 there: that is
// the bypass prediction, checked by reading the number.
var perLayerNames = []string{
	"trace.request_us", "loadgen.wait_us", "serve.call_us",
	"loadgen.late_p99_ms", "loadgen.trace_overhead_share",
	"serve.call_unloaded_us", "serve.self_us", "serve.queue_wait_ms", "serve.coalesce_ratio",
	"serve.http_overhead_us", "serve.metrics_scrape_us", "serve.shed_us",
	"serve.slo_rate_rps", "serve.t26_rps",
	"paralg.cells_per_op", "paralg.root_us", "paralg.materialize_us", "paralg.over_seq_ratio",
	"paralg.build_us", "paralg.contains_us", "seqtreap.op_us",
	"sched.fork_ns", "sched.cell_ns", "sched.reactivate_ns", "sched.submit_read_us",
	"sched.cells_per_req", "sched.spawns_per_req", "sched.suspensions_per_req", "sched.steals_per_req",
	"sched.deviations_per_req", "sched.mailbox_hit_share", "sched.busy_share",
	"persist.ack_always_us", "persist.ack_batch_us", "persist.records_per_sync", "persist.bytes_per_key",
	"persist.snapshot_ms", "persist.snapshots_per_s", "persist.snapshot_lag",
	"persist.recovery_ms", "persist.replayed_records",
	"goruntime.alloc_kb_per_req", "goruntime.allocs_per_req", "goruntime.gc_cycles_per_s",
	"goruntime.gc_cpu_share", "goruntime.heap_live_mb",
}

// Traced-run phase lengths as shares of -seconds (the warm-up comes on
// top, as in the end-to-end run). Open-loop workloads:
// 0.15 + 0.25 + 0.10 + 0.05 + ladder 5×0.06 + 0.05 + 0.10 = 1.0.
const (
	openUntracedShare   = 0.15
	openTracedShare     = 0.25
	tracedSatShare      = 0.10
	closedUntracedShare = 0.30
	closedTracedShare   = 0.50
	unloadedShare       = 0.05
	rungShare           = 0.06
	replayShare         = 0.05
	persistProbeShare   = 0.05
	t26Share            = 0.10
)

// The SLO a ladder rung must meet to count.
const (
	sloP99       = 45 * time.Millisecond
	sloFailShare = 0.01
	sloAchieved  = 0.97
)

// goRuntime is a sample of the Go runtime's own accounting.
type goRuntime struct {
	allocBytes, allocObjects, gcCycles, heapLive uint64
	gcCPUSeconds                                 float64
}

func readGoRuntime() goRuntime {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/heap/allocs:objects"},
		{Name: "/gc/cycles/total:gc-cycles"}, {Name: "/gc/heap/live:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
	}
	metrics.Read(s)
	return goRuntime{s[0].Value.Uint64(), s[1].Value.Uint64(), s[2].Value.Uint64(), s[3].Value.Uint64(), s[4].Value.Float64()}
}

// live is what the traced run's live phases produced: the same traffic
// untraced then traced, with the server's and the Go runtime's counters
// read on either side of the traced phase, and (open-loop workloads) on
// either side of a short saturation phase.
type live struct {
	untraced, traced    phase
	before, after       serve.Metrics
	gr0, gr1            goRuntime
	satBefore, satAfter serve.Metrics
}

func driveLive(cfg runCfg, in *inputs, e *env, res *runResult) (*live, error) {
	w, lv := cfg.w, &live{}
	counters := func(m *serve.Metrics, gr *goRuntime) error {
		var err error
		*m, err = e.t.metrics()
		*gr = readGoRuntime()
		return err
	}
	// An open-loop phase lasts as long as its pre-drawn schedule; share
	// sizes a closed-loop one.
	run := func(sch schedule, share float64) phase {
		if w.rate > 0 {
			return openLoop(e.t, sch.due, sch.reqs)
		}
		return closedLoop(e.t, w.clients, cfg.share(share), &in.pool)
	}
	if w.rate > 0 {
		late, err := calibrate(w, cfg.seed)
		if err != nil {
			return nil, err
		}
		res.notes = append(res.notes, fmt.Sprintf("open-loop calibration: late p99 %v against a no-op target (limit %v)", late, lateLimit))
	}
	warm := run(in.warm, warmShare)
	lv.untraced = run(in.untraced, closedUntracedShare)
	if err := counters(&lv.before, &lv.gr0); err != nil {
		return nil, err
	}
	lv.traced = run(in.traced, closedTracedShare)
	if err := counters(&lv.after, &lv.gr1); err != nil {
		return nil, err
	}
	e.check.addPhases(&warm, &lv.untraced, &lv.traced)
	if w.rate > 0 {
		var err error
		satWarm := closedLoop(e.t, w.satClients, cfg.share(satWarmShare), &in.pool)
		if lv.satBefore, err = e.t.metrics(); err != nil {
			return nil, err
		}
		sat := closedLoop(e.t, w.satClients, cfg.share(tracedSatShare), &in.pool)
		if lv.satAfter, err = e.t.metrics(); err != nil {
			return nil, err
		}
		e.check.addPhases(&satWarm, &sat)
	}
	return lv, nil
}

// countMetrics fills the metrics that are counter deltas across the
// traced phase, per completed request.
func countMetrics(w workloadDef, lv *live, reqs float64, m map[string]float64) {
	before, after, elapsed := lv.before, lv.after, lv.traced.elapsed
	cells := func(x serve.Metrics) int64 { return x.CellsShared + x.CellsLinear + x.CellsForwarded }
	m["sched.cells_per_req"] = float64(cells(after)-cells(before)) / reqs
	m["sched.spawns_per_req"] = float64(after.Spawns-before.Spawns) / reqs
	m["sched.suspensions_per_req"] = float64(after.Suspensions-before.Suspensions) / reqs
	m["sched.steals_per_req"] = float64(after.Steals-before.Steals) / reqs
	dev, hits := after.Deviations-before.Deviations, after.MailboxHits-before.MailboxHits
	m["sched.deviations_per_req"] = float64(dev) / reqs
	if dev+hits > 0 {
		m["sched.mailbox_hit_share"] = float64(hits) / float64(dev+hits)
	}
	var busy int64
	for i := range after.BusyNanos {
		busy += after.BusyNanos[i]
		if i < len(before.BusyNanos) {
			busy -= before.BusyNanos[i]
		}
	}
	if n := len(after.BusyNanos); n > 0 {
		m["sched.busy_share"] = float64(busy) / (float64(n) * float64(elapsed))
	}
	if w.durable {
		var keysLogged int
		for i := range lv.traced.samples {
			if s := &lv.traced.samples[i]; s.resp.err == nil && s.req.isMutation() {
				keysLogged += len(sortedDistinct(s.req.keys))
			}
		}
		if syncs := after.WalSyncs - before.WalSyncs; syncs > 0 {
			m["persist.records_per_sync"] = float64(after.WalRecords-before.WalRecords) / float64(syncs)
		}
		if keysLogged > 0 {
			m["persist.bytes_per_key"] = float64(after.BytesLogged-before.BytesLogged) / float64(keysLogged)
		}
		m["persist.snapshots_per_s"] = float64(after.Snapshots-before.Snapshots) / elapsed.Seconds()
		m["persist.snapshot_lag"] = float64(after.SnapshotLag)
	}
	if !w.http { // pipeserve's runtime cannot be read from outside
		m["goruntime.alloc_kb_per_req"] = float64(lv.gr1.allocBytes-lv.gr0.allocBytes) / 1024 / reqs
		m["goruntime.allocs_per_req"] = float64(lv.gr1.allocObjects-lv.gr0.allocObjects) / reqs
		m["goruntime.gc_cycles_per_s"] = float64(lv.gr1.gcCycles-lv.gr0.gcCycles) / elapsed.Seconds()
		m["goruntime.gc_cpu_share"] = (lv.gr1.gcCPUSeconds - lv.gr0.gcCPUSeconds) / lv.traced.cpu.Seconds()
		m["goruntime.heap_live_mb"] = float64(lv.gr1.heapLive) / (1 << 20)
	}
	if w.rate > 0 {
		var pieces, batches int64
		for i := range lv.satAfter.PerShard {
			pieces += lv.satAfter.PerShard[i].Admitted - lv.satBefore.PerShard[i].Admitted
			batches += lv.satAfter.PerShard[i].Batches - lv.satBefore.PerShard[i].Batches
		}
		if batches > 0 {
			m["serve.coalesce_ratio"] = float64(pieces) / float64(batches)
		}
	}
}

// probeUnloaded sends the same mix one request at a time and returns the
// median latency over all of it and over its mutations (all of it, if it
// has none).
func probeUnloaded(cfg runCfg, in *inputs, e *env) (all, call time.Duration) {
	ph := closedLoop(e.t, 1, cfg.share(unloadedShare), &in.unloaded)
	e.check.addPhases(&ph)
	var every, muts []time.Duration
	for i := range ph.samples {
		if s := &ph.samples[i]; s.resp.err == nil {
			every = append(every, s.latency())
			if s.req.isMutation() {
				muts = append(muts, s.latency())
			}
		}
	}
	all = quantile(every, 0.5)
	if len(muts) == 0 {
		return all, all
	}
	return all, quantile(muts, 0.5)
}

// climbLadder offers the fixed rates in turn on the live server and
// returns the highest that met the SLO, stopping at the first that did
// not: past the knee the backlog only grows.
func climbLadder(cfg runCfg, in *inputs, e *env, res *runResult) float64 {
	best := 0.0
	for i, rung := range in.ladder {
		ph := openLoop(e.t, rung.due, rung.reqs)
		e.check.addPhases(&ph)
		st := ph.stats()
		offered := float64(len(rung.reqs)) / cfg.share(rungShare).Seconds()
		ok := st.pooledP99 <= sloP99 && float64(st.failed) <= sloFailShare*float64(st.attempted) && st.rps >= sloAchieved*offered
		res.notes = append(res.notes, fmt.Sprintf("ladder %g/s: p99 %v, achieved %.0f/s of %.0f/s offered, %d failed, meets SLO: %t",
			cfg.w.ladder[i], st.pooledP99, st.rps, offered, st.failed, ok))
		if !ok {
			break
		}
		best = cfg.w.ladder[i]
	}
	return best
}

func runTraced(cfg runCfg, in *inputs, e *env, res *runResult) error {
	w, m := cfg.w, res.metrics
	for _, name := range perLayerNames {
		m[name] = 0
	}
	lv, err := driveLive(cfg, in, e, res)
	if err != nil {
		return err
	}
	us0, ts := lv.untraced.stats(), lv.traced.stats()
	res.attempted, res.failed = us0.attempted+ts.attempted, us0.failed+ts.failed
	if ts.n == 0 || us0.n == 0 {
		return errors.New("a live phase completed no request")
	}
	m["loadgen.late_p99_ms"] = ms(ts.lateP99)
	m["loadgen.trace_overhead_share"] = float64(ts.p50)/float64(us0.p50) - 1
	countMetrics(w, lv, float64(ts.n), m)

	unloadedAll, unloadedCall := probeUnloaded(cfg, in, e)
	m["serve.queue_wait_ms"] = ms(ts.p50 - unloadedAll)
	m["serve.call_unloaded_us"] = us(unloadedCall)
	m["serve.slo_rate_rps"] = climbLadder(cfg, in, e, res)

	// Spans of the live requests, then each lower layer replayed on the
	// traced phase's mutations.
	tr := &tracer{}
	callName := "serve.call"
	if w.http {
		callName = "serve.http"
	}
	calls := tr.addPhase(&lv.traced, callName)
	var replay []replayed
	for i := range lv.traced.samples {
		if s := &lv.traced.samples[i]; s.resp.err == nil && s.req.isMutation() {
			replay = append(replay, replayed{req: s.req, id: i, callSpan: calls[i]})
		}
	}
	pr := replayParalg(replay, e.preload, cfg.share(replayShare), tr)
	m["paralg.cells_per_op"] = pr.cellsPerOp
	m["paralg.root_us"] = pr.rootUS
	m["paralg.materialize_us"] = pr.materialiseUS
	m["paralg.build_us"] = pr.buildUS
	m["paralg.contains_us"] = pr.containsUS
	m["seqtreap.op_us"] = pr.seqUS
	if pr.seqUS > 0 {
		m["paralg.over_seq_ratio"] = pr.materialiseUS / pr.seqUS
	}
	res.notes = append(res.notes, fmt.Sprintf("traced phase: %d requests, %d mutations replayed against paralg and seqtreap", ts.n, pr.n))
	sp := probeSched()
	m["sched.fork_ns"], m["sched.cell_ns"] = sp.forkNS, sp.cellNS
	m["sched.reactivate_ns"], m["sched.submit_read_us"] = sp.reactivateNS, sp.submitReadUS
	if w.durable {
		dir := filepath.Join(buildDir(cfg.root), fmt.Sprintf("probe-%d", os.Getpid()))
		pp, err := probePersist(dir, replay, pieceOf(sortedDistinct(e.preload), 0), cfg.share(persistProbeShare), tr)
		os.RemoveAll(dir)
		if err != nil {
			return err
		}
		m["persist.ack_always_us"], m["persist.ack_batch_us"], m["persist.snapshot_ms"] = pp.ackAlwaysUS, pp.ackBatchUS, pp.snapshotMS
	}
	// What serve itself adds to an unloaded call: the call, less the layers
	// below it measured alone. (ack_always is 0 when nothing is logged.)
	m["serve.self_us"] = m["serve.call_unloaded_us"] - m["paralg.root_us"] - m["persist.ack_always_us"]
	if w.t26Control {
		rps, problems, err := t26Control(cfg, e.preload)
		if err != nil {
			return err
		}
		m["serve.t26_rps"] = rps
		res.problems = append(res.problems, problems...)
	}
	if w.http {
		if err := probeHTTPEdge(cfg, e, in, m); err != nil {
			return err
		}
	}

	means := meanSelfByName(tr.spans)
	m["loadgen.wait_us"], m["serve.call_us"] = means["loadgen.wait"], means[callName]
	// The request span keeps no self time: its two children cover it.
	m["trace.request_us"] = means["request"] + means["loadgen.wait"] + means[callName]
	if err := os.MkdirAll(cfg.results, 0o755); err != nil {
		return err
	}
	path := filepath.Join(cfg.results, "trace_"+w.name+".json")
	if err := tr.dump(path, w.name, cfg.seed); err != nil {
		return err
	}
	res.notes = append(res.notes, fmt.Sprintf("%d spans written to %s", len(tr.spans), path))
	return finish(e, res)
}

// t26Control runs the t26 backend as a control on the point mix: closed
// loop, 8 clients, same preload. It is the other side of the backend
// ordering that flips with working-set size.
func t26Control(cfg runCfg, preload []int) (float64, []string, error) {
	sc := baseConfig()
	sc.Backend = "t26"
	t, err := openInproc(sc)
	if err != nil {
		return 0, nil, err
	}
	chk := &checker{}
	if err := preloadInto(t, preload, chk); err != nil {
		t.close()
		return 0, nil, fmt.Errorf("t26 control: %w", err)
	}
	pool := poolCursor{pool: cfg.w.drawRequests(rngFor(cfg.seed, rngT26), 1<<13)}
	ph := closedLoop(t, cfg.w.satClients, cfg.share(t26Share), &pool)
	chk.addPhases(&ph)
	final, cut, err := t.contents()
	t.close()
	if err != nil {
		return 0, nil, fmt.Errorf("t26 control: %w", err)
	}
	_, problems := chk.verify(final, cut)
	for i := range problems {
		problems[i] = "t26 control: " + problems[i]
	}
	return ph.stats().rps, problems, nil
}

// httpProbeCount is how many sequential requests an HTTP edge probe times.
const httpProbeCount = 2048

// probeHTTPEdge prices serve's HTTP edge: an unloaded contains over HTTP
// against the same call in process, a metrics scrape, and how fast an
// overloaded server says no.
func probeHTTPEdge(cfg runCfg, e *env, in *inputs, m map[string]float64) error {
	ht := e.t.(*httpTarget)
	var probes []*request
	for i := range in.pool.pool {
		if r := &in.pool.pool[i]; r.kind == opContains && len(probes) < httpProbeCount {
			probes = append(probes, r)
		}
	}
	timeEach := func(t target) (time.Duration, error) {
		lats := make([]time.Duration, 0, len(probes))
		for _, r := range probes {
			t0 := time.Now()
			if resp := t.do(r); resp.err != nil {
				return 0, resp.err
			}
			lats = append(lats, time.Since(t0))
		}
		return quantile(lats, 0.5), nil
	}
	overHTTP, err := timeEach(ht)
	if err != nil {
		return fmt.Errorf("http edge probe: %w", err)
	}
	local, err := openInproc(baseConfig())
	if err != nil {
		return err
	}
	if err := preloadInto(local, e.preload, &checker{}); err != nil {
		local.close()
		return fmt.Errorf("http edge probe: %w", err)
	}
	inProcess, err := timeEach(local)
	local.close()
	if err != nil {
		return fmt.Errorf("http edge probe: %w", err)
	}
	m["serve.http_overhead_us"] = us(overHTTP - inProcess)

	scrapes := make([]time.Duration, 0, 256)
	for i := 0; i < cap(scrapes); i++ {
		t0 := time.Now()
		if _, err := ht.metrics(); err != nil {
			return fmt.Errorf("metrics scrape: %w", err)
		}
		scrapes = append(scrapes, time.Since(t0))
	}
	m["serve.metrics_scrape_us"] = us(quantile(scrapes, 0.5))

	// At -highwater 1 every shard's mark is 1, and a DAG is charged its
	// node count before anything else happens, so every DAG sheds.
	over, err := startPipeserve(filepath.Join(buildDir(cfg.root), "pipeserve"), 1, "-highwater", "1")
	if err != nil {
		return err
	}
	defer over.close()
	body := []byte(`{"nodes":[{"keys":[1]},{"keys":[2]},{"op":"union","args":[0,1]}]}`)
	sheds := make([]time.Duration, 0, httpProbeCount)
	for i := 0; i < cap(sheds); i++ {
		t0 := time.Now()
		err := over.post("/dag", body, new(serve.DAGResponse))
		var st errStatus
		if !errors.As(err, &st) || st.code != 429 {
			return fmt.Errorf("shed probe: want http 429, got %v", err)
		}
		sheds = append(sheds, time.Since(t0))
	}
	m["serve.shed_us"] = us(quantile(sheds, 0.5))
	return nil
}
