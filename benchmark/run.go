package main

// One workload in one process: set the target up, drive the phases, read
// the accounting, check the outputs. The full-set mode (main.go) runs
// this once per workload in a fresh child process, so peak_rss_mb and
// the Go runtime's state are per workload.

import (
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"time"

	"pipefut/internal/serve"
)

// processStart approximates the process's start: package initialisation
// runs a few milliseconds after exec.
var processStart = time.Now()

type runCfg struct {
	root      string
	results   string // where a traced run writes its span file
	w         workloadDef
	seed      uint64
	seconds   float64 // the measured time; every phase is a fixed share of it
	trace     bool
	setups    int // how many times set-up is timed (the median is reported)
	setupOnly bool
}

// share returns the given fraction of the run's measured time.
func (c runCfg) share(f float64) time.Duration {
	return time.Duration(f * c.seconds * float64(time.Second))
}

// Phase lengths as shares of -seconds. The warm-ups come on top: they are
// not measured.
const (
	warmShare    = 0.10  // before the primary phase
	primaryShare = 0.80  // open-loop workloads: the Poisson phase
	satWarmShare = 0.025 // before the saturation phase (the server is already warm)
	satShare     = 0.20  // open-loop workloads: the closed-loop saturation phase
)

// runResult is what one run reports.
type runResult struct {
	metrics   map[string]float64
	attempted int
	failed    int
	notes     []string // human-readable lines: sample counts, validity
	problems  []string // output-check failures; non-empty means incorrect
}

// env is a target set up and ready for traffic.
type env struct {
	t       target
	check   *checker
	preload []int
	dataDir string // durable workloads: the live data directory
	setupS  float64
}

// preloadInto unions the working set into a fresh target, records the
// mutation for the output checks, and waits until the set is really there:
// Len walks every node, so it returns only once the pipelined build has
// fully materialised.
func preloadInto(t target, keys []int, check *checker) error {
	load := sample{req: &request{kind: opUnion, keys: keys}}
	if load.resp = t.do(load.req); load.resp.err != nil {
		return fmt.Errorf("preload: %w", load.resp.err)
	}
	check.add(&load)
	if n, err := t.length(); err != nil || n != len(keys) {
		return fmt.Errorf("preload: len = %d, %v; want %d", n, err, len(keys))
	}
	return nil
}

// setUp draws nothing itself: it builds the server, preloads the working
// set and confirms it is fully materialised. setupS runs from process
// start, less the time spent compiling pipeserve.
func setUp(cfg runCfg) (*env, error) {
	e := &env{check: &checker{}}
	var buildTime time.Duration
	if err := os.MkdirAll(buildDir(cfg.root), 0o755); err != nil {
		return nil, err
	}
	switch {
	case cfg.w.http:
		t0 := time.Now()
		bin, err := buildPipeserve(cfg.root)
		if err != nil {
			return nil, err
		}
		buildTime = time.Since(t0)
		t, err := startPipeserve(bin, cfg.w.clients)
		if err != nil {
			return nil, err
		}
		e.t = t
	default:
		sc := baseConfig()
		if cfg.w.durable {
			e.dataDir = filepath.Join(buildDir(cfg.root), fmt.Sprintf("data-%d", os.Getpid()))
			if err := os.RemoveAll(e.dataDir); err != nil {
				return nil, err
			}
			sc.DataDir, sc.Fsync = e.dataDir, "always"
		}
		t, err := openInproc(sc)
		if err != nil {
			return nil, err
		}
		e.t = t
	}
	e.preload = drawPreload(cfg.seed)
	if err := preloadInto(e.t, e.preload, e.check); err != nil {
		e.tearDown()
		return nil, err
	}
	e.setupS = (time.Since(processStart) - buildTime).Seconds()
	return e, nil
}

func (e *env) tearDown() error {
	err := e.t.close()
	if e.dataDir != "" {
		if rmErr := os.RemoveAll(e.dataDir); err == nil {
			err = rmErr
		}
	}
	return err
}

// otherSetups times set-up n more times, each in a fresh process started
// with the same flags plus -setup-only, one after another while this
// process's own server sits idle.
func otherSetups(cfg runCfg, n int) ([]float64, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var out []float64
	for i := 0; i < n; i++ {
		cmd := exec.Command(self, "-workload", cfg.w.name, "-seed", strconv.FormatUint(cfg.seed, 10),
			"-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64), "-setup-only")
		cmd.Stderr = os.Stderr
		b, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("set-up child: %w", err)
		}
		s, err := strconv.ParseFloat(strings.TrimSpace(string(b)), 64)
		if err != nil {
			return nil, fmt.Errorf("set-up child printed %q", b)
		}
		out = append(out, s)
	}
	return out, nil
}

// run executes one workload end to end and returns its end-to-end
// metrics (or, traced, its per-layer metrics).
func run(cfg runCfg) (*runResult, error) {
	in := drawInputs(cfg)
	e, err := setUp(cfg)
	if err != nil {
		return nil, err
	}
	if cfg.setupOnly {
		fmt.Println(e.setupS)
		return nil, e.tearDown()
	}
	res := &runResult{metrics: map[string]float64{}}
	if cfg.trace {
		err = runTraced(cfg, in, e, res)
	} else {
		err = runEndToEnd(cfg, in, e, res)
	}
	if err != nil {
		e.tearDown()
		return nil, err
	}
	return res, nil
}

// schedule is a pre-drawn open-loop phase: due offsets and one request
// per arrival.
type schedule struct {
	due  []time.Duration
	reqs []request
}

// inputs is everything pre-drawn for one run.
type inputs struct {
	warm, primary    schedule   // end-to-end run, open loop
	untraced, traced schedule   // traced run, open loop
	ladder           []schedule // traced run: one per SLO rung
	pool             poolCursor // every closed-loop phase
	unloaded         poolCursor // traced run: the one-at-a-time probe
}

func drawInputs(cfg runCfg) *inputs {
	w := cfg.w
	in := &inputs{}
	in.pool.pool = w.drawRequests(rngFor(cfg.seed, rngSaturation), w.pool)
	draw := func(purpose uint64, rate, share float64) schedule {
		due, reqs := w.drawSchedule(rngFor(cfg.seed, purpose), rate, cfg.share(share))
		return schedule{due, reqs}
	}
	if w.rate > 0 {
		in.warm = draw(rngWarmup, w.rate, warmShare)
	}
	if !cfg.trace {
		if w.rate > 0 {
			in.primary = draw(rngPrimary, w.rate, primaryShare)
		}
		return in
	}
	in.unloaded.pool = w.drawRequests(rngFor(cfg.seed, rngUnloaded), min(w.pool, 1<<13))
	if w.rate > 0 {
		in.untraced = draw(rngUntraced, w.rate, openUntracedShare)
		in.traced = draw(rngTraced, w.rate, openTracedShare)
		for i, rate := range w.ladder {
			in.ladder = append(in.ladder, draw(rngLadder+uint64(i), rate, rungShare))
		}
	}
	return in
}

func runEndToEnd(cfg runCfg, in *inputs, e *env, res *runResult) error {
	w := cfg.w
	setups := []float64{e.setupS}
	more, err := otherSetups(cfg, cfg.setups-1)
	if err != nil {
		return err
	}
	setups = append(setups, more...)
	res.metrics["setup_s"] = median(setups)

	var primary, sat phase
	if w.rate > 0 {
		late, err := calibrate(w, cfg.seed)
		if err != nil {
			return err
		}
		res.notes = append(res.notes, fmt.Sprintf("open-loop calibration: late p99 %v against a no-op target (limit %v)", late, lateLimit))
		warm := openLoop(e.t, in.warm.due, in.warm.reqs)
		primary = openLoop(e.t, in.primary.due, in.primary.reqs)
		satWarm := closedLoop(e.t, w.satClients, cfg.share(satWarmShare), &in.pool)
		sat = closedLoop(e.t, w.satClients, cfg.share(satShare), &in.pool)
		e.check.addPhases(&warm, &primary, &satWarm, &sat)
	} else {
		warm := closedLoop(e.t, w.clients, cfg.share(warmShare), &in.pool)
		primary = closedLoop(e.t, w.clients, cfg.share(1), &in.pool)
		sat = primary
		e.check.addPhases(&warm, &primary)
	}
	rss, err := peakRSSMB(e.t.pid())
	if err != nil {
		return err
	}

	ps, ss := primary.stats(), sat.stats()
	res.metrics["p50_ms"] = ms(ps.p50)
	res.metrics["p99_ms"] = ms(ps.p99)
	res.metrics["throughput_rps"] = ss.rps
	res.metrics["cpu_ms_per_req"] = ms(ps.cpuPerReq)
	res.metrics["peak_rss_mb"] = rss
	res.attempted, res.failed = ps.attempted, ps.failed
	res.notes = append(res.notes,
		fmt.Sprintf("primary phase: %d latency samples; p99_ms is the median over %d windows of %d samples, %d beyond each window's p99; all samples at once: p99 %v, %d beyond it; generator late p99 %v",
			ps.n, ps.windows, ps.n/ps.windows, beyondP99(ps.n/ps.windows), ps.pooledP99, beyondP99(ps.n), ps.lateP99))
	if w.rate > 0 {
		res.attempted += ss.attempted
		res.failed += ss.failed
		res.notes = append(res.notes, fmt.Sprintf("saturation phase: %d clients, %d requests completed", w.satClients, ss.n))
	}
	return finish(e, res)
}

// finish runs the output checks off the clock and tears the target down.
func finish(e *env, res *runResult) error {
	final, finalCut, err := e.t.contents()
	if err != nil {
		return fmt.Errorf("final contents: %w", err)
	}
	if e.dataDir != "" {
		if err := reopenCrashImage(e, final, res); err != nil {
			return err
		}
	}
	if err := e.tearDown(); err != nil {
		return fmt.Errorf("tear-down: %w", err)
	}
	bad, problems := e.check.verify(final, finalCut)
	res.failed += bad
	res.problems = append(res.problems, problems...)
	return nil
}

// reopenCrashImage copies the live data directory without closing the
// server (what a crash would leave), opens a second server on the copy
// and requires it to hold exactly the acknowledged contents.
func reopenCrashImage(e *env, acknowledged []int, res *runResult) error {
	// Traffic has stopped, but a background snapshot may still be writing
	// and then deleting log segments; a file-by-file copy taken across that
	// is not a state the disk was ever in. Let the snapshot count settle.
	for last, tries := int64(-1), 0; tries < 40; tries++ {
		m, err := e.t.metrics()
		if err != nil {
			return err
		}
		if m.Snapshots == last {
			break
		}
		last = m.Snapshots
		time.Sleep(50 * time.Millisecond)
	}
	image := e.dataDir + "-image"
	defer os.RemoveAll(image)
	if err := os.RemoveAll(image); err != nil {
		return err
	}
	if err := os.CopyFS(image, os.DirFS(e.dataDir)); err != nil {
		return fmt.Errorf("crash image: %w", err)
	}
	sc := baseConfig()
	sc.DataDir, sc.Fsync = image, "always"
	t0 := time.Now()
	s, err := serve.Open(sc)
	if err != nil {
		return fmt.Errorf("crash image: reopen: %w", err)
	}
	defer s.Close()
	// Recovery replays the log through the pipeline; Len returns once the
	// replayed trees have materialised.
	if _, _, err := s.Len(); err != nil {
		return fmt.Errorf("crash image: %w", err)
	}
	took := time.Since(t0)
	got, _, err := s.Keys()
	if err != nil {
		return fmt.Errorf("crash image: %w", err)
	}
	replayed := s.Metrics().Replayed
	if !slices.Equal(got, acknowledged) {
		res.failed++
		res.problems = append(res.problems, fmt.Sprintf("crash image lost acknowledged writes: reopened with %d keys, acknowledged %d", len(got), len(acknowledged)))
	}
	res.metrics["persist.recovery_ms"] = ms(took)
	res.metrics["persist.replayed_records"] = float64(replayed)
	res.notes = append(res.notes, fmt.Sprintf("crash image: reopened in %v, %d records replayed", took, replayed))
	return nil
}

func (c *checker) addPhases(phases ...*phase) {
	for _, ph := range phases {
		for i := range ph.samples {
			c.add(&ph.samples[i])
		}
	}
}

// beyondP99 is how many of n sorted samples lie above the one quantile
// returns as the 99th percentile.
func beyondP99(n int) int { return n - 1 - int(float64(n)*0.99) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

var errIncorrect = errors.New("output checks failed")
