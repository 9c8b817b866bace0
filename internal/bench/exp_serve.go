package bench

// The serve experiment: offered load × worker count × shard count sweep
// of the sharded set-operation server, run once per backend. It measures
// what the serving layer buys from pipelining: the treap backend applies
// a batch by publishing its result roots and letting the trees
// materialize on the scheduler behind them, while the t26 backend (same
// API, same scheduler) waits for every batch to materialize before
// taking the next — so the treap/t26 throughput gap per (load, p, k) is
// the value of pipelining across batches, and the shard sweep shows how
// much independent roots add on top.

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"sync"
	"time"

	"pipefut/internal/serve"
	"pipefut/internal/workload"
)

func init() {
	Register(Experiment{
		ID:    "serve",
		Paper: "Section 4 applied end to end (a server of pipelined set operations)",
		Claim: "a sharded batching server on the futures runtime sustains concurrent mixed set operations; the treap-vs-t26 backend sweep isolates what cross-batch pipelining costs and buys (measured: grain coarsening at the default cutoff halves the treap's cell bill and closes the t26 gap from ~9x to ~5x; the batch-synchronous control still wins raw throughput), and the persistence ablation prices durability on the ack path only (fsync=batch holds req/s within 25% of persistence-off; appliers never block on the WAL or snapshot walks)",
		Run:   runServe,
	})
}

// ServePoint is the machine-readable record of one serve sweep cell
// (Config.JSONOut); cmd/benchguard compares these across runs.
type ServePoint struct {
	Exp       string  `json:"exp"`
	Backend   string  `json:"backend"`
	P         int     `json:"p"`
	Shards    int     `json:"shards"`
	Clients   int     `json:"clients"`
	ReqPerSec float64 `json:"req_per_sec"`
	Admitted  int64   `json:"admitted"`
	Shed      int64   `json:"shed"`
	// GrainCutoff records the server's effective cell-amortization grain
	// (informational; benchguard keys do not include it — the sweep runs
	// at the server default).
	GrainCutoff int `json:"grain_cutoff,omitempty"`
}

func runServe(cfg Config, w io.Writer) error {
	maxP := runtime.GOMAXPROCS(0)
	ps := pSweep(maxP)

	// Offered load: concurrent closed-loop clients. Each issues a fixed
	// mixed op sequence; total request count scales with MaxLgN, floored
	// so even smoke cells run long enough for stable req/s (benchguard
	// compares these across runs — sub-20ms cells are too noisy to gate).
	reqPerClient := 1 << min(max(cfg.MaxLgN-6, 7), 9)
	clientSweep := []int{4, 32}
	shardSweep := []int{1, 4}
	const (
		universe = 1 << 12
		batchLen = 32
	)

	tb := NewTable(
		fmt.Sprintf("Serving sweep: mixed set ops (40%% union / 25%% diff / 5%% intersect / 30%% reads), %d requests per client, universe %d, highwater %d",
			reqPerClient, universe, serve.DefaultHighWater),
		"backend", "p", "k", "clients", "time", "req/s", "admitted", "shed", "batches", "p50", "p99", "spawns", "susp", "cells")
	for _, backend := range serve.KnownBackends() {
		for _, p := range ps {
			for _, shards := range shardSweep {
				for _, clients := range clientSweep {
					s := serve.New(serve.Config{P: p, Backend: backend, Shards: shards, Universe: universe})
					start := time.Now()
					var wg sync.WaitGroup
					for c := 0; c < clients; c++ {
						wg.Add(1)
						go func(c int) {
							defer wg.Done()
							rng := workload.NewRNG(cfg.Seed + uint64(c))
							for i := 0; i < reqPerClient; i++ {
								driveOne(s, rng, universe, batchLen)
							}
						}(c)
					}
					wg.Wait()
					elapsed := time.Since(start)
					s.Close()
					m := s.Metrics()
					reqps := float64(m.Offered) / elapsed.Seconds()
					tb.Row(backend, I(int64(p)), I(int64(shards)), I(int64(clients)), elapsed.String(),
						F(reqps), I(m.Admitted), I(m.ShedOverload), I(m.Batches),
						time.Duration(m.P50Nanos).String(), time.Duration(m.P99Nanos).String(),
						I(m.Spawns), I(m.Suspensions), I(m.CellsShared+m.CellsForwarded))
					cfg.EmitJSON(ServePoint{
						Exp: "serve", Backend: backend, P: p, Shards: shards, Clients: clients,
						ReqPerSec: reqps, Admitted: m.Admitted, Shed: m.ShedOverload,
						GrainCutoff: m.GrainCutoff,
					})
				}
			}
		}
	}
	tb.Note("closed-loop clients (next request after previous completes); shed = admission rejections at the default high-water mark")
	tb.Note("batches < admitted mutations means the appliers coalesced adjacent same-kind requests")
	tb.Note("treap pipelines across batches (apply returns at root publication); t26 materializes each batch before the next")
	tb.Note("measured: t26 still wins raw req/s — every above-cutoff treap node access is a scheduler cell (compare the cells column) — but the treap runs at the default GrainCutoff 32 here, which cuts its cell bill ~2.2× vs the fully pipelined plan (see the grain-cutoff ablation) and closes the gap from ~9× to ~5×; the treap's pipelining shows in suspensions ≫ and smaller coalesced runs (its appliers never block, so queues stay short)")
	if err := tb.Fprint(w); err != nil {
		return err
	}

	// Grain-cutoff ablation: the treap backend's cell bill as the
	// amortization grain grows. Cutoff 0 is the fully pipelined plan
	// (one scheduler cell per node); each larger cutoff lets bigger
	// below-cutoff subtrees ride behind single chunk cells. The rows are
	// not emitted to JSON — they would collide with the main sweep's
	// benchguard keys, and the cells column is the claim under test.
	tbg := NewTable(
		fmt.Sprintf("Grain-cutoff ablation: treap backend, p = %d, k = 4, 32 clients × %d requests",
			maxP, reqPerClient),
		"cutoff", "time", "req/s", "admitted", "batches", "cells", "spawns", "susp")
	for _, cutoff := range []int{-1, 8, 32, 128} {
		s := serve.New(serve.Config{P: maxP, Backend: "treap", Shards: 4, Universe: universe, GrainCutoff: cutoff})
		start := time.Now()
		var wg sync.WaitGroup
		for c := 0; c < 32; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				rng := workload.NewRNG(cfg.Seed + 300 + uint64(c))
				for i := 0; i < reqPerClient; i++ {
					driveOne(s, rng, universe, batchLen)
				}
			}(c)
		}
		wg.Wait()
		elapsed := time.Since(start)
		s.Close()
		m := s.Metrics()
		label := cutoff
		if cutoff < 0 {
			label = 0 // -1 is the CLI spelling of "off"; report the effective grain
		}
		tbg.Row(I(int64(label)), elapsed.String(),
			F(float64(m.Offered)/elapsed.Seconds()), I(m.Admitted), I(m.Batches),
			I(m.CellsShared+m.CellsForwarded), I(m.Spawns), I(m.Suspensions))
	}
	tbg.Note("cutoff 0 = coarsening off; the knob only fires for entry points the verdict manifest proves seqsafe (fail closed)")
	tbg.Note("batch length is 32, so cutoff 32 puts whole mutation operands below the grain; 128 additionally swallows post-split pieces")
	if err := tbg.Fprint(w); err != nil {
		return err
	}

	// Persistence ablation: the same mixed load with the durability layer
	// off and at each fsync policy. The claim under test is that
	// log-before-publish never blocks the appliers: the group-commit
	// (batch) column should hold req/s near the off column, with the
	// durability cost showing up in ack latency (p99) rather than
	// throughput; fsync=always is the priced-in worst case. Lag is the
	// worst per-shard snapshot gap sampled at the instant the load ends —
	// before Close's final snapshot — i.e. the replay bound a crash at
	// full load would pay. Rows are not emitted to JSON: they would
	// collide with the main sweep's benchguard keys (same exp/backend/p/k/
	// clients), and the baseline gate tracks the persistence-off numbers.
	tbp := NewTable(
		fmt.Sprintf("Persistence ablation: treap backend, p = %d, k = 4, 32 clients × %d requests, snapshot cadence %d",
			maxP, reqPerClient, serve.DefaultSnapshotEvery),
		"persist", "time", "req/s", "p50", "p99", "wal MB", "fsyncs", "snaps", "lag")
	for _, mode := range []string{"off", "never", "batch", "always"} {
		scfg := serve.Config{P: maxP, Backend: "treap", Shards: 4, Universe: universe}
		var dir string
		if mode != "off" {
			var err error
			if dir, err = os.MkdirTemp("", "pipefut-bench-persist-"); err != nil {
				return err
			}
			scfg.DataDir = dir
			scfg.Fsync = mode
		}
		s := serve.New(scfg)
		start := time.Now()
		var wg sync.WaitGroup
		for c := 0; c < 32; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				rng := workload.NewRNG(cfg.Seed + 400 + uint64(c))
				for i := 0; i < reqPerClient; i++ {
					driveOne(s, rng, universe, batchLen)
				}
			}(c)
		}
		wg.Wait()
		elapsed := time.Since(start)
		m := s.Metrics() // sampled before Close: lag is the live replay bound
		s.Close()
		if dir != "" {
			os.RemoveAll(dir)
		}
		tbp.Row(mode, elapsed.String(), F(float64(m.Offered)/elapsed.Seconds()),
			time.Duration(m.P50Nanos).String(), time.Duration(m.P99Nanos).String(),
			F(float64(m.BytesLogged)/(1<<20)), I(m.WalSyncs), I(m.Snapshots), I(int64(m.SnapshotLag)))
	}
	tbp.Note("acks gate on record durability, so the fsync policy prices the ack path: never = page cache only, batch = group commit (one fsync per ~2ms window), always = one fsync per coalesced run")
	tbp.Note("snapshots run in the background by walking a pinned root on the scheduler (parking on ungenerated cells), so lag > 0 under load is expected and bounded — the applier never waits for a walk")
	if err := tbp.Fprint(w); err != nil {
		return err
	}

	// Scale ablation: does the gap close as tree and batch sizes grow?
	// Skipped in smoke mode (the big cells need seconds each).
	if cfg.MaxLgN >= 16 {
		tb3 := NewTable(
			"Scale ablation: universe × batch growth, both backends, 32 closed-loop clients, k = 4",
			"backend", "universe", "batch", "reqs", "time", "req/s", "spawns")
		for _, sc := range []struct{ universe, batch, reqPerClient int }{
			{1 << 12, 32, 32},
			{1 << 16, 256, 32},
			{1 << 18, 1024, 8},
		} {
			for _, backend := range serve.KnownBackends() {
				s := serve.New(serve.Config{P: maxP, Backend: backend, Shards: 4, Universe: sc.universe})
				start := time.Now()
				var wg sync.WaitGroup
				for c := 0; c < 32; c++ {
					wg.Add(1)
					go func(c int) {
						defer wg.Done()
						rng := workload.NewRNG(cfg.Seed + 200 + uint64(c))
						for i := 0; i < sc.reqPerClient; i++ {
							driveOne(s, rng, sc.universe, sc.batch)
						}
					}(c)
				}
				wg.Wait()
				elapsed := time.Since(start)
				s.Close()
				m := s.Metrics()
				tb3.Row(backend, I(int64(sc.universe)), I(int64(sc.batch)), I(m.Offered), elapsed.String(),
					F(float64(m.Offered)/elapsed.Seconds()), I(m.Spawns))
			}
		}
		tb3.Note("the t26 advantage persists as n and m grow (~5-6× at the default GrainCutoff, down from ~8-10× before coarsening): above-cutoff treap work is still ~Θ(m lg(n/m)) *cells* per op while t26's sequential paths stay cache-friendly — the grain knob trims the cell bill but the pipelined spine still pays per node")
		if err := tb3.Fprint(w); err != nil {
			return err
		}
	}

	// Backpressure ablation: tiny high-water marks against a fixed burst,
	// showing shed rate take over as the admission bound tightens.
	p := maxP
	const burstClients = 32
	tb2 := NewTable(
		fmt.Sprintf("Backpressure ablation: treap backend, p = %d, %d clients × %d requests, varying high-water mark",
			p, burstClients, reqPerClient),
		"highwater", "time", "admitted", "shed", "shed %")
	for _, hw := range []int{8, 64, 512, serve.DefaultHighWater} {
		s := serve.New(serve.Config{P: p, HighWater: hw})
		start := time.Now()
		var wg sync.WaitGroup
		for c := 0; c < burstClients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				rng := workload.NewRNG(cfg.Seed + 100 + uint64(c))
				for i := 0; i < reqPerClient; i++ {
					driveOne(s, rng, universe, batchLen)
				}
			}(c)
		}
		wg.Wait()
		elapsed := time.Since(start)
		s.Close()
		m := s.Metrics()
		tb2.Row(I(int64(hw)), elapsed.String(), I(m.Admitted), I(m.ShedOverload),
			F(100*float64(m.ShedOverload)/float64(m.Offered)))
	}
	tb2.Note("sheds answer immediately (HTTP 429), so tighter marks trade completed work for bounded backlog")
	return tb2.Fprint(w)
}

// driveOne issues one mixed-workload request, ignoring shed errors (the
// experiment records them through the server's own counters).
func driveOne(s *serve.Server, rng *workload.RNG, universe, batchLen int) {
	keys := func(n int) []int {
		ks := make([]int, n)
		for i := range ks {
			ks[i] = rng.Intn(universe)
		}
		return ks
	}
	switch roll := rng.Uint64() % 100; {
	case roll < 40:
		s.Apply(serve.OpUnion, keys(batchLen))
	case roll < 65:
		s.Apply(serve.OpDifference, keys(batchLen))
	case roll < 70:
		s.Apply(serve.OpIntersect, keys(universe/2))
	case roll < 95:
		s.Contains(rng.Intn(universe))
	default:
		s.Len()
	}
}
