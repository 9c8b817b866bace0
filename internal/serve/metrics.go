package serve

import (
	"sort"
	"sync/atomic"
	"time"
)

// serverMetrics is the global (router-level) counter block; per-shard
// ledgers live on each shard.
type serverMetrics struct {
	offered      atomic.Int64
	admitted     atomic.Int64
	completed    atomic.Int64
	shedDraining atomic.Int64
	gatherLat    latRing // scatter-gather reads (Len, Keys)

	// Operation-DAG requests (EvalDAG): request count, total planned
	// nodes (reachable from the result), and end-to-end latencies.
	dagRequests atomic.Int64
	dagNodes    atomic.Int64
	dagLat      latRing
}

// latRing is a bounded ring of recent request latencies (nanoseconds) for
// quantile estimates. Monitoring-grade: concurrent writers may interleave.
type latRing struct {
	buf [4096]int64
	n   atomic.Int64
}

func (r *latRing) record(d time.Duration) {
	i := r.n.Add(1) - 1
	atomic.StoreInt64(&r.buf[i%int64(len(r.buf))], int64(d))
}

// samples copies out the ring's current contents, so rings from many
// shards can be merged before taking quantiles.
func (r *latRing) samples() []int64 {
	n := r.n.Load()
	if n > int64(len(r.buf)) {
		n = int64(len(r.buf))
	}
	xs := make([]int64, n)
	for i := range xs {
		xs[i] = atomic.LoadInt64(&r.buf[i])
	}
	return xs
}

// quantilesOf sorts xs in place and returns its p50 and p99.
func quantilesOf(xs []int64) (p50, p99 time.Duration) {
	n := int64(len(xs))
	if n == 0 {
		return 0, 0
	}
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	return time.Duration(xs[n/2]), time.Duration(xs[(n*99)/100])
}

// ShardMetrics is one shard's slice of the admission and latency ledger.
// Offered == Admitted + Shed holds per shard; summing Shed over shards
// gives the server's ShedOverload.
type ShardMetrics struct {
	Offered  int64  `json:"offered"`
	Admitted int64  `json:"admitted"`
	Shed     int64  `json:"shed"`
	Queued   int64  `json:"queued"`
	Batches  int64  `json:"batches"`
	Version  uint64 `json:"version"`
	P50Nanos int64  `json:"p50_nanos"`
	P99Nanos int64  `json:"p99_nanos"`
	// Durability ledger (zero with persistence off): the newest durable
	// snapshot's seq and how many log records recovery replayed at Open.
	SnapshotSeq uint64 `json:"snapshot_seq"`
	Replayed    int64  `json:"replayed"`
}

// Metrics is a point-in-time snapshot of server and scheduler counters.
// The global latency quantiles are computed over the merged per-shard
// samples (plus scatter-gather read samples), not an average of per-shard
// quantiles — so with one shard they agree exactly with that shard's.
type Metrics struct {
	Backend     string `json:"backend"`
	Shards      int    `json:"shards"`
	StealPolicy string `json:"steal_policy"`

	Offered      int64 `json:"offered"`
	Admitted     int64 `json:"admitted"`
	Completed    int64 `json:"completed"`
	ShedOverload int64 `json:"shed_overload"`
	ShedDraining int64 `json:"shed_draining"`
	Inflight     int64 `json:"inflight"`
	Queued       int64 `json:"queued"`
	Batches      int64 `json:"batches"`

	// Versions is the current per-shard version vector (not a consistent
	// cut — monitoring-grade).
	Versions Cut `json:"versions"`

	P50Nanos int64 `json:"p50_nanos"`
	P99Nanos int64 `json:"p99_nanos"`

	// Operation-DAG request ledger (POST /dag, EvalDAG): DAGNodes is
	// the total planned node count, so DAGNodes/DAGRequests is the mean
	// fused-pipeline size; the quantiles cover DAG requests only.
	DAGRequests int64 `json:"dag_requests"`
	DAGNodes    int64 `json:"dag_nodes"`
	DAGP50Nanos int64 `json:"dag_p50_nanos"`
	DAGP99Nanos int64 `json:"dag_p99_nanos"`

	PerShard []ShardMetrics `json:"per_shard"`

	InjectQueue int `json:"inject_queue"`
	MaxDeque    int `json:"max_deque"`

	Spawns        int64   `json:"spawns"`
	Steals        int64   `json:"steals"`
	Suspensions   int64   `json:"suspensions"`
	Reactivations int64   `json:"reactivations"`
	Tasks         int64   `json:"tasks"`
	SchedMaxDeque int64   `json:"sched_max_deque"`
	BusyNanos     []int64 `json:"busy_nanos"`

	// Locality counters (see DESIGN.md "Locality-aware scheduling"):
	// Deviations is Herlihy & Liu's cache-miss bound proxy — tasks a
	// worker acquired that it neither spawned nor resumed from its own
	// deque; MailboxHits counts affine deliveries drained from the
	// owning worker's mailbox. The affine policy should trade the former
	// for the latter at equal or better throughput.
	Deviations  int64 `json:"deviations"`
	MailboxHits int64 `json:"mailbox_hits"`

	// Scheduler cells allocated, fresh (CellsShared) and born written
	// (CellsForwarded); CellsLinear always reads 0 (see
	// sched.Counters). GrainCutoff is the server's effective
	// cell-amortization grain; raising it should push these counts down
	// on the treap backend (subtrees below the cutoff ride behind chunk
	// cells the scheduler never sees).
	GrainCutoff    int   `json:"grain_cutoff"`
	CellsShared    int64 `json:"cells_shared"`
	CellsLinear    int64 `json:"cells_linear"`
	CellsForwarded int64 `json:"cells_forwarded"`

	// Durability counters (internal/persist; zero values with
	// persistence off). Persist names the fsync policy, "" = off.
	// SnapshotLag is the worst per-shard gap between the published
	// version and the newest durable snapshot — the replay bound a crash
	// right now would pay; it grows while background snapshot walks trail
	// the appliers and never blocks them.
	Persist     string `json:"persist,omitempty"`
	BytesLogged int64  `json:"bytes_logged"`
	WalRecords  int64  `json:"wal_records"`
	WalSyncs    int64  `json:"wal_syncs"`
	Snapshots   int64  `json:"snapshots"`
	SnapshotLag uint64 `json:"snapshot_lag"`
	Replayed    int64  `json:"replayed"`
}

// Metrics samples every counter. Safe to call at any time.
func (s *Server) Metrics() Metrics {
	var m Metrics
	m.Backend = s.be.Name()
	m.Shards = len(s.shards)
	m.StealPolicy = s.cfg.StealPolicy
	m.Offered = s.met.offered.Load()
	m.Admitted = s.met.admitted.Load()
	m.Completed = s.met.completed.Load()
	m.ShedDraining = s.met.shedDraining.Load()
	m.Inflight = m.Admitted - m.Completed
	m.Versions = make(Cut, len(s.shards))

	merged := s.met.gatherLat.samples()
	for i, sh := range s.shards {
		shed := sh.shed.Load()
		m.ShedOverload += shed
		m.Queued += sh.queued.Load()
		m.Batches += sh.batches.Load()
		sh.mu.Lock()
		v := sh.version
		sh.mu.Unlock()
		m.Versions[i] = v
		xs := sh.lat.samples()
		merged = append(merged, xs...)
		p50, p99 := quantilesOf(xs)
		sm := ShardMetrics{
			Offered:  sh.offered.Load(),
			Admitted: sh.admitted.Load(),
			Shed:     shed,
			Queued:   sh.queued.Load(),
			Batches:  sh.batches.Load(),
			Version:  v,
			P50Nanos: int64(p50),
			P99Nanos: int64(p99),
		}
		if sh.store != nil {
			st := sh.store.Stats()
			sm.SnapshotSeq = st.SnapshotSeq
			sm.Replayed = int64(sh.replayed)
			m.BytesLogged += st.BytesLogged
			m.WalRecords += st.Records
			m.WalSyncs += st.Syncs
			m.Snapshots += st.Snapshots
			m.Replayed += int64(sh.replayed)
			if lag := v - st.SnapshotSeq; lag > m.SnapshotLag {
				m.SnapshotLag = lag
			}
		}
		m.PerShard = append(m.PerShard, sm)
	}
	if s.cfg.DataDir != "" {
		m.Persist = s.policy.String()
	}
	p50, p99 := quantilesOf(merged)
	m.P50Nanos, m.P99Nanos = int64(p50), int64(p99)

	m.DAGRequests = s.met.dagRequests.Load()
	m.DAGNodes = s.met.dagNodes.Load()
	dp50, dp99 := quantilesOf(s.met.dagLat.samples())
	m.DAGP50Nanos, m.DAGP99Nanos = int64(dp50), int64(dp99)

	m.InjectQueue, m.MaxDeque = s.rt.RT.Backlog()
	c := s.rt.RT.Counters()
	m.Spawns = c.Spawns
	m.Steals = c.Steals
	m.Suspensions = c.Suspensions
	m.Reactivations = c.Reactivations
	m.Tasks = c.Tasks
	m.SchedMaxDeque = c.MaxDeque
	m.BusyNanos = c.BusyNanos
	m.Deviations = c.Deviations
	m.MailboxHits = c.MailboxHits
	m.GrainCutoff = s.cfg.GrainCutoff
	m.CellsShared = c.CellsShared
	m.CellsForwarded = c.CellsForwarded
	return m
}
