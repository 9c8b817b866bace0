// Package serve is the request-serving layer over the pipelined set
// algorithms: a sharded, batching set-operation server on the
// internal/sched work-stealing runtime.
//
// The key space is range-partitioned across k shards, each an
// independent versioned root with its own applier goroutine, coalescing
// queue, version counter, and admission mark — all multiplexed onto one
// shared scheduler. A mutation is split at the shard pivots into
// per-shard pieces (for the treap backend the operand treap itself is
// split, pipelined, by paralg.SplitRanges) that each shard orders,
// coalesces, and applies independently; the request completes when every
// piece's result is published. Because the treap algorithms are
// pipelined, applying a piece only *starts* the tree computation and
// publishes the new root cell — appliers never wait for trees to
// materialize, so a burst of mutations becomes k pipelines of treap
// operations all in flight on the scheduler at once. A second backend
// (2-6 trees via paralg.RConfig.T26BulkInsert, no pipelining across
// batches) serves the same API as a control group; see backend.go.
//
// Reads: Contains snapshots the owning shard's (state, version) pair and
// runs as a scheduler task against that snapshot. Len and Keys are
// scatter-gather over a consistent cut: a marker is enqueued on every
// shard at one routing instant (no mutation's pieces straddle the
// markers), and the per-shard snapshots recorded at the marker positions
// form the cut's version vector.
//
// Admission control sheds load instead of queueing without bound: each
// shard sheds once its share of the scheduler backlog plus its own queue
// reaches its share of the high-water mark, and a request is rejected
// with ErrOverloaded if any shard it touches is over (attributed to that
// shard, so the global shed count is the sum over shards), or with
// ErrDraining once Close has begun. Close stops admission, lets every
// applier drain its queue, waits for every admitted request and for
// scheduler quiescence, and only then shuts the runtime down.
package serve

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"pipefut/internal/paralg"
	"pipefut/internal/persist"
	"pipefut/internal/sched"
)

// Op names a mutation kind.
type Op string

const (
	// OpUnion unions a key batch into the set. OpInsert is an alias kept
	// for clients that think in inserts; the two coalesce together.
	OpUnion  Op = "union"
	OpInsert Op = "insert"
	// OpDifference removes a key batch from the set.
	OpDifference Op = "difference"
	// OpIntersect keeps only the given keys. Not coalescible: A∩B1∩B2
	// differs from A∩(B1∪B2). It touches every shard (a shard with no
	// operand keys must still clear).
	OpIntersect Op = "intersect"
)

var (
	// ErrOverloaded rejects a request at admission because some shard it
	// touches is at its high-water mark. The request was not applied
	// anywhere (admission is all-or-nothing); retry later.
	ErrOverloaded = errors.New("serve: overloaded, request shed")
	// ErrDraining rejects a request because the server is draining or
	// closed. The request was not applied.
	ErrDraining = errors.New("serve: draining, not admitting requests")
	// ErrNotDurable fails a mutation whose log record a shard's store
	// failed to write or fsync (or refused, once failed); the failed
	// store refuses every later mutation the same way. A refused record
	// is never published, so that shard's piece is not visible. The
	// outcome is still unknown in two cases: a flush that fails after
	// its run was published leaves the piece visible in memory but
	// perhaps lost on restart, and the other shards of a cross-shard
	// mutation apply their pieces regardless.
	ErrNotDurable = errors.New("serve: mutation not durable, shard log failed")
)

// Cut is a per-shard version vector. For mutations, slot i holds the
// version shard i assigned to the mutation's piece (0 = shard untouched);
// for scatter-gather reads it is the consistent cut the read observed.
type Cut []uint64

// Config sizes a Server.
type Config struct {
	// P is the scheduler worker count; ≤ 0 means GOMAXPROCS.
	P int
	// SpawnDepth is the algorithm grain bound (paralg.RConfig.SpawnDepth);
	// ≤ 0 picks the paralg default.
	SpawnDepth int
	// GrainCutoff is the cell-amortization grain (paralg.RConfig.GrainCutoff):
	// subtrees of at most this many nodes ride behind a single chunk cell
	// instead of one scheduler cell per node. 0 picks DefaultGrainCutoff;
	// negative disables coarsening. The knob only ever activates for entry
	// points the verdict manifest proves seqsafe, so a stale manifest
	// degrades to the fully pipelined plan rather than to wrong answers.
	GrainCutoff int
	// HighWater is the global admission bound, divided evenly across
	// shards: shard i sheds when its share of the scheduler backlog plus
	// its own queued pieces reaches ceil(HighWater/Shards). ≤ 0 picks
	// DefaultHighWater.
	HighWater int
	// Shards is the number of independent roots the key space is
	// range-partitioned across; ≤ 0 means 1.
	Shards int
	// Backend selects the per-shard store: "treap" (pipelined persistent
	// treap, the default) or "t26" (2-6 trees, no pipelining across
	// batches).
	Backend string
	// StealPolicy selects the scheduler's locality policy: "affine" (the
	// default) starts the runtime with shard-affine worker groups,
	// steal-half, and per-worker mailboxes, and routes each shard's
	// applier continuations to that shard's preferred worker; "baseline"
	// keeps the locality-oblivious scheduler (global injection queue,
	// uniform steal-one) for ablation. The policy never changes results,
	// only which worker's cache the work lands in — the bench `locality`
	// experiment measures both (deviations and req/s).
	StealPolicy string
	// Universe hints the dense key range [0, Universe) used to place the
	// default shard pivots; keys outside it are legal and land on the
	// edge shards. ≤ 0 picks DefaultUniverse. Ignored when Pivots is set.
	Universe int
	// Pivots optionally fixes the shard boundaries explicitly: ascending,
	// len Shards-1; shard i owns [Pivots[i-1], Pivots[i]).
	Pivots []int
	// DataDir enables durability: each shard keeps a write-ahead op log
	// and background snapshots under DataDir/shard-<i>, and Open recovers
	// from them (newest snapshot + log-suffix replay). Empty disables
	// persistence entirely.
	DataDir string
	// Fsync names the WAL durability policy: "batch" (group commit, the
	// default), "never", or "always". Ignored without DataDir.
	Fsync string
	// SnapshotEvery is the per-shard snapshot cadence in versions: a
	// background walk of the published root starts once a shard outruns
	// its last durable snapshot by this much. 0 picks
	// DefaultSnapshotEvery; negative disables background snapshots
	// (Close still writes a final one). Ignored without DataDir.
	SnapshotEvery int
}

// DefaultHighWater is the admission bound used when Config.HighWater ≤ 0.
const DefaultHighWater = 4096

// DefaultGrainCutoff is the cell-amortization grain used when
// Config.GrainCutoff is 0. At 32 a shard batch's below-cutoff subtrees —
// the bulk of a typical mutation's key pieces — cost one cell each
// instead of one per node, and a piece of at most 32 keys meets its
// shard's root on paralg's one-sided chunk path: one fork, cells only
// along the root paths its keys touch, root still written first. Larger
// pieces pipeline normally until their subtrees fall under the cutoff.
const DefaultGrainCutoff = 32

// DefaultUniverse is the key-range hint used when Config.Universe ≤ 0.
const DefaultUniverse = 1 << 20

const (
	stateAccepting int32 = iota
	stateDraining
	stateClosed
)

// Server is a sharded batching set-operation server. Create with New,
// stop with Close. All methods are safe for concurrent use.
type Server struct {
	cfg    Config
	rt     *paralg.SchedRuntime
	be     Backend
	pivots []int
	shards []*shard
	all    []int // every shard index: what intersects and cut reads target

	// routeMu orders request routing against cut markers: enqueueing one
	// request's pieces holds it shared (exclusive when the request spans
	// shards, so cross-shard mutations are also totally ordered among
	// themselves), placing a cut's markers holds it exclusive. Admission
	// state flips (Close) hold it exclusive too, so a request that passed
	// the admission check can never be stranded by a concurrent drain.
	routeMu sync.RWMutex

	state    atomic.Int32
	inflight sync.WaitGroup // admitted requests not yet completed

	// Durability (see persist.go): zero-valued when Config.DataDir is
	// empty — persistence off, shards carry nil stores.
	snapEvery int
	policy    persist.FsyncPolicy
	persistWG sync.WaitGroup // background snapshot writers in flight

	met serverMetrics
}

// New starts a server with an empty set. It panics on a config it cannot
// honor (unknown backend, malformed pivots) — validate user input with
// KnownBackends before constructing a Config from it, or use Open to get
// the error back (required for durable servers, whose recovery can fail
// on damaged data directories).
func New(cfg Config) *Server {
	s, err := Open(cfg)
	if err != nil {
		panic(err)
	}
	return s
}

// Open starts a server. With Config.DataDir set it first recovers each
// shard from its newest valid snapshot plus the WAL suffix (pipelined
// through the normal apply path on the treap backend) and resumes the
// version counters where the log left off; otherwise the set starts
// empty.
func Open(cfg Config) (_ *Server, err error) {
	if cfg.P <= 0 {
		cfg.P = runtime.GOMAXPROCS(0)
	}
	if cfg.SpawnDepth <= 0 {
		cfg.SpawnDepth = paralg.DefaultConfig.SpawnDepth
	}
	switch {
	case cfg.GrainCutoff == 0:
		cfg.GrainCutoff = DefaultGrainCutoff
	case cfg.GrainCutoff < 0:
		cfg.GrainCutoff = 0 // explicit off; 0 disables in paralg too
	}
	if cfg.HighWater <= 0 {
		cfg.HighWater = DefaultHighWater
	}
	if cfg.Shards <= 0 {
		cfg.Shards = 1
	}
	if cfg.Universe <= 0 {
		cfg.Universe = DefaultUniverse
	}
	policy, ok := persist.ParsePolicy(cfg.Fsync)
	if !ok {
		return nil, fmt.Errorf("serve: unknown fsync policy %q (want batch, never, or always)", cfg.Fsync)
	}
	pivots := cfg.Pivots
	if pivots == nil {
		pivots = defaultPivots(cfg.Shards, cfg.Universe)
	}
	if len(pivots) != cfg.Shards-1 {
		return nil, errors.New("serve: len(Pivots) must be Shards-1")
	}
	if !sort.IntsAreSorted(pivots) {
		return nil, errors.New("serve: Pivots must ascend")
	}
	if cfg.StealPolicy == "" {
		cfg.StealPolicy = StealAffine
	}
	var rt *paralg.SchedRuntime
	switch cfg.StealPolicy {
	case StealAffine:
		// One affinity group per shard (clamped to p inside the runtime):
		// a shard's applier continuations are mailboxed to its preferred
		// worker, and that worker's group-mates sweep each other's deques
		// before stealing globally, so one shard's pipeline tends to stay
		// inside one group's caches. Steal-half keeps a migrated treap
		// burst together when a steal does happen.
		rt = paralg.NewSchedRuntimeOpts(cfg.P, sched.Options{
			Groups:    cfg.Shards,
			StealHalf: true,
		})
	case StealBaseline:
		rt = paralg.NewSchedRuntime(cfg.P)
	default:
		return nil, errors.New("serve: unknown steal policy " + cfg.StealPolicy + " (want affine or baseline)")
	}
	s := &Server{cfg: cfg, rt: rt, pivots: pivots, policy: policy}
	// The runtime is running from here on: every later failure leaves
	// through this one cleanup.
	defer func() {
		if err == nil {
			return
		}
		for _, sh := range s.shards {
			if sh.store != nil {
				sh.store.Close()
			}
		}
		rt.RT.Wait() // partial recovery may have forked replay work
		rt.RT.Shutdown()
	}()
	pc := paralg.RConfig{R: rt, SpawnDepth: cfg.SpawnDepth, GrainCutoff: cfg.GrainCutoff}
	if s.be, err = newBackend(cfg.Backend, pc); err != nil {
		return nil, err
	}
	hw := ceilDiv(cfg.HighWater, cfg.Shards)
	for i := 0; i < cfg.Shards; i++ {
		s.shards = append(s.shards, newShard(s, i, hw))
		s.all = append(s.all, i)
	}
	if cfg.DataDir != "" {
		switch {
		case cfg.SnapshotEvery == 0:
			s.snapEvery = DefaultSnapshotEvery
		case cfg.SnapshotEvery > 0:
			s.snapEvery = cfg.SnapshotEvery
		}
		if err := s.openStores(cfg.DataDir, policy); err != nil {
			return nil, err
		}
	}
	for _, sh := range s.shards {
		go sh.applier()
	}
	return s, nil
}

// KnownBackends lists the backend names New accepts.
func KnownBackends() []string { return []string{"treap", "t26"} }

// Steal policies New accepts (Config.StealPolicy).
const (
	StealAffine   = "affine"
	StealBaseline = "baseline"
)

// KnownStealPolicies lists the steal policy names New accepts.
func KnownStealPolicies() []string { return []string{StealAffine, StealBaseline} }

// StealPolicy returns the active steal policy name.
func (s *Server) StealPolicy() string { return s.cfg.StealPolicy }

// defaultPivots spreads k-1 boundaries evenly over [0, universe).
func defaultPivots(k, universe int) []int {
	pivots := make([]int, 0, k-1)
	for i := 1; i < k; i++ {
		pivots = append(pivots, int(int64(universe)*int64(i)/int64(k)))
	}
	return pivots
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }

// Runtime exposes the underlying scheduler (for metrics and tests).
func (s *Server) Runtime() *sched.Runtime { return s.rt.RT }

// Backend returns the active backend's name.
func (s *Server) Backend() string { return s.be.Name() }

// Shards returns the shard count.
func (s *Server) Shards() int { return len(s.shards) }

// ShardOf returns the index of the shard owning key.
func (s *Server) ShardOf(key int) int {
	return sort.Search(len(s.pivots), func(i int) bool { return s.pivots[i] > key })
}

// pieceKeys slices a sorted distinct batch down to shard i's key range
// under the router's pivots — the keys a shard's WAL record carries and
// its slice of a literal DAG leaf.
func pieceKeys(sorted []int, pivots []int, i int) []int {
	lo, hi := 0, len(sorted)
	if i > 0 {
		lo = sort.SearchInts(sorted, pivots[i-1])
	}
	if i < len(pivots) {
		hi = sort.SearchInts(sorted, pivots[i])
	}
	return sorted[lo:hi]
}

// targetsFor lists the shards a mutation touches: every shard for
// intersect, the shards whose range the sorted batch hits otherwise.
func (s *Server) targetsFor(op Op, sorted []int) []int {
	if op == OpIntersect {
		return s.all
	}
	out := make([]int, 0, len(s.shards))
	for i := range s.shards {
		if len(pieceKeys(sorted, s.pivots, i)) > 0 {
			out = append(out, i)
		}
	}
	return out
}

// overHighWater runs the admission check against each target shard and
// returns the first shard over its mark (nil = admit). Each shard's
// backlog is its even share of the scheduler backlog plus its own
// pending pieces; cost is extra weight the request itself carries (a
// DAG's node count — every planned node becomes at least one scheduler
// task per shard), charged before any of it is spent.
func (s *Server) overHighWater(targets []int, cost int) *shard {
	inject, maxDeque := s.rt.RT.Backlog()
	share := ceilDiv(inject+maxDeque, len(s.shards))
	for _, ti := range targets {
		sh := s.shards[ti]
		if share+cost+int(sh.queued.Load()) >= sh.hw {
			return sh
		}
	}
	return nil
}

// admit is every request's way in: count it offered, refuse it while
// draining, take the routing lock (exclusive or shared), re-check the
// drain under the lock — the flip happens under it, so an admitted
// request can never be stranded — and run the high-water check against
// the target shards. On success the request is counted admitted and in
// flight and the routing lock is still held: the caller enqueues or
// snapshots under it, then calls unroute with the same flag, and calls
// done when the request completes. The returned instant is the request's
// latency origin — taken here, before the routing lock, for every
// request kind, so a wait behind an exclusive cross-shard holder shows
// up in the server's own quantiles instead of vanishing from them.
func (s *Server) admit(targets []int, exclusive bool, cost int) (time.Time, error) {
	start := time.Now()
	s.met.offered.Add(1)
	if s.state.Load() != stateAccepting {
		s.met.shedDraining.Add(1)
		return start, ErrDraining
	}
	if exclusive {
		s.routeMu.Lock()
	} else {
		s.routeMu.RLock()
	}
	if s.state.Load() != stateAccepting {
		s.unroute(exclusive)
		s.met.shedDraining.Add(1)
		return start, ErrDraining
	}
	if over := s.overHighWater(targets, cost); over != nil {
		s.unroute(exclusive)
		over.offered.Add(1)
		over.shed.Add(1)
		return start, ErrOverloaded
	}
	s.met.admitted.Add(1)
	s.inflight.Add(1)
	return start, nil
}

func (s *Server) unroute(exclusive bool) {
	if exclusive {
		s.routeMu.Unlock()
	} else {
		s.routeMu.RUnlock()
	}
}

// done retires one admitted request.
func (s *Server) done() {
	s.met.completed.Add(1)
	s.inflight.Done()
}

// Apply submits one mutation and blocks until every per-shard piece has
// been ordered and its result published (not until the trees
// materialize — that is the pipelining). It returns the cut of per-shard
// versions the mutation produced; slot i is 0 if shard i was untouched.
func (s *Server) Apply(op Op, keys []int) (Cut, error) {
	switch op {
	case OpUnion, OpInsert, OpDifference, OpIntersect:
	default:
		return nil, fmt.Errorf("%w: unknown op %q (want union, insert, difference, or intersect)", ErrBadRequest, op)
	}
	sorted := sortedDistinct(keys)
	targets := s.targetsFor(op, sorted)

	// Single-shard mutations route under the shared lock; cross-shard
	// mutations take it exclusively so their piece enqueues are atomic
	// not just against cut markers but against each other — every pair
	// of non-commuting cross-shard mutations lands in the same order on
	// every shard they share.
	multi := len(targets) > 1
	start, err := s.admit(targets, multi, 0)
	if err != nil {
		return nil, err
	}
	defer s.done()
	if len(targets) == 0 { // empty union/difference: a complete no-op
		s.unroute(multi)
		return make(Cut, len(s.shards)), nil
	}
	req := &request{start: start, cut: make(Cut, len(s.shards)), done: sched.NewCell[Cut](s.rt.RT)}
	req.open.Store(int32(len(targets)))
	pieces := s.be.Route(nil, sorted, s.pivots)
	for _, ti := range targets {
		sh := s.shards[ti]
		r := shardReq{op: op, piece: pieces[ti], req: req}
		if sh.store != nil {
			r.keys = pieceKeys(sorted, s.pivots, ti)
		}
		sh.mu.Lock()
		sh.queue = append(sh.queue, r)
		sh.mu.Unlock()
		sh.offered.Add(1)
		sh.admitted.Add(1)
		sh.queued.Add(1)
		sh.cond.Signal()
	}
	s.unroute(multi)
	cut, err := req.done.ReadErr() // ErrShutdown impossible under drain discipline; surface anyway
	if p := req.lost.Load(); err == nil && p != nil {
		return nil, fmt.Errorf("%w: %w", ErrNotDurable, *p)
	}
	return cut, err
}

// Contains reports whether key is in the set, against the owning shard's
// consistent (state, version) snapshot. The walk runs as a scheduler
// task and blocks only on the cells along the search path.
func (s *Server) Contains(key int) (bool, uint64, error) {
	sh := s.shards[s.ShardOf(key)]
	start, err := s.admit([]int{sh.idx}, false, 0)
	if err != nil {
		return false, 0, err
	}
	defer s.done()
	sh.mu.Lock()
	st, v := sh.st, sh.version
	sh.mu.Unlock()
	s.unroute(false)

	done := sched.NewCell[bool](s.rt.RT)
	// The walk reads the shard's published tree, so hint it at the
	// shard's preferred worker (NoAffinity under the baseline policy
	// degrades to the plain injection path).
	s.rt.RT.Submit(nil, func(w *sched.Worker) {
		s.be.Contains(w, st, key, func(ctx paralg.Ctx, ok bool) {
			done.Write(asWorker(ctx), ok)
		})
	}, sh.pref)
	ok, err := done.ReadErr()
	sh.lat.record(time.Since(start))
	return ok, v, err
}

// cutSnapshot admits one scatter-gather read and returns per-shard
// values forming a consistent cut: the markers are enqueued on every
// shard under the routing write lock, so no mutation's pieces straddle
// them — every mutation is entirely inside or entirely outside the cut
// on all the shards it touches. cost is extra admission weight: DAG
// requests charge their node count here, so an over-budget DAG sheds
// with ErrOverloaded before the planner spends anything on it. The
// caller owes a done once it has answered.
func (s *Server) cutSnapshot(cost int) ([]Value, Cut, time.Time, error) {
	start, err := s.admit(s.all, true, cost)
	if err != nil {
		return nil, nil, start, err
	}
	mk := &cutMarker{vals: make([]Value, len(s.shards)), cut: make(Cut, len(s.shards))}
	mk.wg.Add(len(s.shards))
	for _, sh := range s.shards {
		sh.mu.Lock()
		sh.queue = append(sh.queue, shardReq{mark: mk})
		sh.mu.Unlock()
		sh.cond.Signal()
	}
	s.unroute(true)
	mk.wg.Wait()
	return mk.vals, mk.cut, start, nil
}

// gatherCount sums the cardinalities of one value per shard: the Count
// walks run as concurrent scheduler tasks, each hinted at its shard's
// preferred worker, counting subtrees as they materialize; one countdown
// spans them and whichever walk resolves last writes the total.
func (s *Server) gatherCount(vals []Value) (int, error) {
	var total, open atomic.Int64
	open.Store(int64(len(vals)))
	done := sched.NewCell[int](s.rt.RT)
	for i, v := range vals {
		s.rt.RT.Submit(nil, func(w *sched.Worker) {
			s.be.Count(w, v, func(ctx paralg.Ctx, n int) {
				total.Add(int64(n))
				if open.Add(-1) == 0 {
					done.Write(asWorker(ctx), int(total.Load()))
				}
			})
		}, s.shards[i].pref)
	}
	return done.ReadErr()
}

// gatherKeys concatenates one value per shard, blocking until each
// fully materializes. Shard ranges ascend and every operation preserves
// them, so the concatenation is globally sorted.
func (s *Server) gatherKeys(vals []Value) []int {
	var out []int
	for _, v := range vals {
		out = append(out, s.be.Keys(v)...)
	}
	return out
}

// Len returns the number of keys against a consistent cut: the count
// terminal over the cut's per-shard states.
func (s *Server) Len() (int, Cut, error) {
	vals, cut, start, err := s.cutSnapshot(0)
	if err != nil {
		return 0, nil, err
	}
	defer s.done()
	n, err := s.gatherCount(vals)
	s.met.gatherLat.record(time.Since(start))
	return n, cut, err
}

// Keys returns the set's contents in ascending order against a
// consistent cut: the keys terminal over the cut's per-shard states. It
// is a verification/debugging endpoint, not a fast path.
func (s *Server) Keys() ([]int, Cut, error) {
	vals, cut, start, err := s.cutSnapshot(0)
	if err != nil {
		return nil, nil, err
	}
	defer s.done()
	out := s.gatherKeys(vals)
	s.met.gatherLat.record(time.Since(start))
	return out, cut, nil
}

// Close drains and stops the server: stop admitting (new requests get
// ErrDraining), let every shard's applier drain its queue, wait for
// every admitted request to complete and the scheduler to go quiescent,
// then shut the runtime down. With persistence on, the drain is also a
// durability barrier: every shard's WAL is flushed and fsynced and a
// final snapshot covers the head version before Close returns, so a
// clean stop never replays on the next Open. Safe to call once.
func (s *Server) Close() {
	// The state flip happens under the routing lock, so no request that
	// passed its admission check can be stranded: it either finished
	// enqueueing before the flip or sees draining.
	s.routeMu.Lock()
	s.state.Store(stateDraining)
	s.routeMu.Unlock()
	for _, sh := range s.shards {
		sh.mu.Lock() // pair with cond.Wait: no lost wakeup
		sh.cond.Broadcast()
		sh.mu.Unlock()
	}
	for _, sh := range s.shards {
		<-sh.applierDone
	}
	s.inflight.Wait()  // every admitted request has completed
	s.persistWG.Wait() // background snapshot writers done with their stores
	s.rt.RT.Wait()     // every tree fully materialized, scheduler quiescent
	s.closeStores()    // final snapshot + WAL fsync + close, per shard
	s.rt.RT.Shutdown()
	s.state.Store(stateClosed)
}

func asWorker(ctx paralg.Ctx) *sched.Worker {
	w, _ := ctx.(*sched.Worker)
	return w
}

// sortedDistinct returns a sorted deduplicated copy of keys.
func sortedDistinct(keys []int) []int {
	cp := append([]int(nil), keys...)
	sort.Ints(cp)
	out := cp[:0]
	for i, k := range cp {
		if i == 0 || k != cp[i-1] {
			out = append(out, k)
		}
	}
	return out
}
