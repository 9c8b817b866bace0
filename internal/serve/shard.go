package serve

// One shard: an independent versioned root with its own applier
// goroutine, coalescing queue, version counter, admission mark, and
// latency reservoir — exactly the PR-4 single-root server, k times, all
// multiplexed onto one shared sched.Runtime. The router (serve.go)
// partitions the key space across shards by range pivots and splits each
// mutation into per-shard pieces; this file is everything that happens
// after a piece reaches its shard.

import (
	"sync"
	"sync/atomic"
	"time"

	"pipefut/internal/paralg"
	"pipefut/internal/persist"
	"pipefut/internal/sched"
)

// request is one admitted mutation: the completion bookkeeping shared by
// its per-shard pieces. Each piece fills its shard's slot in the cut and
// decrements the countdown; the last piece writes the done cell, which
// is what the caller's Apply blocks on.
type request struct {
	start time.Time
	cut   Cut                   // per-shard versions; slot i written by shard i's piece
	lost  atomic.Pointer[error] // first piece's log failure, if any
	open  atomic.Int32          // pieces not yet published
	done  *sched.Cell[Cut]
}

// finish records piece completion for shard idx at version v; lost is
// the piece's log failure, or nil once its record is durable. Distinct
// pieces write distinct cut slots; the atomic countdown orders every
// slot write before the done write.
func (r *request) finish(ctx paralg.Ctx, idx int, v uint64, lost error) {
	r.cut[idx] = v
	if lost != nil {
		r.lost.CompareAndSwap(nil, &lost)
	}
	if r.open.Add(-1) == 0 {
		r.done.Write(asWorker(ctx), r.cut)
	}
}

// shardReq is one entry in a shard's queue: a mutation piece, or a cut
// marker placed by a scatter-gather read.
type shardReq struct {
	op    Op
	piece Value
	keys  []int // the piece's sorted distinct keys; set only when persisting
	req   *request
	mark  *cutMarker
}

// cutMarker is enqueued on every shard at one routing instant (under the
// router's write lock, so no mutation's pieces straddle it). Each
// applier records its (state, version) at the marker's queue position;
// the vector of records is a consistent cut: every mutation is either
// entirely below the markers or entirely above them on all its shards.
type cutMarker struct {
	vals []Value // slot i written by shard i's applier
	cut  Cut
	wg   sync.WaitGroup
}

// shard owns one key range's root.
type shard struct {
	s   *Server
	idx int
	hw  int // admission mark: this shard's share of Config.HighWater

	mu      sync.Mutex
	st      Value
	version uint64
	queue   []shardReq
	cond    *sync.Cond // applier wakeup: queue non-empty or draining

	applierDone chan struct{}

	// Per-shard admission ledger: offered == admitted + shed always.
	// offered counts pieces enqueued plus sheds attributed to this shard;
	// each request-level overload shed is attributed to exactly one shard
	// (the first one found over its mark), so the global overload count
	// is the sum of the per-shard sheds.
	offered  atomic.Int64
	admitted atomic.Int64
	shed     atomic.Int64
	queued   atomic.Int64 // mutation pieces enqueued and not yet dispatched
	batches  atomic.Int64
	lat      latRing

	// Locality (see Config.StealPolicy): pref is the worker whose cache
	// this shard's pipeline should stay in (sched.NoAffinity under the
	// baseline policy), and actx is the paralg fork context that routes
	// the applier's root-level forks to pref's mailbox (nil = plain
	// injection). Query forks reuse pref directly via sched.Submit.
	pref int
	actx paralg.Ctx

	// Durability (nil store = persistence off; see persist.go).
	store    *persist.ShardStore
	lastSnap atomic.Uint64 // seq of the newest durable snapshot
	snapBusy atomic.Bool   // one background snapshot in flight at a time
	replayed int           // log records replayed at open, for metrics
}

func newShard(s *Server, idx, hw int) *shard {
	sh := &shard{s: s, idx: idx, hw: hw, st: s.be.FromKeys(nil, nil), applierDone: make(chan struct{}), pref: sched.NoAffinity}
	if s.cfg.StealPolicy == StealAffine {
		sh.pref = s.rt.RT.AffinityFor(idx)
		sh.actx = s.rt.AffineCtx(sh.pref)
	}
	sh.cond = sync.NewCond(&sh.mu)
	return sh
}

// applier is the shard's single ordering goroutine: it grabs the queue,
// coalesces adjacent same-kind runs, applies each run through the
// backend, publishes the new (state, version), and parks the run's
// request completions on the published state. With the treap backend it
// never waits for a tree — the scheduler materializes them behind the
// published roots; with the t26 backend the backend's Apply itself
// blocks, which is precisely the non-pipelined behavior being measured.
func (sh *shard) applier() {
	defer close(sh.applierDone)
	for {
		sh.mu.Lock()
		for len(sh.queue) == 0 && sh.s.state.Load() == stateAccepting {
			sh.cond.Wait()
		}
		if len(sh.queue) == 0 { // draining and drained
			sh.mu.Unlock()
			return
		}
		batch := sh.queue
		sh.queue = nil
		sh.mu.Unlock()

		for _, run := range coalesceRuns(batch) {
			sh.dispatch(run)
		}
	}
}

// coalesceRuns groups the batch into maximal adjacent runs of
// coalescible mutation pieces. Union/insert runs merge; difference runs
// merge ((A\B1)\B2 = A\(B1∪B2)); intersects and markers stay singleton.
func coalesceRuns(batch []shardReq) [][]shardReq {
	var runs [][]shardReq
	start := 0
	for i := 1; i <= len(batch); i++ {
		if i < len(batch) && batch[i].mark == nil && batch[start].mark == nil &&
			coalescible(batch[start].op, batch[i].op) {
			continue
		}
		runs = append(runs, batch[start:i]) // the applier owns batch: runs alias it
		start = i
	}
	return runs
}

// coalescible: same record kind (kindOf folds the insert alias into
// union) and not an intersect.
func coalescible(a, b Op) bool {
	return a != OpIntersect && kindOf(a) == kindOf(b)
}

// ackGate completes a run's requests once every arm has arrived: the
// result root published (from the scheduler) and, when persisting, the
// record's flush finished (from the WAL flusher). Whichever arrives
// last — on whatever goroutine — releases the acks, failing them with
// lost when the record did not become durable.
type ackGate struct {
	sh   *shard
	run  []shardReq
	v    uint64
	lost error // written by the durability arm before it arrives
	open atomic.Int32
}

func (g *ackGate) arrive(ctx paralg.Ctx) {
	if g.open.Add(-1) != 0 {
		return
	}
	for _, r := range g.run {
		g.sh.lat.record(time.Since(r.req.start))
		r.req.finish(ctx, g.sh.idx, g.v, g.lost)
	}
}

// dispatch applies one coalesced run (or records one marker) and
// publishes the result. Every piece in the run shares the run's version
// and completes when the run's result state is ready.
func (sh *shard) dispatch(run []shardReq) {
	if mk := run[0].mark; mk != nil {
		// The applier is the only writer of st/version, so reading its
		// own last publication needs no lock.
		mk.vals[sh.idx], mk.cut[sh.idx] = sh.st, sh.version
		mk.wg.Done()
		return
	}
	sh.queued.Add(-int64(len(run)))
	sh.batches.Add(1)

	be, op := sh.s.be, run[0].op
	// The applier is the sole version writer, so the run's version is
	// known before publication — which is what lets the WAL record go to
	// the log *before* the result root is installed.
	v := sh.version + 1
	gate := &ackGate{sh: sh, run: run, v: v}
	gate.open.Store(1) // one arm: the result root published

	if sh.store != nil {
		// The record's keys are the coalesced run's merged piece keys,
		// mirroring the piece coalescing below: (A∪B1)∪B2 = A∪(B1∪B2) and
		// (A\B1)\B2 = A\(B1∪B2); intersects never coalesce, so a
		// singleton's keys stand alone. The record turning durable is the
		// gate's second arm.
		merged := run[0].keys
		for _, r := range run[1:] {
			merged = mergeSortedDistinct(merged, r.keys)
		}
		gate.open.Store(2)
		// The flusher sets the store's error before it runs the
		// callbacks of a failed flush, so Err() here is this record's
		// outcome.
		durable := func() {
			gate.lost = sh.store.Err()
			gate.arrive(nil)
		}
		if err := sh.store.Append(persist.Record{Seq: v, Kind: kindOf(op), Keys: merged}, durable); err != nil {
			// A failed, closed or misused store refused the record. Nothing
			// was logged, so nothing is published either: the version stays
			// where it was and the run's requests fail with the refusal.
			gate.v, gate.lost = sh.version, err
			gate.open.Store(1)
			gate.arrive(nil)
			return
		}
	}

	// sh.actx (affine policy) steers the coalesce/apply root forks to
	// this shard's preferred worker's mailbox; nil (baseline) injects
	// them globally. Either way the computed state is identical — the
	// ctx only picks which worker's cache the pipeline stage starts in.
	piece := run[0].piece
	for _, r := range run[1:] {
		piece = be.Combine(sh.actx, OpUnion, piece, r.piece)
	}
	next := be.Combine(sh.actx, op, sh.st, piece)

	sh.mu.Lock()
	sh.version = v
	sh.st = next
	sh.mu.Unlock()

	be.Ready(next, gate.arrive)
	sh.maybeSnapshot(next, v)
}
