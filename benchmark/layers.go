package main

// Layer probes: each lower layer driven bare, from outside, through its
// public functions, on the operands the live phase used. They run in the
// traced run only, after the live phases, and fill the per-layer metrics
// that are timings of one layer alone.

import (
	"fmt"
	"path/filepath"
	"runtime"
	"sort"
	"sync/atomic"
	"time"

	"pipefut/internal/paralg"
	"pipefut/internal/persist"
	"pipefut/internal/sched"
	"pipefut/internal/seqtreap"
	"pipefut/internal/serve"
	"pipefut/internal/workload"
)

// serveSchedOptions is the scheduler serve.Open starts for its default
// (affine) steal policy; the probes run the lower layers on the same.
func serveSchedOptions() sched.Options { return sched.Options{Groups: shards, StealHalf: true} }

// pivots are serve's default shard boundaries over [0, universe).
var pivots = func() []int {
	pv := make([]int, 0, shards-1)
	for i := 1; i < shards; i++ {
		pv = append(pv, universe*i/shards)
	}
	return pv
}()

// pieceOf slices a sorted batch down to one shard's key range.
func pieceOf(sorted []int, sh int) []int {
	pv := pivots
	lo, hi := 0, len(sorted)
	if sh > 0 {
		lo = sort.SearchInts(sorted, pv[sh-1])
	}
	if sh < len(pv) {
		hi = sort.SearchInts(sorted, pv[sh])
	}
	return sorted[lo:hi]
}

// replayed is one request picked for replay: the request and the span its
// replays hang under.
type replayed struct {
	req      *request
	id       int // request index in the traced phase
	callSpan int
}

// paralgReplay is what replaying mutations against paralg and seqtreap
// alone measured: medians per mutation request, in microseconds.
type paralgReplay struct {
	n                              int
	buildUS, rootUS, materialiseUS float64
	seqUS, cellsPerOp, containsUS  float64
}

// replayParalg feeds the traced phase's mutations to paralg alone: an
// RConfig with serve's options on a fresh scheduler, over shard trees
// built from the same preload, each mutation prepared and applied the way
// serve's treap backend does it (build the operand treap, split it at the
// pivots, union or difference each piece into its shard under the shard's
// affine context).
//
// It makes two passes over the same operands from the same starting trees
// (they are persistent, so the first pass leaves them intact). The first
// is pipelined as serve is: the next mutation starts as soon as every
// touched shard's result root is written, with the previous trees still
// materialising behind it; root is that time, the earliest serve could
// acknowledge. The second waits for the scheduler to go quiescent after
// each mutation: materialise is the time to there, and the cells allocated
// on the way are the mutation's alone. The operands then go through
// seqtreap, the sequential floor.
func replayParalg(muts []replayed, preload []int, budget time.Duration, tr *tracer) paralgReplay {
	rt := paralg.NewSchedRuntimeOpts(runtime.GOMAXPROCS(0), serveSchedOptions())
	defer rt.Close()
	pc := paralg.RConfig{R: rt, SpawnDepth: paralg.DefaultConfig.SpawnDepth, GrainCutoff: serve.DefaultGrainCutoff}
	pv := pivots
	sorted := sortedDistinct(preload)
	initial := pc.SplitRanges(nil, pc.BuildTreap(nil, sorted), pv)
	rt.RT.Wait()
	var seqRoots [shards]*seqtreap.Node
	var actx [shards]paralg.Ctx
	for sh := range seqRoots {
		seqRoots[sh] = seqtreap.FromKeys(pieceOf(sorted, sh))
		actx[sh] = rt.AffineCtx(rt.RT.AffinityFor(sh))
	}
	// apply runs one mutation on roots the way serve does: prepare the
	// operand, start each touched shard's piece under that shard's affine
	// context, park a continuation on each new root, and block on one cell
	// that the last root to be written fills in.
	apply := func(roots []paralg.NodeCell, m replayed, keys []int) {
		pieces := pc.SplitRanges(nil, pc.BuildTreap(nil, keys), pv)
		done := sched.NewCell[struct{}](rt.RT)
		var open atomic.Int32
		open.Store(1) // held until every touched shard is started
		arrive := func(ctx paralg.Ctx, _ *paralg.RNode) {
			if open.Add(-1) == 0 {
				w, _ := ctx.(*sched.Worker)
				done.Write(w, struct{}{})
			}
		}
		for sh := 0; sh < shards; sh++ {
			if len(pieceOf(keys, sh)) == 0 {
				continue
			}
			if m.req.kind == opUnion {
				roots[sh] = pc.Union(actx[sh], roots[sh], pieces[sh])
			} else {
				roots[sh] = pc.Diff(actx[sh], roots[sh], pieces[sh])
			}
			open.Add(1)
			roots[sh].Touch(nil, arrive)
		}
		arrive(nil, nil)
		done.Read()
	}

	var out paralgReplay
	var build, root, mat, seq []time.Duration
	start := time.Now()

	roots := append([]paralg.NodeCell(nil), initial...)
	for _, m := range muts {
		if time.Since(start) > budget/2 {
			break
		}
		keys := sortedDistinct(m.req.keys)
		t0 := time.Now()
		apply(roots, m, keys)
		d := time.Since(t0)
		root = append(root, d)
		tr.add(m.callSpan, m.id, "paralg.root", t0.Sub(start), t0.Sub(start)+d, true)
	}
	rt.RT.Wait()

	var cells int64
	roots = append(roots[:0], initial...)
	for _, m := range muts[:len(root)] {
		keys := sortedDistinct(m.req.keys)
		t0 := time.Now()
		pc.BuildTreap(nil, keys)
		rt.RT.Wait()
		build = append(build, time.Since(t0))

		c0 := rt.RT.Counters()
		t1 := time.Now()
		apply(roots, m, keys)
		rt.RT.Wait()
		dMat := time.Since(t1)
		c := rt.RT.Counters().Sub(c0)
		cells += c.CellsShared + c.CellsLinear + c.CellsForwarded

		t2 := time.Now()
		for sh := 0; sh < shards; sh++ {
			piece := pieceOf(keys, sh)
			if len(piece) == 0 {
				continue
			}
			if opd := seqtreap.FromKeys(piece); m.req.kind == opUnion {
				seqRoots[sh] = seqtreap.Union(seqRoots[sh], opd)
			} else {
				seqRoots[sh] = seqtreap.Diff(seqRoots[sh], opd)
			}
		}
		dSeq := time.Since(t2)

		mat, seq = append(mat, dMat), append(seq, dSeq)
		tr.add(m.callSpan, m.id, "paralg.materialize", t1.Sub(start), t1.Sub(start)+dMat, true)
		tr.add(m.callSpan, m.id, "seqtreap.op", t2.Sub(start), t2.Sub(start)+dSeq, true)
	}
	out.n = len(root)
	if out.n > 0 {
		out.buildUS = us(quantile(build, 0.5))
		out.rootUS = us(quantile(root, 0.5))
		out.materialiseUS = us(quantile(mat, 0.5))
		out.seqUS = us(quantile(seq, 0.5))
		out.cellsPerOp = float64(cells) / float64(out.n)
	}
	out.containsUS = containsProbe(rt, roots)
	return out
}

// probeCount is how many operations a fixed-count probe times.
const probeCount = 1 << 16

// containsProbe times paralg.RContains on materialised shard trees from
// inside one scheduler task, so nothing but the walk is on the clock.
func containsProbe(rt *paralg.SchedRuntime, roots []paralg.NodeCell) float64 {
	rng := workload.NewRNG(1)
	probes := randKeys(rng, probeCount)
	done := make(chan time.Duration, 1)
	rt.RT.Fork(nil, func(w *sched.Worker) {
		hits := 0
		t0 := time.Now()
		for _, k := range probes {
			paralg.RContains(w, roots[shardOf(k)], k, func(_ paralg.Ctx, ok bool) {
				if ok {
					hits++
				}
			})
		}
		done <- time.Since(t0)
	})
	return us(<-done) / probeCount
}

// schedProbe is the scheduler's primitive costs on a fresh runtime with
// serve's options.
type schedProbe struct {
	forkNS, cellNS, reactivateNS, submitReadUS float64
}

func probeSched() schedProbe {
	rt := sched.NewRuntimeOpts(runtime.GOMAXPROCS(0), serveSchedOptions())
	defer func() { rt.Wait(); rt.Shutdown() }()
	var p schedProbe

	// fork: spawn and run an empty task.
	t0 := time.Now()
	rt.Fork(nil, func(w *sched.Worker) {
		for i := 0; i < probeCount; i++ {
			rt.Fork(w, func(*sched.Worker) {})
		}
	})
	rt.Wait()
	p.forkNS = float64(time.Since(t0).Nanoseconds()) / probeCount

	// cell: allocate, write, then touch (the written fast path).
	done := make(chan time.Duration, 1)
	sink := 0
	rt.Fork(nil, func(w *sched.Worker) {
		t0 := time.Now()
		for i := 0; i < probeCount; i++ {
			c := sched.NewCell[int](rt)
			c.Write(w, i)
			c.Touch(w, func(_ *sched.Worker, v int) { sink += v })
		}
		done <- time.Since(t0)
	})
	p.cellNS = float64((<-done).Nanoseconds()) / probeCount

	// reactivate: touch before write, so the continuation suspends and the
	// write requeues it.
	t0 = time.Now()
	rt.Fork(nil, func(w *sched.Worker) {
		for i := 0; i < probeCount; i++ {
			c := sched.NewCell[int](rt)
			c.Touch(w, func(*sched.Worker, int) {}) // may run on a thief: touches nothing shared
			c.Write(w, i)
		}
	})
	rt.Wait()
	p.reactivateNS = float64(time.Since(t0).Nanoseconds()) / probeCount

	// submit+read: what a query pays the scheduler, from a goroutine that
	// is not a worker: Submit with an affinity hint, then a blocking read.
	lats := make([]time.Duration, 0, 4096)
	for i := 0; i < cap(lats); i++ {
		t0 := time.Now()
		c := sched.NewCell[int](rt)
		rt.Submit(nil, func(w *sched.Worker) { c.Write(w, 1) }, rt.AffinityFor(i%shards))
		if _, err := c.ReadErr(); err != nil {
			panic(err) // the runtime is not shut down until this function returns
		}
		lats = append(lats, time.Since(t0))
	}
	p.submitReadUS = us(quantile(lats, 0.5))
	return p
}

// persistProbe is the durability layer alone: how long one record takes
// from Append to its onDurable callback under each fsync policy, and how
// long a 32k-key snapshot takes to write.
type persistProbe struct {
	ackAlwaysUS, ackBatchUS, snapshotMS float64
}

func probePersist(dir string, muts []replayed, shardKeys []int, budget time.Duration, tr *tracer) (persistProbe, error) {
	var p persistProbe
	ack := func(policy persist.FsyncPolicy, span bool) (float64, error) {
		st, _, err := persist.OpenShard(filepath.Join(dir, policy.String()), persist.Options{Policy: policy})
		if err != nil {
			return 0, err
		}
		defer st.Close()
		var lats []time.Duration
		start := time.Now()
		for i, m := range muts {
			if time.Since(start) > budget/3 {
				break
			}
			kind := persist.KindUnion
			if m.req.kind == opDifference {
				kind = persist.KindDifference
			}
			keys := sortedDistinct(m.req.keys)
			durable := make(chan struct{})
			t0 := time.Now()
			if err := st.Append(persist.Record{Seq: uint64(i + 1), Kind: kind, Keys: keys}, func() { close(durable) }); err != nil {
				return 0, err
			}
			<-durable
			d := time.Since(t0)
			lats = append(lats, d)
			if span {
				tr.add(m.callSpan, m.id, "persist.ack", t0.Sub(start), t0.Sub(start)+d, true)
			}
		}
		if policy == persist.FsyncAlways {
			var snaps []time.Duration
			for i := 0; i < 3; i++ {
				t0 := time.Now()
				if err := st.Snapshot(uint64(len(lats)), shardKeys); err != nil {
					return 0, err
				}
				snaps = append(snaps, time.Since(t0))
			}
			p.snapshotMS = ms(quantile(snaps, 0.5))
		}
		if err := st.Err(); err != nil {
			return 0, err
		}
		return us(quantile(lats, 0.5)), nil
	}
	var err error
	if p.ackAlwaysUS, err = ack(persist.FsyncAlways, true); err != nil {
		return p, fmt.Errorf("persist probe: %w", err)
	}
	if p.ackBatchUS, err = ack(persist.FsyncBatch, false); err != nil {
		return p, fmt.Errorf("persist probe: %w", err)
	}
	return p, nil
}
