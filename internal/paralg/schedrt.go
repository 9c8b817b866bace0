package paralg

// SchedRuntime adapts the explicit work-stealing scheduler of package
// sched to the algorithms' Ctx/NodeCell vocabulary. The Ctx threaded
// through the algorithms is the current *sched.Worker (nil when entering
// from outside the pool), so every fork lands on the forking worker's own
// deque and every touch of an unwritten cell suspends just the
// continuation.

import "pipefut/internal/sched"

// SchedRuntime wraps a sched.Runtime. Create one with NewSchedRuntime and
// release its workers with Close when done.
type SchedRuntime struct {
	RT *sched.Runtime
}

// NewSchedRuntime starts a scheduler with p workers.
func NewSchedRuntime(p int) *SchedRuntime {
	return &SchedRuntime{RT: sched.NewRuntime(p)}
}

// NewSchedRuntimeOpts starts a scheduler with p workers and the given
// locality options (affinity groups, steal-half, mailbox bounds).
func NewSchedRuntimeOpts(p int, opt sched.Options) *SchedRuntime {
	return &SchedRuntime{RT: sched.NewRuntimeOpts(p, opt)}
}

// affineCtx is the Ctx produced by AffineCtx: entering an algorithm
// under it routes the ROOT fork through sched.Runtime.Submit with a
// preferred worker. Once the root task runs, the Ctx threaded onward is
// the real *sched.Worker, so descendants take the normal local-deque
// path — the hint steers where a pipeline stage starts, not every node.
// asWorker on an affineCtx yields nil (external), which is exactly the
// contract non-fork operations (Touch, Write) expect from a caller that
// is not on a worker.
type affineCtx struct {
	rt     *sched.Runtime
	worker int
}

// AffineCtx returns a Ctx carrying a locality hint: forks made under it
// are submitted to the preferred worker's mailbox (sched.Submit) rather
// than the global injection queue. Derive worker from a shard or
// partition id with s.RT.AffinityFor. The hint never changes results —
// only which worker's cache the work lands in; verifycross's affinity
// lane replays recorded DAGs through this path to prove it.
func (s *SchedRuntime) AffineCtx(worker int) Ctx {
	return affineCtx{rt: s.RT, worker: worker}
}

// Close drains outstanding work and stops the workers.
func (s *SchedRuntime) Close() {
	s.RT.Wait()
	s.RT.Shutdown()
}

// Fork schedules f as an independent task. A ctx made by AffineCtx
// routes the fork to the hinted worker's mailbox; any other ctx follows
// the usual contract (a *sched.Worker forks onto its own deque, nil
// injects globally).
func (s *SchedRuntime) Fork(ctx Ctx, f func(Ctx)) {
	if a, ok := ctx.(affineCtx); ok {
		a.rt.Submit(nil, func(w *sched.Worker) { f(w) }, a.worker)
		return
	}
	s.RT.Fork(asWorker(ctx), func(w *sched.Worker) { f(w) })
}

// NewNode returns a fresh unwritten tree-edge cell.
func (s *SchedRuntime) NewNode() NodeCell { return schedNodeCell{sched.NewCell[*RNode](s.RT)} }

// DoneNode returns a cell already holding n. The allocation is
// attributed to the runtime's cell counters (sched.DoneOn) so
// per-runtime cell budgets include converter-built input trees.
func (s *SchedRuntime) DoneNode(n *RNode) NodeCell { return schedNodeCell{sched.DoneOn(s.RT, n)} }

// NewT26 returns a fresh unwritten 2-6-tree-edge cell.
func (s *SchedRuntime) NewT26() T26Cell { return schedT26Cell{sched.NewCell[*RT26Node](s.RT)} }

// DoneT26 returns a cell already holding n.
func (s *SchedRuntime) DoneT26(n *RT26Node) T26Cell { return schedT26Cell{sched.DoneOn(s.RT, n)} }

// asWorker recovers the scheduling context; a nil or foreign ctx means
// "not on a worker", which sched treats as an external submission.
func asWorker(ctx Ctx) *sched.Worker {
	w, _ := ctx.(*sched.Worker)
	return w
}

// The cell wrappers are deliberately concrete single-pointer structs: a
// struct holding one pointer is pointer-shaped, so converting it to the
// NodeCell/T26Cell interface allocates nothing. (A two-word wrapper
// forces a heap box per cell creation; X-CELLVAR measured that at a 33%
// end-to-end regression.)
type schedNodeCell struct{ c *sched.Cell[*RNode] }

func (s schedNodeCell) Write(ctx Ctx, n *RNode) { s.c.Write(asWorker(ctx), n) }
func (s schedNodeCell) Touch(ctx Ctx, k func(Ctx, *RNode)) {
	s.c.Touch(asWorker(ctx), func(w *sched.Worker, n *RNode) { k(w, n) })
}
func (s schedNodeCell) Read() *RNode { return s.c.Read() }

type schedT26Cell struct{ c *sched.Cell[*RT26Node] }

func (s schedT26Cell) Write(ctx Ctx, n *RT26Node) { s.c.Write(asWorker(ctx), n) }
func (s schedT26Cell) Touch(ctx Ctx, k func(Ctx, *RT26Node)) {
	s.c.Touch(asWorker(ctx), func(w *sched.Worker, n *RT26Node) { k(w, n) })
}
func (s schedT26Cell) Read() *RT26Node { return s.c.Read() }
