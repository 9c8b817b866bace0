package sched

import "sync/atomic"

// Cell state machine: empty → writing → written. "writing" is the short
// window in which the writer stores the value; touches during it take the
// suspension path and are drained by the same write.
const (
	cellEmpty int32 = iota
	cellWriting
	cellWritten
)

// Cell is a write-once future cell on a Runtime. Unlike future.Cell,
// touching an unwritten Cell from a task does not block the worker's
// goroutine: the continuation is parked on the cell's waiter list
// (Section 4's queue of suspended threads) and the write requeues every
// waiter onto the writer's deque.
//
// The zero value is not usable; create cells with NewCell, Done, or
// Spawn.
type Cell[T any] struct {
	rt      *Runtime
	val     T
	state   atomic.Int32
	waiters atomic.Pointer[waiter[T]] // Treiber stack, closed by the write
}

// waiter is one suspended continuation. A node with closed=true is the
// sentinel the write swaps in: pushes that observe it run inline instead.
// by records which worker suspended the continuation (-1 external), so
// the write can charge a deviation when a different worker resumes it.
type waiter[T any] struct {
	k      func(*Worker, T)
	next   *waiter[T]
	by     int
	closed bool
}

// workerID resolves w's id, -1 for external (nil) callers.
func workerID(w *Worker) int {
	if w == nil {
		return -1
	}
	return w.id
}

// NewCell returns an empty cell owned by rt.
func NewCell[T any](rt *Runtime) *Cell[T] {
	if rt == nil {
		panic("sched: NewCell with nil runtime")
	}
	rt.cellsShared.Add(1)
	return &Cell[T]{rt: rt}
}

// Done returns a cell already holding v. Done cells belong to no runtime
// (they can never have waiters) and are shareable across runtimes.
func Done[T any](v T) *Cell[T] {
	c := &Cell[T]{val: v}
	c.state.Store(cellWritten)
	return c
}

// DoneOn is Done with the allocation counted in rt's CellsForwarded, so
// per-runtime cell totals include converter-built input trees. The cell
// itself still belongs to no runtime; rt is only the accounting target.
func DoneOn[T any](rt *Runtime, v T) *Cell[T] {
	if rt != nil {
		rt.cellsForwarded.Add(1)
	}
	return Done(v)
}

// Write stores v, then requeues every suspended continuation onto w's
// deque (or the injection queue when w is nil). w follows the Fork
// contract: the worker the caller is running on, or nil from outside.
// Writing a cell twice panics, as single assignment requires.
func (c *Cell[T]) Write(w *Worker, v T) {
	if !c.state.CompareAndSwap(cellEmpty, cellWriting) {
		panic("sched: cell written twice")
	}
	c.val = v
	c.state.Store(cellWritten)
	head := c.waiters.Swap(&waiter[T]{closed: true})
	if head == nil {
		return
	}
	rt := c.rt
	stats := rt.statsFor(w)
	for ; head != nil; head = head.next {
		k := head.k
		// A continuation suspended by one worker and requeued onto a
		// different worker's deque is a cross-worker reactivation — a
		// deviation in Herlihy & Liu's accounting: the resuming worker
		// executes work whose suspended state another worker's cache
		// holds. A requeue by the suspender itself, or of an externally
		// suspended continuation, charges nothing. (A requeue into the
		// injection queue charges at pickup instead, and a subsequently
		// stolen reactivation charges again at the steal — the count is
		// monitoring-grade and errs toward the miss actually incurred.)
		if w != nil && head.by >= 0 && head.by != w.id {
			stats.deviations.Add(1)
		}
		// The waiter was counted as pending at suspension time, so
		// requeue without a pending increment.
		rt.enqueue(w, func(w2 *Worker) { k(w2, v) }, &stats.reactivations)
	}
}

// Touch runs k with the cell's value: immediately (on the caller's stack)
// if the cell is written, otherwise by suspending k until the write. w
// follows the Fork contract. This is the paper's touch operation — the
// only difference from future.Cell.Read is that the suspension parks a
// continuation, not a goroutine.
func (c *Cell[T]) Touch(w *Worker, k func(*Worker, T)) {
	if c.state.Load() == cellWritten {
		k(w, c.val)
		return
	}
	rt := c.rt
	// Count the suspended continuation as pending before publishing it,
	// so a racing write cannot retire it below zero.
	rt.pending.Add(1)
	node := &waiter[T]{k: k, by: workerID(w)}
	for {
		head := c.waiters.Load()
		if head != nil && head.closed {
			// The write happened while we prepared to suspend.
			rt.taskDone()
			k(w, c.val)
			return
		}
		node.next = head
		if c.waiters.CompareAndSwap(head, node) {
			rt.statsFor(w).suspensions.Add(1)
			return
		}
	}
}

// TryRead returns the value and true if the cell has been written,
// without blocking or suspending.
func (c *Cell[T]) TryRead() (T, bool) {
	if c.state.Load() == cellWritten {
		return c.val, true
	}
	var zero T
	return zero, false
}

// Ready reports whether the cell has been written.
func (c *Cell[T]) Ready() bool { return c.state.Load() == cellWritten }

// Read returns the cell's value, blocking the calling goroutine until the
// write. It is for harvesting results from OUTSIDE the runtime; calling
// it from inside a task would block a worker goroutine (use Touch there).
//
// If the runtime is shut down while the cell is still unwritten, Read
// panics (with ErrShutdown inside the message) rather than blocking
// forever on a value no worker will ever produce. Callers that race
// reads against Shutdown should use ReadErr.
func (c *Cell[T]) Read() T {
	v, err := c.ReadErr()
	if err != nil {
		panic("sched: Read of a cell stranded by Shutdown: " + err.Error())
	}
	return v
}

// ReadErr is Read with an error path instead of a hang: it blocks until
// the cell is written and returns its value, or returns ErrShutdown once
// the runtime has been shut down with the cell still unwritten. External
// callers only, like Read.
func (c *Cell[T]) ReadErr() (T, error) {
	if c.state.Load() == cellWritten {
		return c.val, nil
	}
	rt := c.rt
	if rt == nil {
		// A Done cell with no runtime is always written; reaching here
		// means the zero Cell value was used.
		panic("sched: read of an unusable zero Cell")
	}
	ch := make(chan T, 1)
	c.Touch(nil, func(_ *Worker, v T) { ch <- v })
	select {
	case v := <-ch:
		return v, nil
	case <-rt.stopped:
		// The workers are gone. The write may still have landed (the
		// requeued continuation was dropped, not the value): prefer it.
		select {
		case v := <-ch:
			return v, nil
		default:
		}
		if c.state.Load() == cellWritten {
			return c.val, nil
		}
		var zero T
		return zero, ErrShutdown
	}
}
