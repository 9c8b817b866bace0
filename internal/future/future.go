// Package future implements futures for real parallel execution on
// goroutines: the construct of Section 2 of "Pipelining with Futures" mapped
// onto Go. A future call (Spawn) starts a goroutine to compute one or more
// values and immediately returns cells; reading a cell (Read) blocks until
// it has been written. Cells are write-once and may be read any number of
// times; writes publish via a closed channel, so reads after the write are a
// single atomic-free channel receive on the fast path.
//
// This package is the public Spawn/Cell API of package pipefut (and the
// cell vocabulary the pipelint analyzers check). It suspends a whole
// goroutine per blocked read, and Go's scheduler reactivates it on the
// write. The paper's algorithms do not run on it: they run on the
// work-stealing scheduler of package sched, where a blocked read parks
// only a continuation (see internal/paralg).
package future

import "sync/atomic"

// Cell is a write-once future cell. The zero value is not usable; create
// cells with New, Done, Spawn, or the SpawnN variants.
type Cell[T any] struct {
	done    chan struct{}
	val     T
	written atomic.Bool
}

// New returns an empty cell. Whoever holds the cell may Write it (once) and
// any number of goroutines may Read it.
func New[T any]() *Cell[T] {
	return &Cell[T]{done: make(chan struct{})}
}

// Done returns a cell already holding v. Use it for inputs and for results
// computed synchronously (for example below a sequential cutoff).
func Done[T any](v T) *Cell[T] {
	c := &Cell[T]{done: closedChan, val: v}
	c.written.Store(true)
	return c
}

// closedChan is shared by all Done cells to avoid an allocation per cell.
var closedChan = func() chan struct{} {
	ch := make(chan struct{})
	close(ch)
	return ch
}()

// Write stores v and wakes all readers. Writing a cell twice panics, as the
// model requires (future cells are single-assignment).
func (c *Cell[T]) Write(v T) {
	if !c.written.CompareAndSwap(false, true) {
		panic("future: cell written twice")
	}
	c.val = v
	close(c.done)
}

// Read returns the cell's value, blocking until it has been written.
func (c *Cell[T]) Read() T {
	<-c.done
	return c.val
}

// TryRead returns the value and true if the cell has been written, without
// blocking.
func (c *Cell[T]) TryRead() (T, bool) {
	select {
	case <-c.done:
		return c.val, true
	default:
		var zero T
		return zero, false
	}
}

// Ready reports whether the cell has been written.
func (c *Cell[T]) Ready() bool {
	select {
	case <-c.done:
		return true
	default:
		return false
	}
}

// Spawn is a future call: it starts a goroutine evaluating f and returns
// the cell its result will be written to.
func Spawn[T any](f func() T) *Cell[T] {
	c := New[T]()
	go func() { c.Write(f()) }()
	return c
}

// Spawn2 is a future call with two result cells. The body receives both
// write capabilities and must write each exactly once; it may write them at
// different times, which is what pipelines partial results (one half of a
// split can be ready long before the other).
func Spawn2[A, B any](f func(a *Cell[A], b *Cell[B])) (*Cell[A], *Cell[B]) {
	a, b := New[A](), New[B]()
	go f(a, b)
	return a, b
}

// Spawn3 is a future call with three result cells (splitm's two treaps plus
// the optional duplicate).
func Spawn3[A, B, C any](f func(a *Cell[A], b *Cell[B], c *Cell[C])) (*Cell[A], *Cell[B], *Cell[C]) {
	a, b, c := New[A](), New[B](), New[C]()
	go f(a, b, c)
	return a, b, c
}
