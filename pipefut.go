// Package pipefut is a Go reproduction of "Pipelining with Futures"
// (G. E. Blelloch and M. Reid-Miller, SPAA 1997 / Theory of Computing
// Systems 32, 1999): futures — write-once result cells with blocking
// reads — implement pipelining *implicitly*, so simple recursive tree code
// gets the O(lg n + lg m) depth that previously required intricate
// hand-managed pipelines.
//
// The package exposes three layers:
//
//   - Futures for real parallel execution (Cell, Spawn, ...): the paper's
//     future construct mapped directly onto Go, one goroutine per future
//     call, a blocked Read suspending its goroutine.
//
//   - Set, an immutable ordered set backed by treaps whose bulk operations
//     (Union, Subtract, Intersect) are the paper's pipelined parallel
//     algorithms: every tree edge is a future cell, so partially built
//     trees stream between pipeline stages. Sets run on the work-stealing
//     scheduler of Section 4 (internal/sched), which parks a suspended
//     continuation instead of a goroutine.
//
//   - The cost model (Engine, Ctx, Fork, Touch, ...), a virtual-time
//     instrument that measures the work and depth of a future-based
//     computation exactly as the paper's DAG model defines them. The
//     experiment harness (cmd/pipebench) uses it to reproduce every
//     theorem of the paper's analysis.
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for the
// paper-versus-measured record.
package pipefut

import (
	"pipefut/internal/core"
	"pipefut/internal/future"
)

// ---- Futures: real parallel execution -----------------------------------

// Cell is a write-once future cell: Write publishes a value exactly once
// and Read blocks until it is available. See package future.
type Cell[T any] = future.Cell[T]

// NewCell returns an empty future cell.
func NewCell[T any]() *Cell[T] { return future.New[T]() }

// Done returns a cell that already holds v.
func Done[T any](v T) *Cell[T] { return future.Done(v) }

// Spawn is a future call: it starts evaluating f in a new goroutine and
// immediately returns the cell its result will be written to.
func Spawn[T any](f func() T) *Cell[T] { return future.Spawn(f) }

// Spawn2 is a future call with two independently written result cells —
// the construct that makes the paper's dynamic pipelines expressible (one
// result of a split can be ready long before the other).
func Spawn2[A, B any](f func(a *Cell[A], b *Cell[B])) (*Cell[A], *Cell[B]) {
	return future.Spawn2(f)
}

// Spawn3 is a future call with three independently written result cells.
func Spawn3[A, B, C any](f func(a *Cell[A], b *Cell[B], c *Cell[C])) (*Cell[A], *Cell[B], *Cell[C]) {
	return future.Spawn3(f)
}

// ---- Cost model: measured virtual-time execution ------------------------

// Engine measures the work and depth of a future-based computation in the
// paper's DAG cost model. See package core for the full API.
type Engine = core.Engine

// Ctx is a logical thread in a measured computation.
type Ctx = core.Ctx

// Costs reports the measured work, depth, and linearity of a computation.
type Costs = core.Costs

// MCell is a future cell in a measured computation.
type MCell[T any] = core.Cell[T]

// NewEngine returns a fresh cost-model engine (pass nil for no DAG trace).
func NewEngine() *Engine { return core.NewEngine(nil) }

// Measure runs f as the root thread of a fresh engine and returns the
// computation's costs. The fastest way to ask "what are the work and depth
// of this algorithm on this input?":
//
//	costs := pipefut.Measure(func(t *pipefut.Ctx) {
//		t.Step(1)
//		c := pipefut.Fork(t, func(t *pipefut.Ctx) int { t.Step(5); return 42 })
//		_ = pipefut.Touch(t, c)
//	})
func Measure(f func(t *Ctx)) Costs {
	eng := core.NewEngine(nil)
	f(eng.NewCtx())
	return eng.Finish()
}

// Fork is a measured future call returning one cell (core.Fork1).
func Fork[A any](t *Ctx, f func(t *Ctx) A) *MCell[A] { return core.Fork1(t, f) }

// Touch reads a measured future cell, suspending (in virtual time) until
// it has been written.
func Touch[A any](t *Ctx, c *MCell[A]) A { return core.Touch(t, c) }

// Write writes a measured future cell (once).
func Write[A any](t *Ctx, c *MCell[A], v A) { core.Write(t, c, v) }
