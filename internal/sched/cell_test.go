package sched

import (
	"sync"
	"sync/atomic"
	"testing"
)

func TestCellWriteThenTouchRunsInline(t *testing.T) {
	rt := NewRuntime(1)
	defer rt.Shutdown()
	c := NewCell[int](rt)
	c.Write(nil, 7)
	ran := false
	c.Touch(nil, func(_ *Worker, v int) {
		ran = true
		if v != 7 {
			t.Errorf("touch got %d, want 7", v)
		}
	})
	if !ran {
		t.Fatal("touch of a written cell must run inline")
	}
	if got := rt.Counters().Suspensions; got != 0 {
		t.Fatalf("suspensions = %d, want 0", got)
	}
}

func TestCellTouchBeforeWriteSuspends(t *testing.T) {
	rt := NewRuntime(2)
	defer rt.Shutdown()
	c := NewCell[string](rt)
	got := NewCell[string](rt)
	c.Touch(nil, func(w *Worker, v string) { got.Write(w, v+"!") })
	if c.Ready() {
		t.Fatal("cell ready before write")
	}
	c.Write(nil, "hi")
	if v := got.Read(); v != "hi!" {
		t.Fatalf("continuation produced %q, want %q", v, "hi!")
	}
	rt.Wait()
	ctr := rt.Counters()
	if ctr.Suspensions < 1 || ctr.Reactivations < 1 {
		t.Fatalf("want ≥1 suspension and reactivation, got %+v", ctr)
	}
}

func TestCellManyWaiters(t *testing.T) {
	rt := NewRuntime(4)
	defer rt.Shutdown()
	c := NewCell[int](rt)
	const waiters = 1000
	var sum atomic.Int64
	for i := 0; i < waiters; i++ {
		c.Touch(nil, func(_ *Worker, v int) { sum.Add(int64(v)) })
	}
	c.Write(nil, 3)
	rt.Wait()
	if got := sum.Load(); got != 3*waiters {
		t.Fatalf("sum = %d, want %d", got, 3*waiters)
	}
	if got := rt.Counters().Reactivations; got != waiters {
		t.Fatalf("reactivations = %d, want %d", got, waiters)
	}
}

func TestCellDoubleWritePanics(t *testing.T) {
	rt := NewRuntime(1)
	defer rt.Shutdown()
	c := NewCell[int](rt)
	c.Write(nil, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on double write")
		}
	}()
	c.Write(nil, 2)
}

func TestDoneCell(t *testing.T) {
	c := Done(42)
	if !c.Ready() {
		t.Fatal("Done cell not ready")
	}
	if v, ok := c.TryRead(); !ok || v != 42 {
		t.Fatalf("TryRead = %d,%v", v, ok)
	}
	if c.Read() != 42 {
		t.Fatal("Read mismatch")
	}
	ran := false
	c.Touch(nil, func(_ *Worker, v int) { ran = v == 42 })
	if !ran {
		t.Fatal("Touch on Done cell must run inline")
	}
}

// TestDoneOn pins the born-written cell every converted input node is:
// DoneOn counts exactly one forwarded allocation (Done counts none), a
// touch runs inline without suspending, the value stays readable after
// the runtime it was counted on shuts down, and a write panics.
func TestDoneOn(t *testing.T) {
	rt := NewRuntime(1)
	before := rt.Counters()
	_ = Done(1)
	if d := rt.Counters().Sub(before); d.CellsForwarded != 0 || d.CellsShared != 0 {
		t.Fatalf("Done counted cells: %v", d)
	}
	c := DoneOn(rt, 42)
	d := rt.Counters().Sub(before)
	if d.CellsForwarded != 1 || d.CellsShared != 0 {
		t.Fatalf("DoneOn: forwarded=%d shared=%d, want 1/0", d.CellsForwarded, d.CellsShared)
	}
	ran := false
	c.Touch(nil, func(_ *Worker, v int) { ran = v == 42 })
	if !ran {
		t.Fatal("Touch on a DoneOn cell must run inline")
	}
	if got := rt.Counters().Suspensions; got != 0 {
		t.Fatalf("suspensions = %d, want 0", got)
	}
	rt.Shutdown()
	if v, err := c.ReadErr(); err != nil || v != 42 {
		t.Fatalf("ReadErr after Shutdown = %d, %v; want 42, nil", v, err)
	}
	if c.Read() != 42 {
		t.Fatal("Read after Shutdown mismatch")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on write of a born-written cell")
		}
	}()
	c.Write(nil, 7)
}

// TestCellTouchWriteRace hammers the suspend/write race: many cells, each
// with concurrent touchers racing one writer; every continuation must run
// exactly once.
func TestCellTouchWriteRace(t *testing.T) {
	rt := NewRuntime(4)
	defer rt.Shutdown()
	const (
		cells    = 200
		touchers = 8
	)
	var runs atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < cells; i++ {
		c := NewCell[int](rt)
		for r := 0; r < touchers; r++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				c.Touch(nil, func(_ *Worker, v int) { runs.Add(1) })
			}()
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c.Write(nil, i)
		}(i)
	}
	wg.Wait()
	rt.Wait()
	if got := runs.Load(); got != cells*touchers {
		t.Fatalf("continuations ran %d times, want %d", got, cells*touchers)
	}
}

// TestExternalReadBlocksUntilWrite reads a cell from outside the runtime
// while worker tasks produce it through a chain of touches.
func TestExternalReadBlocksUntilWrite(t *testing.T) {
	rt := NewRuntime(2)
	defer rt.Shutdown()
	out := NewCell[int](rt)
	inner := Spawn(rt, nil, func(*Worker) int { return 20 })
	inner.Touch(nil, func(w *Worker, v int) { out.Write(w, v+22) })
	if got := out.Read(); got != 42 {
		t.Fatalf("external Read = %d, want 42", got)
	}
	rt.Wait()
}

// BenchmarkCell measures the cell's three paths: a touch that finds the
// value written (the hot path of every pipelined walk, on a fresh and on
// a born-written cell), allocate+write with no waiters, and the
// park/requeue round trip. EXPERIMENTS.md X-CELLVAR records the numbers;
// rerun with
//
//	go test -run '^$' -bench 'Cell$' -benchtime 1000000x ./internal/sched/
func BenchmarkCell(b *testing.B) {
	rt := NewRuntime(1)
	defer rt.Shutdown()

	touch := func(b *testing.B, c *Cell[int]) {
		sink := 0
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.Touch(nil, func(_ *Worker, v int) { sink += v })
		}
		_ = sink
	}
	b.Run("touch-written", func(b *testing.B) {
		c := NewCell[int](rt)
		c.Write(nil, 7)
		touch(b, c)
	})
	b.Run("done-touch", func(b *testing.B) { touch(b, DoneOn(rt, 7)) })
	b.Run("alloc-write", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			NewCell[int](rt).Write(nil, i)
		}
	})
	b.Run("park-write", func(b *testing.B) {
		done := make(chan int)
		for i := 0; i < b.N; i++ {
			c := NewCell[int](rt)
			c.Touch(nil, func(_ *Worker, v int) { done <- v })
			c.Write(nil, i)
			<-done
		}
	})
}
