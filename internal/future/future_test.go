package future

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestWriteThenRead(t *testing.T) {
	c := New[int]()
	c.Write(7)
	if got := c.Read(); got != 7 {
		t.Fatalf("read = %d", got)
	}
}

func TestReadBlocksUntilWrite(t *testing.T) {
	c := New[string]()
	done := make(chan string)
	go func() { done <- c.Read() }()
	select {
	case <-done:
		t.Fatal("read returned before write")
	case <-time.After(10 * time.Millisecond):
	}
	c.Write("v")
	if got := <-done; got != "v" {
		t.Fatalf("read = %q", got)
	}
}

func TestManyReadersOneWriter(t *testing.T) {
	c := New[int]()
	var wg sync.WaitGroup
	var sum atomic.Int64
	for i := 0; i < 100; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sum.Add(int64(c.Read()))
		}()
	}
	c.Write(3)
	wg.Wait()
	if sum.Load() != 300 {
		t.Fatalf("sum = %d", sum.Load())
	}
}

func TestDoubleWritePanics(t *testing.T) {
	c := New[int]()
	c.Write(1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	c.Write(2)
}

func TestConcurrentDoubleWriteExactlyOnePanics(t *testing.T) {
	c := New[int]()
	var panics atomic.Int32
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(v int) {
			defer wg.Done()
			defer func() {
				if recover() != nil {
					panics.Add(1)
				}
			}()
			c.Write(v)
		}(i)
	}
	wg.Wait()
	if got := panics.Load(); got != 7 {
		t.Fatalf("panics = %d, want 7 (exactly one write wins)", got)
	}
	c.Read() // must not hang
}

func TestDoneIsReady(t *testing.T) {
	c := Done(42)
	if !c.Ready() {
		t.Fatal("Done not ready")
	}
	if v, ok := c.TryRead(); !ok || v != 42 {
		t.Fatal("TryRead of Done failed")
	}
	if c.Read() != 42 {
		t.Fatal("Read of Done failed")
	}
}

func TestTryReadEmpty(t *testing.T) {
	c := New[int]()
	if _, ok := c.TryRead(); ok {
		t.Fatal("TryRead of empty cell must fail")
	}
	if c.Ready() {
		t.Fatal("empty cell must not be ready")
	}
}

func TestSpawn(t *testing.T) {
	c := Spawn(func() int { return 1 + 1 })
	if c.Read() != 2 {
		t.Fatal("spawn result wrong")
	}
}

func TestSpawn2IndependentAvailability(t *testing.T) {
	gate := make(chan struct{})
	a, b := Spawn2(func(x, y *Cell[int]) {
		x.Write(1)
		<-gate
		y.Write(2)
	})
	if a.Read() != 1 {
		t.Fatal("first cell wrong")
	}
	if b.Ready() {
		t.Fatal("second cell must not be ready yet")
	}
	close(gate)
	if b.Read() != 2 {
		t.Fatal("second cell wrong")
	}
}

func TestSpawn3(t *testing.T) {
	a, b, c := Spawn3(func(x, y, z *Cell[int]) {
		z.Write(3)
		x.Write(1)
		y.Write(2)
	})
	if a.Read() != 1 || b.Read() != 2 || c.Read() != 3 {
		t.Fatal("values wrong")
	}
}

// TestPipelineChain builds a 1000-deep chain of futures each reading its
// predecessor — the suspension/reactivation protocol under real
// concurrency.
func TestPipelineChain(t *testing.T) {
	prev := Done(0)
	for i := 0; i < 1000; i++ {
		p := prev
		prev = Spawn(func() int { return p.Read() + 1 })
	}
	if got := prev.Read(); got != 1000 {
		t.Fatalf("chain result = %d", got)
	}
}

func TestDoneCellsShareClosedChannel(t *testing.T) {
	a, b := Done(1), Done(2)
	if a.done != b.done {
		t.Fatal("Done cells must share the closed channel (allocation-free)")
	}
}
