package future

import (
	"sync"
	"testing"
)

// TestStressPipelineFanout hammers the concurrent runtime under the race
// detector: a chain of spawned stages, each stage's cell read by many
// goroutines concurrently with the write, plus TryRead/Ready probes racing
// the writers. Every reader of stage i must observe exactly the value the
// stage wrote — single assignment means there is no second value to see.
func TestStressPipelineFanout(t *testing.T) {
	const (
		stages  = 32
		readers = 16
	)

	// Stage 0 is an input; stage i+1 reads stage i and adds one.
	cells := make([]*Cell[int], stages)
	cells[0] = Done(0)
	for i := 1; i < stages; i++ {
		prev := cells[i-1]
		cells[i] = Spawn(func() int { return prev.Read() + 1 })
	}

	var wg sync.WaitGroup
	for i := 0; i < stages; i++ {
		for r := 0; r < readers; r++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				// Probe racily first, then block; both must be
				// consistent with the single written value.
				if v, ok := cells[i].TryRead(); ok && v != i {
					t.Errorf("TryRead(stage %d) = %d, want %d", i, v, i)
				}
				_ = cells[i].Ready()
				if v := cells[i].Read(); v != i {
					t.Errorf("Read(stage %d) = %d, want %d", i, v, i)
				}
			}(i)
		}
	}
	wg.Wait()
}

// TestStressSpawn2Staggered runs many two-result futures whose first cell
// is written long before the second (the pipelining pattern of Sections
// 3.1–3.3), with concurrent consumers of both cells.
func TestStressSpawn2Staggered(t *testing.T) {
	const pipelines = 64

	var wg sync.WaitGroup
	for k := 0; k < pipelines; k++ {
		a, b := Spawn2(func(a *Cell[int], b *Cell[int]) {
			a.Write(1)
			// Delay b's write behind a real dependency, not a sleep.
			b.Write(a.Read() + 1)
		})
		// A downstream stage that only needs `a` starts immediately.
		c := Spawn(func() int { return a.Read() * 10 })
		wg.Add(1)
		go func() {
			defer wg.Done()
			if got := c.Read() + b.Read(); got != 12 {
				t.Errorf("pipeline result = %d, want 12", got)
			}
		}()
	}
	wg.Wait()
}
