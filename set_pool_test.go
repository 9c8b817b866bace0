package pipefut

import (
	"sort"
	"sync"
	"testing"

	"pipefut/internal/workload"
)

func sortedUnique(xs []int) []int {
	ys := append([]int(nil), xs...)
	sort.Ints(ys)
	dst := ys[:0]
	for i, k := range ys {
		if i == 0 || k != dst[len(dst)-1] {
			dst = append(dst, k)
		}
	}
	return dst
}

// TestPoolSetOpsMatchDefaultRuntime runs the same set operations on a
// pool and on the shared default scheduler: two separate schedulers must
// agree.
func TestPoolSetOpsMatchDefaultRuntime(t *testing.T) {
	pool := NewPool(4)
	defer pool.Close()

	rng := workload.NewRNG(11)
	ka, kb := workload.OverlappingKeySets(rng, 500, 500, 0.4)

	a, b := pool.NewSetAsync(ka...), pool.NewSet(kb...)
	ga, gb := NewSet(ka...), NewSet(kb...)

	checks := []struct {
		name string
		got  *Set
		want *Set
	}{
		{"union", a.Union(b), ga.Union(gb)},
		{"subtract", a.Subtract(b), ga.Subtract(gb)},
		{"intersect", a.Intersect(b), ga.Intersect(gb)},
		{"insert", a.Insert(1 << 40), ga.Insert(1 << 40)},
		{"delete", a.Delete(ka[0]), ga.Delete(ka[0])},
	}
	for _, c := range checks {
		if !c.got.Equal(c.want) {
			t.Errorf("%s: pool result differs from default-runtime result", c.name)
		}
	}
	if a.Len() != len(sortedUnique(ka)) {
		t.Errorf("pool set Len = %d, want %d", a.Len(), len(sortedUnique(ka)))
	}
}

// TestPoolMixedRuntimeOperands unions a pool set with a default set —
// both scheduler sets, from different schedulers; the foreign operand
// must be adopted, not touched by pool workers as if it were theirs.
func TestPoolMixedRuntimeOperands(t *testing.T) {
	pool := NewPool(2)
	defer pool.Close()

	a := pool.NewSetAsync(1, 3, 5, 7)
	b := NewSetAsync(2, 3, 4)

	u := a.Union(b)
	want := []int{1, 2, 3, 4, 5, 7}
	got := u.Keys()
	if len(got) != len(want) {
		t.Fatalf("Keys = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Keys = %v, want %v", got, want)
		}
	}
	// And the symmetric direction: default set adopting a pool set.
	u2 := b.Union(a)
	if !u2.Equal(u) {
		t.Errorf("b.Union(a) differs from a.Union(b)")
	}
}

// TestAsyncSetReadAfterShutdown is the regression test for the
// read-after-shutdown edge: an async set built on a pool must remain
// fully readable from plain goroutines after the pool is closed, because
// Close forces every in-flight future to completion before stopping the
// workers. Before the lifecycle fix, a Contains walking an unwritten
// edge of a shut-down runtime blocked forever.
func TestAsyncSetReadAfterShutdown(t *testing.T) {
	rng := workload.NewRNG(23)
	keys := workload.DistinctKeys(rng, 2000, 8000)

	pool := NewPool(4)
	s := pool.NewSetAsync(keys...)
	u := s.Union(pool.NewSetAsync(keys[:500]...))
	pool.Close() // forces completion before the workers stop

	want := sortedUnique(keys)
	got := u.Keys() // plain goroutine, runtime already shut down
	if len(got) != len(want) {
		t.Fatalf("Keys after Close: %d keys, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Keys after Close diverge at %d: got %d want %d", i, got[i], want[i])
		}
	}
	for _, k := range keys[:100] {
		if !s.Contains(k) {
			t.Fatalf("Contains(%d) = false after Close, want true", k)
		}
	}
	if s.Contains(-1 << 40) {
		t.Fatal("Contains of absent key = true after Close")
	}

	// Reads racing Close from many goroutines must also complete: Close
	// waits for quiescence, and written cells stay readable afterwards.
	pool2 := NewPool(4)
	s2 := pool2.NewSetAsync(keys...)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for _, k := range keys[g*50 : g*50+50] {
				if !s2.Contains(k) {
					t.Errorf("racing Contains(%d) = false, want true", k)
					return
				}
			}
		}(g)
	}
	pool2.Close()
	wg.Wait()
}
