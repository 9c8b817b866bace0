package pipefut

import (
	"runtime"
	"sync"

	"pipefut/internal/paralg"
	"pipefut/internal/seqtreap"
)

// Set is an immutable ordered set of ints backed by a treap whose edges are
// future cells. Bulk operations (Union, Subtract, Intersect) run the
// paper's pipelined parallel algorithms and return immediately; the
// result's nodes materialize concurrently and any operation that needs
// them blocks only as far as it must. Because sets are immutable they may
// be shared freely between goroutines.
//
// Every set runs on the work-stealing scheduler of internal/sched, where
// suspending on an unwritten edge parks a continuation rather than a
// goroutine. NewSet and NewSetAsync share one process-wide scheduler
// with GOMAXPROCS workers, started on first use; a Pool is a separate
// scheduler with its own workers and lifetime.
//
// Priorities are a pure hash of the key, so a set's tree shape depends only
// on its contents — two sets with equal contents are structurally
// identical no matter how they were computed.
type Set struct {
	root paralg.NodeCell
	cfg  paralg.RConfig
}

// defaultRuntime is the process-wide scheduler behind NewSet, NewSetAsync
// and Sort: GOMAXPROCS workers, started on first use and never closed
// (idle workers park, so it costs nothing between operations).
var defaultRuntime = sync.OnceValue(func() *paralg.SchedRuntime {
	return paralg.NewSchedRuntime(runtime.GOMAXPROCS(0))
})

// defaultRCfg is the configuration NewSet uses: the shared scheduler at
// paralg.DefaultConfig's grain bound.
func defaultRCfg() paralg.RConfig {
	return paralg.RConfig{R: defaultRuntime(), SpawnDepth: paralg.DefaultConfig.SpawnDepth}
}

// NewSet returns the set of the given keys (duplicates are fine).
func NewSet(keys ...int) *Set {
	cfg := defaultRCfg()
	return &Set{root: paralg.RFromSeqTreap(cfg.R, seqtreap.FromKeys(keys)), cfg: cfg}
}

// NewSetAsync returns the set of the given keys, constructing the treap
// concurrently by divide-and-conquer pipelined unions: the call returns
// immediately and queries (Contains, further set operations) run against
// the in-flight structure, blocking only as far as they must. Prefer it
// over NewSet for large key sets when you have work to overlap.
func NewSetAsync(keys ...int) *Set {
	cfg := defaultRCfg()
	return &Set{root: cfg.BuildTreap(nil, keys), cfg: cfg}
}

// WithSpawnDepth returns a set that runs its bulk operations spawning
// futures only down to the given recursion depth (0 = sequential). The
// contents are shared, not copied.
func (s *Set) WithSpawnDepth(d int) *Set {
	return &Set{root: s.root, cfg: paralg.RConfig{R: s.cfg.R, SpawnDepth: d}}
}

// adopt returns t's root as a cell tree on s's scheduler. Same scheduler:
// shared directly. Different schedulers (a Pool and the shared default,
// or two Pools): t is materialized (blocking) and copied, because cells
// are owned by the scheduler that created them.
func (s *Set) adopt(t *Set) paralg.NodeCell {
	if s.cfg.R == t.cfg.R {
		return t.root
	}
	return paralg.RFromSeqTreap(s.cfg.R, paralg.RToSeqTreap(t.root))
}

// Union returns s ∪ t (Section 3.2 of the paper, pipelined).
func (s *Set) Union(t *Set) *Set {
	return &Set{root: s.cfg.Union(nil, s.root, s.adopt(t)), cfg: s.cfg}
}

// Subtract returns s \ t (Section 3.3 of the paper, pipelined).
func (s *Set) Subtract(t *Set) *Set {
	return &Set{root: s.cfg.Diff(nil, s.root, s.adopt(t)), cfg: s.cfg}
}

// Intersect returns s ∩ t (an extension of the paper's algorithm family,
// pipelined like Subtract).
func (s *Set) Intersect(t *Set) *Set {
	return &Set{root: s.cfg.Intersect(nil, s.root, s.adopt(t)), cfg: s.cfg}
}

// Insert returns s with key added.
func (s *Set) Insert(key int) *Set {
	one := &Set{root: paralg.RFromSeqTreap(s.cfg.R, seqtreap.New(key)), cfg: s.cfg}
	return s.Union(one)
}

// Delete returns s with key removed.
func (s *Set) Delete(key int) *Set {
	one := &Set{root: paralg.RFromSeqTreap(s.cfg.R, seqtreap.New(key)), cfg: s.cfg}
	return s.Subtract(one)
}

// Contains reports whether key is in the set. It blocks only on the cells
// along the search path, so it can run while the set is still being
// computed.
func (s *Set) Contains(key int) bool {
	t := s.root
	for {
		n := t.Read()
		if n == nil {
			return false
		}
		switch {
		case key == n.Key:
			return true
		case key < n.Key:
			t = n.Left
		default:
			t = n.Right
		}
	}
}

// Keys returns the set's contents in ascending order, blocking until the
// whole set is materialized.
func (s *Set) Keys() []int { return keysOf(s.root) }

// keysOf walks a cell tree in order, blocking on each cell.
func keysOf(t paralg.NodeCell) []int {
	var out []int
	var walk func(t paralg.NodeCell)
	walk = func(t paralg.NodeCell) {
		n := t.Read()
		if n == nil {
			return
		}
		walk(n.Left)
		out = append(out, n.Key)
		walk(n.Right)
	}
	walk(t)
	return out
}

// Len returns the number of keys, blocking until the set is materialized.
func (s *Set) Len() int { return len(s.Keys()) }

// Wait blocks until the set is completely materialized. Useful for timing.
func (s *Set) Wait() { paralg.RWait(s.root) }

// Equal reports whether two sets have the same contents.
func (s *Set) Equal(t *Set) bool {
	a, b := s.Keys(), t.Keys()
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// ---- Pool: sets on the explicit work-stealing scheduler -----------------

// Pool is a fixed fleet of scheduler workers, separate from the shared
// scheduler NewSet uses, with its own worker count and lifetime. Sets
// made by the same pool compose without copying; mixing sets from
// different pools (or from NewSet) works but materializes the foreign
// operand first.
//
// Close the pool when done. Close first waits for every outstanding
// operation to finish and only then stops the workers, so a set built on
// the pool remains fully readable after Close — reads of a pool set can
// never block on a future no worker will resolve. (A cell stranded by a
// bare sched.Runtime.Shutdown, by contrast, fails its reads with
// ErrShutdown rather than hanging.)
type Pool struct {
	rt  *paralg.SchedRuntime
	cfg paralg.RConfig
}

// NewPool starts a pool of p scheduler workers (p ≤ 0 means GOMAXPROCS).
func NewPool(p int) *Pool {
	if p <= 0 {
		p = runtime.GOMAXPROCS(0)
	}
	rt := paralg.NewSchedRuntime(p)
	return &Pool{rt: rt, cfg: paralg.RConfig{R: rt, SpawnDepth: paralg.DefaultConfig.SpawnDepth}}
}

// NewSet returns the set of the given keys, materialized immediately.
func (p *Pool) NewSet(keys ...int) *Set {
	return &Set{root: paralg.RFromSeqTreap(p.cfg.R, seqtreap.FromKeys(keys)), cfg: p.cfg}
}

// NewSetAsync returns the set of the given keys, built concurrently on the
// pool's workers by pipelined unions.
func (p *Pool) NewSetAsync(keys ...int) *Set {
	return &Set{root: p.cfg.BuildTreap(nil, keys), cfg: p.cfg}
}

// Close forces every in-flight operation to completion, then stops the
// workers. Sets built on the pool stay valid and readable afterwards; new
// operations on them must not be started (forking on a closed pool
// panics).
func (p *Pool) Close() { p.rt.Close() }

// Sort sorts xs (ascending, duplicates removed) with the future-based tree
// mergesort of the paper's Section 5 conjecture, running on the shared
// scheduler.
func Sort(xs []int) []int {
	if len(xs) == 0 {
		return nil
	}
	out := keysOf(defaultRCfg().Mergesort(nil, xs))
	// Mergesort keeps duplicates adjacent but a Set would not; dedupe to
	// match the documented contract.
	dst := out[:0]
	for i, k := range out {
		if i == 0 || k != dst[len(dst)-1] {
			dst = append(dst, k)
		}
	}
	return dst
}
