package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pipefut/internal/workload"
)

func TestApplyAndReadBasics(t *testing.T) {
	for _, backend := range KnownBackends() {
		t.Run(backend, func(t *testing.T) {
			s := New(Config{P: 4, Backend: backend})
			defer s.Close()

			cut, err := s.Apply(OpUnion, []int{3, 1, 2, 2})
			if err != nil || len(cut) != 1 || cut[0] != 1 {
				t.Fatalf("union: cut=%v err=%v, want [1]", cut, err)
			}
			if _, err := s.Apply(OpDifference, []int{2}); err != nil {
				t.Fatalf("difference: %v", err)
			}
			ok, v, err := s.Contains(1)
			if err != nil || !ok {
				t.Fatalf("Contains(1) = %v,%d,%v, want true", ok, v, err)
			}
			if ok, _, _ := s.Contains(2); ok {
				t.Fatal("Contains(2) = true after difference")
			}
			n, _, err := s.Len()
			if err != nil || n != 2 {
				t.Fatalf("Len = %d,%v, want 2", n, err)
			}
			keys, _, err := s.Keys()
			if err != nil || len(keys) != 2 || keys[0] != 1 || keys[1] != 3 {
				t.Fatalf("Keys = %v,%v, want [1 3]", keys, err)
			}
			if _, err := s.Apply(OpIntersect, []int{3, 99}); err != nil {
				t.Fatalf("intersect: %v", err)
			}
			if n, _, _ := s.Len(); n != 1 {
				t.Fatalf("Len after intersect = %d, want 1", n)
			}
			if _, err := s.Apply(Op("frobnicate"), nil); err == nil {
				t.Fatal("unknown op admitted")
			}
		})
	}
}

// TestShardedBasics drives a 4-shard server and checks routing: a
// mutation's cut versions exactly the shards its keys land on, intersect
// versions every shard, and cross-shard reads see the whole set.
func TestShardedBasics(t *testing.T) {
	for _, backend := range KnownBackends() {
		t.Run(backend, func(t *testing.T) {
			s := New(Config{P: 4, Backend: backend, Shards: 4, Universe: 400})
			defer s.Close()
			// Default pivots: 100, 200, 300.
			if got := s.ShardOf(0); got != 0 {
				t.Fatalf("ShardOf(0) = %d", got)
			}
			if got := s.ShardOf(100); got != 1 {
				t.Fatalf("ShardOf(100) = %d, want 1 (pivot key belongs right)", got)
			}
			if got := s.ShardOf(399); got != 3 {
				t.Fatalf("ShardOf(399) = %d", got)
			}

			cut, err := s.Apply(OpUnion, []int{5, 105, 305})
			if err != nil {
				t.Fatal(err)
			}
			if cut[0] == 0 || cut[1] == 0 || cut[3] == 0 || cut[2] != 0 {
				t.Fatalf("union cut = %v, want shards 0,1,3 versioned and 2 untouched", cut)
			}
			cut, err = s.Apply(OpDifference, []int{105})
			if err != nil {
				t.Fatal(err)
			}
			if cut[1] == 0 || cut[0] != 0 || cut[2] != 0 || cut[3] != 0 {
				t.Fatalf("difference cut = %v, want only shard 1 versioned", cut)
			}
			// Intersect must version every shard: shard 3 loses key 305 even
			// though the mask has no key in its range.
			cut, err = s.Apply(OpIntersect, []int{5})
			if err != nil {
				t.Fatal(err)
			}
			for i, v := range cut {
				if v == 0 {
					t.Fatalf("intersect cut = %v: shard %d unversioned", cut, i)
				}
			}
			keys, _, err := s.Keys()
			if err != nil || len(keys) != 1 || keys[0] != 5 {
				t.Fatalf("Keys = %v,%v, want [5]", keys, err)
			}
			if n, _, _ := s.Len(); n != 1 {
				t.Fatalf("Len = %d, want 1", n)
			}
			// Keys outside [0, Universe) are legal and land on edge shards.
			if _, err := s.Apply(OpUnion, []int{-7, 4000}); err != nil {
				t.Fatal(err)
			}
			if ok, _, _ := s.Contains(-7); !ok {
				t.Fatal("Contains(-7) = false")
			}
			if ok, _, _ := s.Contains(4000); !ok {
				t.Fatal("Contains(4000) = false")
			}

			m := s.Metrics()
			if m.Shards != 4 || m.Backend != backend {
				t.Fatalf("Metrics identity: %q/%d", m.Backend, m.Shards)
			}
			var shed int64
			for i, sm := range m.PerShard {
				if sm.Offered != sm.Admitted+sm.Shed {
					t.Errorf("shard %d ledger: offered %d != admitted %d + shed %d", i, sm.Offered, sm.Admitted, sm.Shed)
				}
				shed += sm.Shed
			}
			if shed != m.ShedOverload {
				t.Errorf("ShedOverload %d != sum of per-shard sheds %d", m.ShedOverload, shed)
			}
		})
	}
}

// TestDrainSemantics covers the shutdown contract: requests in flight
// when Close begins complete normally, requests arriving after Close
// begins shed with ErrDraining (distinct from ErrOverloaded), and the
// server leaks no goroutines.
func TestDrainSemantics(t *testing.T) {
	start := runtime.NumGoroutine()

	s := New(Config{P: 4, Shards: 3, Universe: 80000})
	rng := workload.NewRNG(5)
	batch := workload.DistinctKeys(rng, 20000, 80000)

	// In-flight phase: concurrent mutations, Close racing them once at
	// least a few are admitted.
	const clients = 8
	var admitted atomic.Int64
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, err := s.Apply(OpUnion, batch[i*2000:(i+1)*2000])
			if err == nil {
				admitted.Add(1)
			}
			errs[i] = err
		}(i)
	}
	deadline := time.Now().Add(10 * time.Second)
	for s.Metrics().Admitted < 2 && time.Now().Before(deadline) {
		runtime.Gosched()
	}
	s.Close()
	wg.Wait()

	for i, err := range errs {
		if err != nil && !errors.Is(err, ErrDraining) {
			t.Errorf("client %d: err = %v, want nil or ErrDraining", i, err)
		}
	}
	m := s.Metrics()
	if m.Completed != m.Admitted {
		t.Errorf("Completed = %d, Admitted = %d — admitted requests must complete", m.Completed, m.Admitted)
	}
	if m.Inflight != 0 {
		t.Errorf("Inflight = %d after Close, want 0", m.Inflight)
	}
	if m.Offered != m.Admitted+m.ShedOverload+m.ShedDraining {
		t.Errorf("offered %d != admitted %d + shedOverload %d + shedDraining %d",
			m.Offered, m.Admitted, m.ShedOverload, m.ShedDraining)
	}

	// Post-drain phase: every entry point sheds with ErrDraining.
	if _, err := s.Apply(OpUnion, []int{1}); !errors.Is(err, ErrDraining) {
		t.Errorf("Apply after Close: err = %v, want ErrDraining", err)
	}
	if _, _, err := s.Contains(1); !errors.Is(err, ErrDraining) {
		t.Errorf("Contains after Close: err = %v, want ErrDraining", err)
	}
	if _, _, err := s.Len(); !errors.Is(err, ErrDraining) {
		t.Errorf("Len after Close: err = %v, want ErrDraining", err)
	}
	if _, _, err := s.Keys(); !errors.Is(err, ErrDraining) {
		t.Errorf("Keys after Close: err = %v, want ErrDraining", err)
	}
	if m := s.Metrics(); m.ShedDraining == 0 {
		t.Error("ShedDraining = 0 after post-drain requests")
	}

	// Goroutine-leak check: workers and appliers are gone once Close
	// returns; allow the runtime a moment to retire exiting goroutines.
	deadline = time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > start+2 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > start+2 {
		t.Errorf("goroutines: %d before, %d after Close — leak", start, n)
	}
}

// TestCoalesceRuns checks run formation in a shard queue: same-kind
// adjacency merges (insert/union together), intersect never merges, and
// cut markers both stay singleton and break runs around them.
func TestCoalesceRuns(t *testing.T) {
	const markOp = Op("__mark")
	rs := func(ops ...Op) []shardReq {
		var out []shardReq
		for _, o := range ops {
			if o == markOp {
				out = append(out, shardReq{mark: &cutMarker{}})
			} else {
				out = append(out, shardReq{op: o})
			}
		}
		return out
	}
	cases := []struct {
		ops  []Op
		want []int // run lengths
	}{
		{[]Op{OpUnion, OpInsert, OpUnion}, []int{3}},
		{[]Op{OpUnion, OpDifference, OpDifference}, []int{1, 2}},
		{[]Op{OpIntersect, OpIntersect}, []int{1, 1}},
		{[]Op{OpUnion, OpIntersect, OpUnion}, []int{1, 1, 1}},
		{[]Op{OpUnion, markOp, OpUnion}, []int{1, 1, 1}},
		{[]Op{markOp, markOp}, []int{1, 1}},
	}
	for _, c := range cases {
		runs := coalesceRuns(rs(c.ops...))
		if len(runs) != len(c.want) {
			t.Errorf("coalesceRuns(%v): %d runs, want %d", c.ops, len(runs), len(c.want))
			continue
		}
		for i, r := range runs {
			if len(r) != c.want[i] {
				t.Errorf("coalesceRuns(%v): run %d has %d entries, want %d", c.ops, i, len(r), c.want[i])
			}
		}
	}
}

// TestSingleShardQuantilesMatchGlobal: on a one-shard server the global
// latency quantiles are exactly that shard's — the merge across shards is
// sample-level, not an average of quantiles.
func TestSingleShardQuantilesMatchGlobal(t *testing.T) {
	s := New(Config{P: 2, Shards: 1})
	defer s.Close()
	rng := workload.NewRNG(11)
	for i := 0; i < 200; i++ {
		if _, err := s.Apply(OpUnion, workload.DistinctKeys(rng, 16, 1<<12)); err != nil {
			t.Fatal(err)
		}
		if _, _, err := s.Contains(rng.Intn(1 << 12)); err != nil {
			t.Fatal(err)
		}
	}
	m := s.Metrics()
	if len(m.PerShard) != 1 {
		t.Fatalf("PerShard has %d entries", len(m.PerShard))
	}
	if m.P50Nanos == 0 || m.P99Nanos == 0 {
		t.Fatal("no latency samples recorded")
	}
	if m.PerShard[0].P50Nanos != m.P50Nanos || m.PerShard[0].P99Nanos != m.P99Nanos {
		t.Errorf("single-shard quantiles diverge: shard p50/p99 %d/%d, global %d/%d",
			m.PerShard[0].P50Nanos, m.PerShard[0].P99Nanos, m.P50Nanos, m.P99Nanos)
	}
}

// TestKeysConsistentCut: cross-shard mutations are atomic under the cut.
// Writers union and difference key pairs that straddle two shards;
// every Keys snapshot must contain both halves of a pair or neither.
func TestKeysConsistentCut(t *testing.T) {
	const (
		universe = 1 << 16
		offset   = 3 * universe / 4 // pair (j, j+offset): shard 0 and shard 3
		pairs    = 300
	)
	s := New(Config{P: 4, Shards: 4, Universe: universe})
	defer s.Close()

	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for j := 0; !stop.Load(); j = (j + 1) % pairs {
			var err error
			if j%3 == 2 { // revisit: remove an earlier pair
				_, err = s.Apply(OpDifference, []int{j, j + offset})
			} else {
				_, err = s.Apply(OpUnion, []int{j, j + offset})
			}
			if err != nil && !errors.Is(err, ErrOverloaded) {
				t.Errorf("writer: %v", err)
				return
			}
		}
	}()

	for snap := 0; snap < 50; snap++ {
		keys, _, err := s.Keys()
		if errors.Is(err, ErrOverloaded) {
			continue
		}
		if err != nil {
			t.Fatalf("Keys: %v", err)
		}
		have := make(map[int]bool, len(keys))
		for _, k := range keys {
			have[k] = true
		}
		for j := 0; j < pairs; j++ {
			if have[j] != have[j+offset] {
				t.Fatalf("snapshot %d tears pair (%d, %d): %v vs %v — not a consistent cut",
					snap, j, j+offset, have[j], have[j+offset])
			}
		}
	}
	stop.Store(true)
	wg.Wait()
}

// TestNotDurableIsAnError drives the failure arm of the ack gate: once
// a shard's store refuses records, a mutation touching that shard fails
// with ErrNotDurable (HTTP 503) instead of being acked, and the other
// shard keeps acking.
func TestNotDurableIsAnError(t *testing.T) {
	s, err := Open(Config{P: 2, Shards: 2, Universe: 100, DataDir: t.TempDir(), Fsync: "always"})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.ShardOf(5) == s.ShardOf(70) {
		t.Fatal("keys 5 and 70 share a shard; the test needs one per shard")
	}
	if _, err := s.Apply(OpUnion, []int{5, 70}); err != nil {
		t.Fatal(err)
	}

	s.shards[s.ShardOf(5)].store.Close() // every later record there is refused
	for _, keys := range [][]int{{5}, {6, 71}} {
		if _, err := s.Apply(OpUnion, keys); !errors.Is(err, ErrNotDurable) {
			t.Errorf("Apply(union %v) on a failed shard log: err = %v, want ErrNotDurable", keys, err)
		}
	}
	if _, err := s.Apply(OpUnion, []int{72}); err != nil {
		t.Errorf("Apply on the healthy shard: %v", err)
	}
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/op", bytes.NewBufferString(`{"op":"union","keys":[7]}`)))
	if rec.Code != http.StatusServiceUnavailable {
		t.Errorf("POST /op on a failed shard log: status %d body %s, want 503", rec.Code, rec.Body)
	}
}

func TestHTTPHandler(t *testing.T) {
	s := New(Config{P: 2, Shards: 2, Universe: 100})
	h := s.Handler()

	post := func(body string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest("POST", "/op", bytes.NewBufferString(body))
		h.ServeHTTP(rec, req)
		return rec
	}

	rec := post(`{"op":"union","keys":[5,6,70]}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("union: status %d body %s", rec.Code, rec.Body)
	}
	var resp OpResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil || len(resp.Versions) != 2 {
		t.Fatalf("union: body %s err %v, want a 2-slot version cut", rec.Body, err)
	}
	rec = post(`{"op":"contains","key":6}`)
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil || resp.Contains == nil || !*resp.Contains {
		t.Fatalf("contains: body %s err %v", rec.Body, err)
	}
	rec = post(`{"op":"len"}`)
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil || resp.Len == nil || *resp.Len != 3 {
		t.Fatalf("len: body %s err %v", rec.Body, err)
	}
	if rec := post(`{"op":"sudo"}`); rec.Code != http.StatusBadRequest {
		t.Errorf("unknown op: status %d, want 400", rec.Code)
	}
	if rec := post(`{nope`); rec.Code != http.StatusBadRequest {
		t.Errorf("bad json: status %d, want 400", rec.Code)
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/keys", nil))
	var kr struct {
		Versions Cut   `json:"versions"`
		Keys     []int `json:"keys"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &kr); err != nil || len(kr.Keys) != 3 || len(kr.Versions) != 2 {
		t.Fatalf("keys: body %s err %v", rec.Body, err)
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	var m Metrics
	if err := json.Unmarshal(rec.Body.Bytes(), &m); err != nil {
		t.Fatalf("metrics: body %s err %v", rec.Body, err)
	}
	if m.Admitted == 0 || m.Completed == 0 {
		t.Errorf("metrics: admitted %d completed %d, want > 0", m.Admitted, m.Completed)
	}
	if m.Shards != 2 || len(m.PerShard) != 2 {
		t.Errorf("metrics: shards %d per-shard %d, want 2", m.Shards, len(m.PerShard))
	}

	s.Close()
	if rec := post(`{"op":"union","keys":[1]}`); rec.Code != http.StatusServiceUnavailable {
		t.Errorf("post-Close op: status %d, want 503", rec.Code)
	}
}

// TestIdleShardQuantilesMatchGlobal is the idle-shard-merge regression
// test: with k=8 shards and every request confined to shard 0's key
// range, seven shards have empty latency sample rings. The pooled
// global quantiles must equal the one busy shard's exactly — an empty
// ring must contribute zero samples to the merge, not zeros (which
// would drag p50 to 0) or a divide-by-zero.
func TestIdleShardQuantilesMatchGlobal(t *testing.T) {
	const universe = 1 << 12
	s := New(Config{P: 2, Shards: 8, Universe: universe})
	defer s.Close()
	shard0 := universe / 8 // shard 0 owns [0, universe/8)
	rng := workload.NewRNG(17)
	for i := 0; i < 200; i++ {
		if _, err := s.Apply(OpUnion, workload.DistinctKeys(rng, 16, shard0)); err != nil {
			t.Fatal(err)
		}
		if _, _, err := s.Contains(rng.Intn(shard0)); err != nil {
			t.Fatal(err)
		}
	}
	m := s.Metrics()
	if len(m.PerShard) != 8 {
		t.Fatalf("PerShard has %d entries, want 8", len(m.PerShard))
	}
	busy := m.PerShard[0]
	if busy.P50Nanos == 0 || busy.P99Nanos == 0 {
		t.Fatal("busy shard recorded no latency samples")
	}
	for i, sm := range m.PerShard[1:] {
		if sm.P50Nanos != 0 || sm.P99Nanos != 0 || sm.Admitted != 0 {
			t.Fatalf("shard %d was supposed to stay idle (p50=%d admitted=%d)", i+1, sm.P50Nanos, sm.Admitted)
		}
	}
	if busy.P50Nanos != m.P50Nanos || busy.P99Nanos != m.P99Nanos {
		t.Errorf("idle-shard merge diverges: busy shard p50/p99 %d/%d, global %d/%d — empty rings must pool zero samples",
			busy.P50Nanos, busy.P99Nanos, m.P50Nanos, m.P99Nanos)
	}
}

// TestStealPolicies runs the same workload under both steal policies on
// both backends: results must be identical to the sequential oracle
// either way (the policy only moves work between caches), the admission
// ledger must balance, and the affine policy must actually exercise the
// mailbox path.
func TestStealPolicies(t *testing.T) {
	const universe = 1 << 12
	for _, policy := range KnownStealPolicies() {
		for _, backend := range KnownBackends() {
			t.Run(policy+"/"+backend, func(t *testing.T) {
				s := New(Config{P: 4, Shards: 4, Backend: backend, Universe: universe, StealPolicy: policy})
				defer s.Close()
				if got := s.StealPolicy(); got != policy {
					t.Fatalf("StealPolicy() = %q, want %q", got, policy)
				}
				oracle := map[int]bool{}
				rng := workload.NewRNG(uint64(29 + len(policy)))
				for i := 0; i < 60; i++ {
					keys := workload.DistinctKeys(rng, 24, universe)
					op := OpUnion
					if i%3 == 2 {
						op = OpDifference
					}
					if _, err := s.Apply(op, keys); err != nil {
						t.Fatal(err)
					}
					for _, k := range keys {
						oracle[k] = op == OpUnion
					}
					probe := rng.Intn(universe)
					got, _, err := s.Contains(probe)
					if err != nil {
						t.Fatal(err)
					}
					if got != oracle[probe] {
						t.Fatalf("iter %d: Contains(%d) = %v, oracle %v", i, probe, got, oracle[probe])
					}
				}
				keys, _, err := s.Keys()
				if err != nil {
					t.Fatal(err)
				}
				want := 0
				for _, in := range oracle {
					if in {
						want++
					}
				}
				if len(keys) != want {
					t.Fatalf("Keys() has %d keys, oracle %d — steal policy changed results", len(keys), want)
				}
				m := s.Metrics()
				if m.StealPolicy != policy {
					t.Errorf("Metrics.StealPolicy = %q, want %q", m.StealPolicy, policy)
				}
				var shed int64
				for _, sm := range m.PerShard {
					if sm.Offered != sm.Admitted+sm.Shed {
						t.Errorf("shard ledger broken: offered %d != admitted %d + shed %d", sm.Offered, sm.Admitted, sm.Shed)
					}
					shed += sm.Shed
				}
				if m.ShedOverload != shed {
					t.Errorf("global shed %d != per-shard sum %d", m.ShedOverload, shed)
				}
				if policy == StealAffine && m.MailboxHits == 0 {
					t.Error("affine policy served a full workload with zero mailbox hits — hints are not reaching mailboxes")
				}
				if policy == StealBaseline && m.MailboxHits != 0 {
					t.Errorf("baseline policy recorded %d mailbox hits — baseline must not use mailboxes", m.MailboxHits)
				}
			})
		}
	}
	if _, err := Open(Config{P: 1, StealPolicy: "bogus"}); err == nil {
		t.Error("Open accepted an unknown steal policy")
	}
}

// TestLatencyIncludesRouteLockWait pins the one latency origin: a
// request's sample starts inside admit, before the routing lock, so a
// read that waits behind an exclusive holder (a cross-shard write, a cut
// marker placement) reports that wait. Contains used to stamp after the
// lock was released and under-report by exactly the wait.
func TestLatencyIncludesRouteLockWait(t *testing.T) {
	s := New(Config{P: 2, Shards: 2, Universe: 100})
	defer s.Close()
	const hold = 40 * time.Millisecond

	s.routeMu.Lock()
	done := make(chan error, 1)
	go func() {
		_, _, err := s.Contains(7)
		done <- err
	}()
	// admit stamps the origin, then counts the request offered, then
	// queues on the routing lock: once offered moves, the stamp is taken
	// and everything we hold the lock for from here on is inside it.
	for s.met.offered.Load() == 0 {
		runtime.Gosched()
	}
	time.Sleep(hold)
	s.routeMu.Unlock()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	xs := s.shards[s.ShardOf(7)].lat.samples()
	if len(xs) != 1 || time.Duration(xs[0]) < hold {
		t.Fatalf("Contains waited %v behind the routing lock but recorded samples %v", hold, xs)
	}
}
