// Command pipeserve runs the sharded batching set-operation server of
// internal/serve behind an HTTP/JSON interface.
//
//	pipeserve -addr :8080 -p 8 -highwater 4096 -backend treap -shards 4
//
//	POST /op      {"op":"union","keys":[1,2,3]}   → {"versions":[1,0,1,0]}
//	              {"op":"difference","keys":[2]}  → {"versions":[2,0,0,0]}
//	              {"op":"contains","key":1}       → {"version":2,"contains":true}
//	              {"op":"len"}                    → {"versions":[2,0,1,0],"len":2}
//	POST /dag     {"nodes":[{"ref":"set"},{"keys":[2,9]},
//	               {"op":"union","args":[0,1]}],"want":"count"}
//	              → {"versions":[1,0,1,0],"count":4}   (one fused round-trip)
//	GET  /metrics → server + scheduler + per-shard counters (JSON)
//	GET  /keys    → full contents (verification endpoint)
//
// -backend selects the per-shard store: treap (pipelined, the default)
// or t26 (2-6 trees, batch-synchronous). -shards range-partitions the
// key space of [0, -universe) across that many independent roots.
//
// Shed load answers 429 (over the high-water mark) or 503 (draining).
// SIGINT/SIGTERM triggers a graceful drain: stop admitting, finish every
// admitted request, quiesce the scheduler, exit.
//
// -smoke runs a self-driving smoke check instead of serving: for each
// backend it binds a loopback port, drives a mixed batch over real HTTP,
// asserts the metrics endpoint reports scheduler activity, drains, and
// exits non-zero on any failure.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"pipefut/internal/persist"
	"pipefut/internal/serve"
)

func main() {
	var (
		addr       = flag.String("addr", ":8080", "listen address")
		p          = flag.Int("p", runtime.GOMAXPROCS(0), "scheduler worker count")
		highWater  = flag.Int("highwater", serve.DefaultHighWater, "admission high-water mark (backlog at which requests shed)")
		spawnDepth = flag.Int("spawndepth", 0, "algorithm spawn depth (0 = default grain)")
		cutoff     = flag.Int("cutoff", 0, "grain cutoff: subtree size served by one chunk cell (0 = default, negative = off; treap backend, seqsafe-proven entries only)")
		backend    = flag.String("backend", "treap", "per-shard store: treap (pipelined) or t26 (batch-synchronous)")
		shards     = flag.Int("shards", 1, "independent shard roots the key space is range-partitioned across")
		universe   = flag.Int("universe", serve.DefaultUniverse, "dense key range hint [0,universe) for placing shard pivots")
		dataDir    = flag.String("data-dir", "", "durability root: per-shard WAL + snapshots under <dir>/shard-<i>; empty = no persistence")
		fsync      = flag.String("fsync", "batch", "WAL fsync policy: batch (group commit), never, or always")
		snapEvery  = flag.Int("snapshot-every", 0, "per-shard snapshot cadence in versions (0 = default, negative = final snapshot only)")
		stealPol   = flag.String("steal-policy", serve.StealAffine, "scheduler steal policy: affine (shard-affine mailboxes + group-first steal-half) or baseline (uniform stealing)")
		smoke      = flag.Bool("smoke", false, "run a loopback HTTP smoke check (all backends, including a restart round-trip) and exit")
	)
	flag.Parse()

	known := false
	for _, b := range serve.KnownBackends() {
		if b == *backend {
			known = true
		}
	}
	if !known {
		log.Fatalf("pipeserve: unknown -backend %q (want one of %v)", *backend, serve.KnownBackends())
	}
	knownPol := false
	for _, pol := range serve.KnownStealPolicies() {
		if pol == *stealPol {
			knownPol = true
		}
	}
	if !knownPol {
		log.Fatalf("pipeserve: unknown -steal-policy %q (want one of %v)", *stealPol, serve.KnownStealPolicies())
	}
	if _, ok := persist.ParsePolicy(*fsync); !ok {
		log.Fatalf("pipeserve: unknown -fsync %q (want one of [batch never always])", *fsync)
	}

	cfg := serve.Config{P: *p, SpawnDepth: *spawnDepth, GrainCutoff: *cutoff,
		HighWater: *highWater, Backend: *backend, Shards: *shards, Universe: *universe,
		DataDir: *dataDir, Fsync: *fsync, SnapshotEvery: *snapEvery, StealPolicy: *stealPol}
	if *smoke {
		// Smoke both backends and both steal policies regardless of the
		// flags: the CI lane should exercise the whole matrix in one
		// invocation. Each backend also runs a persistent restart
		// round-trip in a temp data dir (under the configured policy).
		for _, b := range serve.KnownBackends() {
			c := cfg
			c.Backend = b
			if c.Shards <= 1 {
				c.Shards = 4 // default smoke covers the sharded path too
			}
			c.DataDir = "" // phase 1: the classic in-memory smoke
			for _, pol := range serve.KnownStealPolicies() {
				c.StealPolicy = pol
				if err := runSmoke(c); err != nil {
					log.Fatalf("smoke[%s/%s]: FAIL: %v", b, pol, err)
				}
			}
			c.StealPolicy = *stealPol
			if err := runRestartSmoke(c); err != nil {
				log.Fatalf("smoke[%s/restart]: FAIL: %v", b, err)
			}
			fmt.Printf("smoke[%s]: ok\n", b)
		}
		return
	}

	s, err := serve.Open(cfg)
	if err != nil {
		log.Fatalf("pipeserve: open: %v", err)
	}
	srv := newHTTPServer(s.Handler())
	srv.Addr = *addr

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	log.Printf("pipeserve: listening on %s (p=%d highwater=%d backend=%s shards=%d)",
		*addr, *p, *highWater, *backend, *shards)

	select {
	case got := <-sig:
		log.Printf("pipeserve: %v — draining", got)
	case err := <-errc:
		log.Fatalf("pipeserve: serve: %v", err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		log.Printf("pipeserve: http shutdown: %v", err)
	}
	s.Close()
	m := s.Metrics()
	log.Printf("pipeserve: drained: offered=%d admitted=%d completed=%d shed=%d",
		m.Offered, m.Admitted, m.Completed, m.ShedOverload+m.ShedDraining)
	if *dataDir != "" {
		log.Printf("pipeserve: durable: policy=%s wal_records=%d bytes_logged=%d snapshots=%d",
			m.Persist, m.WalRecords, m.BytesLogged, m.Snapshots)
	}
}

// readHeaderTimeout bounds how long a connection may take to deliver one
// request's headers; without it a client that connects and never
// finishes its request line pins a goroutine forever. It starts at a
// request's first byte, so keep-alive connections idling between
// requests are not subject to it.
const readHeaderTimeout = 5 * time.Second

func newHTTPServer(h http.Handler) *http.Server {
	return &http.Server{Handler: h, ReadHeaderTimeout: readHeaderTimeout}
}

// runSmoke drives the server end to end over a real loopback socket: a
// mixed mutation/read batch, a metrics scrape asserting scheduler
// activity, and a clean drain.
func runSmoke(cfg serve.Config) error {
	s := serve.New(cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("listen: %w", err)
	}
	srv := newHTTPServer(s.Handler())
	go srv.Serve(ln)
	base := "http://" + ln.Addr().String()

	post := func(body string) (map[string]any, error) {
		resp, err := http.Post(base+"/op", "application/json", bytes.NewBufferString(body))
		if err != nil {
			return nil, err
		}
		defer resp.Body.Close()
		var out map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			return nil, err
		}
		if resp.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("status %d: %v", resp.StatusCode, out)
		}
		return out, nil
	}

	// Mixed batch: unions, a difference, an intersect, then reads.
	for i := 0; i < 8; i++ {
		keys := make([]int, 256)
		for j := range keys {
			keys[j] = (i*97 + j*13) % 2048
		}
		b, _ := json.Marshal(map[string]any{"op": "union", "keys": keys})
		if _, err := post(string(b)); err != nil {
			return fmt.Errorf("union %d: %w", i, err)
		}
	}
	if _, err := post(`{"op":"difference","keys":[0,13,26]}`); err != nil {
		return fmt.Errorf("difference: %w", err)
	}
	if _, err := post(`{"op":"intersect","keys":[1,2,3,4,5,6,7,8,9,10]}`); err != nil {
		return fmt.Errorf("intersect: %w", err)
	}
	got, err := post(`{"op":"contains","key":5}`)
	if err != nil {
		return fmt.Errorf("contains: %w", err)
	}
	if c, ok := got["contains"].(bool); !ok || !c {
		return fmt.Errorf("contains(5) = %v, want true", got["contains"])
	}
	if _, err := post(`{"op":"len"}`); err != nil {
		return fmt.Errorf("len: %w", err)
	}

	// DAG round-trip: (set ∪ {4000,4001}) \ {1..10} in one request, with
	// a known-count check — after the intersect above the set is exactly
	// {1..10}, so the result must be the two literal keys.
	postTo := func(path, body string) (map[string]any, int, error) {
		resp, err := http.Post(base+path, "application/json", bytes.NewBufferString(body))
		if err != nil {
			return nil, 0, err
		}
		defer resp.Body.Close()
		var out map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			return nil, resp.StatusCode, err
		}
		return out, resp.StatusCode, nil
	}
	dag, code, err := postTo("/dag", `{"nodes":[{"ref":"set"},{"keys":[4000,4001]},{"op":"union","args":[0,1]},{"keys":[1,2,3,4,5,6,7,8,9,10]},{"op":"difference","args":[2,3]}],"want":"keys"}`)
	if err != nil || code != http.StatusOK {
		return fmt.Errorf("dag: status %d err %w body %v", code, err, dag)
	}
	if n, ok := dag["count"].(float64); !ok || n != 2 {
		return fmt.Errorf("dag count = %v, want 2 (body %v)", dag["count"], dag)
	}
	// Typed rejects: an unknown set name and a malformed shape are 400s.
	if out, code, err := postTo("/dag", `{"nodes":[{"ref":"users"}]}`); err != nil || code != http.StatusBadRequest {
		return fmt.Errorf("dag unknown set: status %d err %v body %v, want 400", code, err, out)
	}
	if out, code, err := postTo("/dag", `{"nodes":[{"op":"union","args":[0,0]}]}`); err != nil || code != http.StatusBadRequest {
		return fmt.Errorf("dag self-cycle: status %d err %v body %v, want 400", code, err, out)
	}

	resp, err := http.Get(base + "/metrics")
	if err != nil {
		return fmt.Errorf("metrics: %w", err)
	}
	var m serve.Metrics
	err = json.NewDecoder(resp.Body).Decode(&m)
	resp.Body.Close()
	if err != nil {
		return fmt.Errorf("metrics decode: %w", err)
	}
	if m.Spawns == 0 {
		return fmt.Errorf("metrics report zero scheduler spawns after mixed batch: %+v", m)
	}
	if m.Admitted == 0 || m.Completed != m.Admitted {
		return fmt.Errorf("admitted=%d completed=%d, want equal and nonzero", m.Admitted, m.Completed)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		return fmt.Errorf("http shutdown: %w", err)
	}
	s.Close()
	if m := s.Metrics(); m.Inflight != 0 {
		return fmt.Errorf("inflight=%d after drain, want 0", m.Inflight)
	}
	fmt.Printf("smoke: spawns=%d suspensions=%d admitted=%d batches=%d\n",
		m.Spawns, m.Suspensions, m.Admitted, m.Batches)
	return nil
}

// runRestartSmoke exercises the durability layer end to end: mutate a
// persistent server, drain it cleanly, reopen the same data dir, and
// assert the contents survived — with zero log records replayed, since
// a clean drain flushes the WAL and snapshots the head version.
func runRestartSmoke(cfg serve.Config) error {
	dir, err := os.MkdirTemp("", "pipeserve-smoke-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	cfg.DataDir = dir
	cfg.Fsync = "batch"
	cfg.SnapshotEvery = 4

	s, err := serve.Open(cfg)
	if err != nil {
		return fmt.Errorf("open: %w", err)
	}
	for i := 0; i < 8; i++ {
		keys := make([]int, 128)
		for j := range keys {
			keys[j] = (i*131 + j*17) % 4096
		}
		if _, err := s.Apply(serve.OpUnion, keys); err != nil {
			s.Close()
			return fmt.Errorf("union %d: %w", i, err)
		}
	}
	if _, err := s.Apply(serve.OpDifference, []int{0, 17, 34}); err != nil {
		s.Close()
		return fmt.Errorf("difference: %w", err)
	}
	want, _, err := s.Keys()
	if err != nil {
		s.Close()
		return fmt.Errorf("keys: %w", err)
	}
	s.Close()

	r, err := serve.Open(cfg)
	if err != nil {
		return fmt.Errorf("reopen: %w", err)
	}
	defer r.Close()
	got, _, err := r.Keys()
	if err != nil {
		return fmt.Errorf("recovered keys: %w", err)
	}
	if len(got) != len(want) {
		return fmt.Errorf("recovered %d keys, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			return fmt.Errorf("recovered keys[%d] = %d, want %d", i, got[i], want[i])
		}
	}
	m := r.Metrics()
	if m.Replayed != 0 {
		return fmt.Errorf("clean stop replayed %d records, want 0", m.Replayed)
	}
	if m.Persist != "batch" {
		return fmt.Errorf("metrics persist=%q, want batch", m.Persist)
	}
	fmt.Printf("smoke restart: keys=%d replayed=%d\n", len(got), m.Replayed)
	return nil
}
