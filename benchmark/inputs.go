package main

// Workload definitions and their pre-drawn inputs. Every random choice is
// made here, from workload.NewRNG(seed), before any clock starts: the
// server sees only the generated requests, and no firing goroutine ever
// touches an RNG.

import (
	"encoding/json"
	"math"
	"runtime"
	"time"

	"pipefut/internal/serve"
	"pipefut/internal/workload"
)

// The common setting of every workload (see README.md).
const (
	universe    = 1 << 18
	shards      = 4
	preloadKeys = universe / 2
)

type opKind uint8

const (
	opUnion opKind = iota
	opDifference
	opContains
	opDAG
)

// request is one pre-drawn request. Exactly one of keys (mutations), key
// (contains) or dag is meaningful, by kind.
type request struct {
	kind opKind
	keys []int
	key  int
	dag  *serve.DAGRequest
	body []byte // pre-encoded JSON, drawn only for the HTTP target
}

func (r *request) isMutation() bool { return r.kind == opUnion || r.kind == opDifference }

// workloadDef is one workload: which loop drives the primary phase, at
// what rate or client count, against which target, with which mix.
type workloadDef struct {
	name string
	// rate > 0 makes the primary phase an open loop at that many Poisson
	// arrivals per second, followed by a closed-loop saturation phase
	// with satClients clients. rate == 0 makes the primary phase a closed
	// loop with clients clients.
	rate       float64
	clients    int
	satClients int
	durable    bool // temp DataDir, fsync=always, crash-image reopen
	http       bool // target is a cmd/pipeserve subprocess
	pool       int  // pre-drawn requests a closed loop cycles through
	mix        func(rng *workload.RNG) request
	ladder     []float64 // serve.slo_rate_rps rungs (traced run only)
	t26Control bool      // traced run also measures serve.t26_rps
}

func workloads() []workloadDef {
	return []workloadDef{
		{name: "point-mixed", rate: 600, satClients: 8, pool: 1 << 15, mix: mixPoint,
			ladder: []float64{300, 600, 900, 1200, 1500}, t26Control: true},
		{name: "bulk-pipeline", clients: 2, pool: 256, mix: mixBulk},
		{name: "durable-point-writes", rate: 1200, satClients: 8, durable: true, pool: 1 << 16, mix: mixDurable,
			ladder: []float64{600, 1200, 1800, 2400}},
		{name: "http-reads", clients: runtime.NumCPU(), http: true, pool: 1 << 16, mix: mixHTTPReads},
	}
}

func workloadByName(name string) (workloadDef, bool) {
	for _, w := range workloads() {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// rngFor gives each (seed, purpose) pair its own stream, so one phase's
// inputs do not shift when another phase's length changes.
func rngFor(seed uint64, purpose uint64) *workload.RNG {
	return workload.NewRNG(seed*0x9e3779b97f4a7c15 + purpose)
}

// RNG stream purposes.
const (
	rngPreload uint64 = iota + 1
	rngWarmup
	rngPrimary
	rngSaturation
	rngUntraced
	rngTraced
	rngUnloaded
	rngT26
	rngLadder // + rung index; keep last
)

func randKeys(rng *workload.RNG, n int) []int {
	ks := make([]int, n)
	for i := range ks {
		ks[i] = rng.Intn(universe)
	}
	return ks
}

func mutation(rng *workload.RNG, union bool, n int) request {
	if union {
		return request{kind: opUnion, keys: randKeys(rng, n)}
	}
	return request{kind: opDifference, keys: randKeys(rng, n)}
}

// mixPoint: 35% union, 35% difference (16 keys each), 30% contains.
func mixPoint(rng *workload.RNG) request {
	switch roll := rng.Intn(100); {
	case roll < 35:
		return mutation(rng, true, 16)
	case roll < 70:
		return mutation(rng, false, 16)
	default:
		return request{kind: opContains, key: rng.Intn(universe)}
	}
}

// mixBulk: 25% each of union (512 keys), difference (512 keys), the
// literal DAG (A∪B)\C over 2048-key leaves answered as a count, and the
// filter DAG (set∩F)\G over 512-key literals answered as keys.
func mixBulk(rng *workload.RNG) request {
	switch rng.Intn(4) {
	case 0:
		return mutation(rng, true, 512)
	case 1:
		return mutation(rng, false, 512)
	case 2:
		return request{kind: opDAG, dag: &serve.DAGRequest{Nodes: []serve.DAGNode{
			{Keys: randKeys(rng, 2048)}, {Keys: randKeys(rng, 2048)},
			{Op: "union", Args: []int{0, 1}},
			{Keys: randKeys(rng, 2048)},
			{Op: "difference", Args: []int{2, 3}},
		}, Want: serve.DAGWantCount}}
	default:
		return request{kind: opDAG, dag: &serve.DAGRequest{Nodes: []serve.DAGNode{
			{Ref: serve.SetRef}, {Keys: randKeys(rng, 512)},
			{Op: "intersect", Args: []int{0, 1}},
			{Keys: randKeys(rng, 512)},
			{Op: "difference", Args: []int{2, 3}},
		}, Want: serve.DAGWantKeys}}
	}
}

// mixDurable: 50% union, 50% difference, 2 keys each.
func mixDurable(rng *workload.RNG) request {
	return mutation(rng, rng.Intn(2) == 0, 2)
}

// mixHTTPReads: 95% contains, 5% the DAG set∩F over 64 literal keys
// answered as keys. Bodies are encoded here so the timed clients only
// write bytes.
func mixHTTPReads(rng *workload.RNG) request {
	var r request
	var body any
	if rng.Intn(100) < 95 {
		r = request{kind: opContains, key: rng.Intn(universe)}
		body = serve.OpRequest{Op: "contains", Key: r.key}
	} else {
		r = request{kind: opDAG, dag: &serve.DAGRequest{Nodes: []serve.DAGNode{
			{Ref: serve.SetRef}, {Keys: randKeys(rng, 64)},
			{Op: "intersect", Args: []int{0, 1}},
		}, Want: serve.DAGWantKeys}}
		body = r.dag
	}
	b, err := json.Marshal(body)
	if err != nil {
		panic(err) // plain structs of ints and strings always encode
	}
	r.body = b
	return r
}

// drawRequests pre-draws n requests of the workload's mix.
func (w workloadDef) drawRequests(rng *workload.RNG, n int) []request {
	reqs := make([]request, n)
	for i := range reqs {
		reqs[i] = w.mix(rng)
	}
	return reqs
}

// drawSchedule pre-draws a Poisson arrival schedule at rate arrivals per
// second over the window: the due offsets and one request per arrival.
func (w workloadDef) drawSchedule(rng *workload.RNG, rate float64, window time.Duration) ([]time.Duration, []request) {
	var due []time.Duration
	for at := time.Duration(0); ; {
		at += time.Duration(-math.Log(1-rng.Float64()) / rate * float64(time.Second))
		if at > window {
			break
		}
		due = append(due, at)
	}
	return due, w.drawRequests(rng, len(due))
}

// drawPreload draws the preloaded working set: preloadKeys distinct keys,
// half the universe, so the balanced mixes keep the size stationary.
func drawPreload(seed uint64) []int {
	return workload.DistinctKeys(rngFor(seed, rngPreload), preloadKeys, universe)
}
