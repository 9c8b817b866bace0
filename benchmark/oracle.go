package main

// Output checks. The server is linearizable per shard through its
// version counters, so the oracle replays every acknowledged mutation's
// per-shard pieces in version order into a plain bitmap (the method of
// internal/serve/load_test.go) and checks every read against the bitmap
// as of the version the read observed.

import (
	"fmt"
	"slices"
	"sort"

	"pipefut/internal/serve"
)

// shardOf mirrors serve's default range partition of [0, universe).
func shardOf(key int) int {
	sh := key / (universe / shards)
	return min(max(sh, 0), shards-1)
}

type verGroup struct {
	version uint64
	union   bool
	keys    []int
}

// memQuery asks whether key was in its shard as of version.
type memQuery struct {
	version uint64
	key     int
	member  bool // filled by the replay
}

type oracle struct {
	groups  [shards][]verGroup
	queries []memQuery
	errs    []string
}

func (o *oracle) failf(format string, args ...any) {
	if len(o.errs) < 10 {
		o.errs = append(o.errs, fmt.Sprintf(format, args...))
	} else if len(o.errs) == 10 {
		o.errs = append(o.errs, "... further mismatches suppressed")
	}
}

// addMutation records one acknowledged mutation under the cut it
// returned: slot i of the cut is the version shard i gave its piece.
func (o *oracle) addMutation(union bool, keys []int, cut serve.Cut) {
	if len(cut) != shards {
		o.failf("mutation returned a %d-slot cut, want %d", len(cut), shards)
		return
	}
	var pieces [shards][]int
	for _, k := range keys {
		pieces[shardOf(k)] = append(pieces[shardOf(k)], k)
	}
	for sh, piece := range pieces {
		switch {
		case len(piece) > 0 && cut[sh] == 0:
			o.failf("mutation touched shard %d but its cut has no version there", sh)
		case len(piece) > 0:
			o.groups[sh] = append(o.groups[sh], verGroup{cut[sh], union, piece})
		}
	}
}

// ask registers a membership question and returns its index; the answer
// is in queries[i].member after replay.
func (o *oracle) ask(key int, version uint64) int {
	o.queries = append(o.queries, memQuery{version: version, key: key})
	return len(o.queries) - 1
}

// replay answers every registered question and returns the final
// contents (every group applied) with the final per-shard versions.
func (o *oracle) replay() ([]int, serve.Cut) {
	set := make([]bool, universe)
	final := make(serve.Cut, shards)
	var byShard [shards][]int
	for i, q := range o.queries {
		byShard[shardOf(q.key)] = append(byShard[shardOf(q.key)], i)
	}
	for sh := 0; sh < shards; sh++ {
		gs := o.groups[sh]
		sort.SliceStable(gs, func(i, j int) bool { return gs[i].version < gs[j].version })
		qs := byShard[sh]
		sort.Slice(qs, func(i, j int) bool { return o.queries[qs[i]].version < o.queries[qs[j]].version })
		gi := 0
		apply := func(upTo uint64) {
			for ; gi < len(gs) && gs[gi].version <= upTo; gi++ {
				g := gs[gi]
				// Pieces the applier coalesced share a version; they must
				// then be of one kind, or the order inside it would matter.
				if gi > 0 && gs[gi-1].version == g.version && gs[gi-1].union != g.union {
					o.failf("shard %d version %d mixes union and difference", sh, g.version)
				}
				for _, k := range g.keys {
					set[k] = g.union
				}
			}
		}
		for _, qi := range qs {
			q := &o.queries[qi]
			apply(q.version)
			q.member = set[q.key]
		}
		apply(^uint64(0))
		if len(gs) > 0 {
			final[sh] = gs[len(gs)-1].version
		}
	}
	var keys []int
	for k, in := range set {
		if in {
			keys = append(keys, k)
		}
	}
	return keys, final
}

// checker accumulates a workload's responses and verifies them at the
// end, off the clock.
type checker struct {
	o        oracle
	contains []containsCheck
	dags     []dagCheck
	failed   int // requests that returned an error
}

type containsCheck struct {
	q   int
	got bool
}

type dagCheck struct {
	req  *request
	resp *response
	// For the shapes with a set leaf: the candidate keys (sorted
	// distinct) whose membership at the cut decides the result, and one
	// membership question per candidate. Both nil for the literal shape.
	literal bool
	cand    []int
	qs      []int
}

// add records one sample's response for checking.
func (c *checker) add(s *sample) {
	r, resp := s.req, &s.resp
	if resp.err != nil {
		c.failed++
		return
	}
	switch r.kind {
	case opUnion, opDifference:
		c.o.addMutation(r.kind == opUnion, r.keys, resp.cut)
	case opContains:
		c.contains = append(c.contains, containsCheck{c.o.ask(r.key, resp.version), resp.ok})
	case opDAG:
		c.addDAG(r, resp)
	}
}

// addDAG handles the three DAG shapes the workloads send. A shape with a
// set leaf is (set ∩ F) or (set ∩ F) \ G: its result is the keys of F\G
// that were members at the cut, so it registers one question per such
// key. The literal shape needs no set state.
func (c *checker) addDAG(r *request, resp *response) {
	nodes := r.dag.Nodes
	if nodes[0].Ref == "" {
		c.dags = append(c.dags, dagCheck{req: r, resp: resp, literal: true})
		return
	}
	if len(resp.cut) != shards {
		c.o.failf("dag returned a %d-slot cut, want %d", len(resp.cut), shards)
		return
	}
	cand := sortedDistinct(nodes[1].Keys)
	if len(nodes) == 5 {
		cand = sortedMinus(cand, sortedDistinct(nodes[3].Keys))
	}
	d := dagCheck{req: r, resp: resp, cand: cand}
	for _, k := range cand {
		d.qs = append(d.qs, c.o.ask(k, resp.cut[shardOf(k)]))
	}
	c.dags = append(c.dags, d)
}

// verify replays the oracle and compares everything recorded, then the
// target's final contents. It returns the number of mismatching requests
// and their descriptions.
func (c *checker) verify(final []int, finalCut serve.Cut) (int, []string) {
	wantKeys, wantCut := c.o.replay()
	bad := 0
	for _, cc := range c.contains {
		if q := c.o.queries[cc.q]; q.member != cc.got {
			bad++
			c.o.failf("contains(%d)@v%d = %v, oracle %v", q.key, q.version, cc.got, q.member)
		}
	}
	for _, d := range c.dags {
		var want []int
		if d.literal {
			n := d.req.dag.Nodes
			want = sortedMinus(sortedDistinct(append(append([]int(nil), n[0].Keys...), n[1].Keys...)), sortedDistinct(n[3].Keys))
		}
		for i, k := range d.cand {
			if c.o.queries[d.qs[i]].member {
				want = append(want, k)
			}
		}
		switch {
		case d.resp.count != len(want):
			bad++
			c.o.failf("dag count = %d, oracle %d", d.resp.count, len(want))
		case d.req.dag.Want == serve.DAGWantKeys && !slices.Equal(d.resp.keys, want):
			bad++
			c.o.failf("dag keys differ from oracle (%d keys)", len(want))
		}
	}
	for sh := range wantCut {
		if len(finalCut) != shards || finalCut[sh] != wantCut[sh] {
			bad++
			c.o.failf("final cut %v, oracle's last acknowledged versions %v", finalCut, wantCut)
			break
		}
	}
	if !slices.Equal(final, wantKeys) {
		bad++
		c.o.failf("final contents differ from oracle: %d keys, oracle %d", len(final), len(wantKeys))
	}
	if len(c.o.errs) > 0 && bad == 0 {
		bad = 1 // structural failures recorded while adding
	}
	return bad, c.o.errs
}

// sortedDistinct returns a sorted, deduplicated copy of keys.
func sortedDistinct(keys []int) []int {
	cp := slices.Clone(keys)
	slices.Sort(cp)
	return slices.Compact(cp)
}

// sortedMinus returns a \ b for sorted distinct slices.
func sortedMinus(a, b []int) []int {
	out := make([]int, 0, len(a))
	j := 0
	for _, k := range a {
		for j < len(b) && b[j] < k {
			j++
		}
		if j == len(b) || b[j] != k {
			out = append(out, k)
		}
	}
	return out
}
