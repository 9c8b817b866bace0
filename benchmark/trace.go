package main

// Spans, recorded by the benchmark around its calls into each layer and
// kept in memory until the run ends. No measured package is touched: a
// live request's spans are the three instants the load generator records
// anyway (due, sent, returned), and a lower layer's spans come from
// replaying the same pre-drawn operands against that layer alone.

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"time"
)

// span is one interval. Parent is the ID of the span that caused it (0 =
// none) and Req the request all spans of one request share. A replay
// span measures a lower layer bare, after the live phase, on the operands
// of request Req: it hangs under that request's call span so a reader can
// line the two up, but it lies outside the parent's interval and so takes
// no part in the parent's self time.
type span struct {
	ID, Parent, Req int
	Name            string
	Start, End      time.Duration // offsets from the start of the span's phase
	Replay          bool
}

type tracer struct {
	spans []span
}

func (t *tracer) add(parent, req int, name string, start, end time.Duration, replay bool) int {
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name, Start: start, End: end, Replay: replay})
	return id
}

// addPhase records the three live spans of every completed request of a
// phase and returns each request's call-span ID (0 for a failed request),
// for replays to hang under. callName is the span name of the call into
// the server: serve.call in process, serve.http over HTTP.
func (t *tracer) addPhase(ph *phase, callName string) []int {
	calls := make([]int, len(ph.samples))
	for i := range ph.samples {
		s := &ph.samples[i]
		if s.resp.err != nil {
			continue
		}
		req := t.add(0, i, "request", s.due, s.done, false)
		t.add(req, i, "loadgen.wait", s.due, s.sent, false)
		calls[i] = t.add(req, i, callName, s.sent, s.done, false)
	}
	return calls
}

// selfTimes returns every span's self time: its duration less the part of
// its interval that its (non-replay) children cover.
func selfTimes(spans []span) map[int]time.Duration {
	kids := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 && !s.Replay {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		ks := kids[s.ID]
		sort.Slice(ks, func(i, j int) bool { return ks[i].Start < ks[j].Start })
		covered, upTo := time.Duration(0), s.Start
		for _, k := range ks {
			lo, hi := max(k.Start, upTo), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				upTo = hi
			}
		}
		self[s.ID] = s.End - s.Start - covered
	}
	return self
}

// meanSelfByName averages self time per span name, in microseconds. For
// the live spans the means add up exactly: request = loadgen.wait + call,
// the request span itself keeping no self time.
func meanSelfByName(spans []span) map[string]float64 {
	self := selfTimes(spans)
	sum, n := map[string]time.Duration{}, map[string]int{}
	for _, s := range spans {
		sum[s.Name] += self[s.ID]
		n[s.Name]++
	}
	out := map[string]float64{}
	for name, total := range sum {
		out[name] = us(total) / float64(n[name])
	}
	return out
}

// dump writes the spans as one JSON object with a row per span, times in
// microseconds.
func (t *tracer) dump(path, workload string, seed uint64) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintf(w, "{\"workload\":%q,\"seed\":%d,\"unit\":\"us\",\n", workload, seed)
	fmt.Fprintf(w, "\"columns\":[\"id\",\"parent\",\"request\",\"name\",\"start\",\"end\",\"replay\"],\n\"spans\":[\n")
	for i, s := range t.spans {
		sep := ","
		if i == len(t.spans)-1 {
			sep = ""
		}
		fmt.Fprintf(w, "[%d,%d,%d,%q,%.1f,%.1f,%t]%s\n", s.ID, s.Parent, s.Req, s.Name, us(s.Start), us(s.End), s.Replay, sep)
	}
	fmt.Fprintf(w, "]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
