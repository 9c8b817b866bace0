package main

// The load generator: an open-loop Poisson dispatcher and closed-loop
// clients, both recording one sample per request for the quantiles, the
// span file and the output checks.

import (
	"cmp"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// sample is one request's timeline, as offsets from its phase's start.
// In a closed loop due == sent: latency runs from send.
type sample struct {
	req             *request
	due, sent, done time.Duration
	resp            response
}

func (s *sample) latency() time.Duration { return s.done - s.due }

// phase is one timed run of a loop against a target.
type phase struct {
	samples []sample
	elapsed time.Duration // start → last reply
	cpu     time.Duration // server-process CPU over elapsed
}

// spinBefore is how long before a due instant the dispatcher stops
// sleeping and starts yielding: Go's timers are about 1 ms coarse when
// the process is otherwise idle, so a plain Sleep would send up to that
// late, which at a 1 ms median latency is the whole signal.
const spinBefore = time.Millisecond

func waitUntil(t time.Time) {
	if d := time.Until(t); d > spinBefore {
		time.Sleep(d - spinBefore)
	}
	for time.Now().Before(t) {
		runtime.Gosched()
	}
}

// cpuClock reads the server process's CPU time.
type cpuClock func() time.Duration

func cpuClockFor(t target) cpuClock {
	pid := t.pid()
	if pid == 0 {
		return selfCPU
	}
	return func() time.Duration {
		d, err := pidCPU(pid)
		if err != nil {
			panic(fmt.Sprintf("server process %d vanished mid-run: %v", pid, err))
		}
		return d
	}
}

// openLoop fires reqs[i] at due[i] whatever the state of earlier
// requests: one dispatcher waits for each due instant and starts one
// goroutine per request. Latency runs from the due instant, so time a
// request spends waiting for the generator or for a stalled server is
// charged to it.
func openLoop(t target, due []time.Duration, reqs []request) phase {
	cpu := cpuClockFor(t)
	samples := make([]sample, len(reqs))
	var wg sync.WaitGroup
	wg.Add(len(reqs))
	cpu0, start := cpu(), time.Now()
	for i := range reqs {
		waitUntil(start.Add(due[i]))
		go func(s *sample, r *request, due time.Duration) {
			defer wg.Done()
			s.req, s.due = r, due
			s.sent = time.Since(start)
			s.resp = t.do(r)
			s.done = time.Since(start)
		}(&samples[i], &reqs[i], due[i])
	}
	wg.Wait()
	return phase{samples: samples, elapsed: time.Since(start), cpu: cpu() - cpu0}
}

// poolCursor holds a closed loop's pre-drawn requests and where the next
// client takes from, so consecutive phases continue through the pool
// instead of replaying its head. It cycles when the pool runs out.
type poolCursor struct {
	pool []request
	next atomic.Int64
}

func (c *poolCursor) take() *request {
	return &c.pool[int(c.next.Add(1)-1)%len(c.pool)]
}

// closedLoop runs clients clients for d: each sends its next request only
// after the previous one returned.
func closedLoop(t target, clients int, d time.Duration, pool *poolCursor) phase {
	cpu := cpuClockFor(t)
	per := make([][]sample, clients)
	var wg sync.WaitGroup
	wg.Add(clients)
	cpu0, start := cpu(), time.Now()
	for c := range per {
		go func(c int) {
			defer wg.Done()
			local := make([]sample, 0, 1<<12)
			for {
				r := pool.take()
				sent := time.Since(start)
				if sent >= d {
					break
				}
				resp := t.do(r)
				local = append(local, sample{req: r, due: sent, sent: sent, done: time.Since(start), resp: resp})
			}
			per[c] = local
		}(c)
	}
	wg.Wait()
	ph := phase{elapsed: time.Since(start), cpu: cpu() - cpu0}
	for _, local := range per {
		ph.samples = append(ph.samples, local...)
	}
	return ph
}

// phaseStats summarises a phase. A failed request is excluded from the
// quantiles and counted in failed.
type phaseStats struct {
	attempted, failed int
	n                 int // latency samples behind the quantiles
	p50               time.Duration
	p99               time.Duration // median of the windows' 99th percentiles
	windows           int           // how many windows p99 is the median of
	pooledP99         time.Duration // 99th percentile of all n samples at once
	rps               float64       // completed requests per second of elapsed
	cpuPerReq         time.Duration
	lateP99           time.Duration // sent − due: how late the generator ran
}

// p99Window is how many consecutive latency samples one p99 window holds.
// The longest percent of a phase's latencies comes from a dozen stalls, so
// their 99th percentile taken at once moves 15–27% from run to run on
// unchanged code; the median over windows this short moves 8–12%, which is
// what the host itself drifts by (README, "Noise on this host").
const p99Window = 300

func (ph *phase) stats() phaseStats {
	st := phaseStats{attempted: len(ph.samples)}
	ok := make([]*sample, 0, len(ph.samples))
	late := make([]time.Duration, 0, len(ph.samples))
	for i := range ph.samples {
		s := &ph.samples[i]
		late = append(late, s.sent-s.due)
		if s.resp.err != nil {
			st.failed++
			continue
		}
		ok = append(ok, s)
	}
	// In time order: a closed loop's samples arrive grouped by client.
	slices.SortStableFunc(ok, func(a, b *sample) int { return cmp.Compare(a.due, b.due) })
	lats := make([]time.Duration, len(ok))
	for i, s := range ok {
		lats[i] = s.latency()
	}
	st.n = len(lats)
	st.p99, st.windows = windowedP99(lats)
	st.p50, st.pooledP99 = quantile(lats, 0.50), quantile(lats, 0.99)
	st.lateP99 = quantile(late, 0.99)
	if st.n > 0 && ph.elapsed > 0 {
		st.rps = float64(st.n) / ph.elapsed.Seconds()
		st.cpuPerReq = ph.cpu / time.Duration(st.n)
	}
	return st
}

// windowedP99 cuts lats, which are in time order, into as many equal
// windows as hold at least p99Window samples each, and returns the median
// of the windows' 99th percentiles with the number of windows. It leaves
// lats in its order.
func windowedP99(lats []time.Duration) (time.Duration, int) {
	k := max(1, len(lats)/p99Window)
	p99s := make([]time.Duration, k)
	for i := range p99s {
		p99s[i] = quantile(slices.Clone(lats[i*len(lats)/k:(i+1)*len(lats)/k]), 0.99)
	}
	return median(p99s), k
}

// quantile sorts xs in place and returns its q-quantile (0 if empty).
func quantile(xs []time.Duration, q float64) time.Duration {
	if len(xs) == 0 {
		return 0
	}
	slices.Sort(xs)
	return xs[int(float64(len(xs))*q)]
}

func median[T float64 | time.Duration](xs []T) T {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// noopTarget answers at once; the calibration runs the dispatcher
// against it.
type noopTarget struct{ target }

func (noopTarget) do(*request) response { return response{} }
func (noopTarget) pid() int             { return 0 }

// Calibration limits: the dispatcher alone, against a target that costs
// nothing, must send within lateLimit of the due instant at the 99th
// percentile, or every latency measured through it would carry the
// generator's own delay.
const (
	lateLimit         = 300 * time.Microsecond
	calibrateWindow   = 500 * time.Millisecond
	calibrateAttempts = 3
)

// calibrate checks the open-loop generator on this host at the given
// rate before it is trusted with a measurement. A noisy neighbour can
// spoil one window, so it gets a few attempts.
func calibrate(w workloadDef, seed uint64) (time.Duration, error) {
	var late time.Duration
	for try := 0; try < calibrateAttempts; try++ {
		due, reqs := w.drawSchedule(rngFor(seed, rngWarmup), w.rate, calibrateWindow)
		ph := openLoop(noopTarget{}, due, reqs)
		if late = ph.stats().lateP99; late <= lateLimit {
			return late, nil
		}
	}
	return late, fmt.Errorf("open-loop generator is late by %v at p99 against a no-op target (limit %v): this host cannot hold the schedule, run invalid", late, lateLimit)
}
