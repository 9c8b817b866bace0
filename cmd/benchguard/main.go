// Command benchguard compares a benchmark run against a checked-in
// baseline and fails on regression. It is the CI bench-regression gate:
//
//	pipebench -exp serve -smoke -json current.json
//	benchguard -baseline bench_baseline.json -current current.json
//
// Both files hold JSON-lines ServePoint records (internal/bench). Raw
// throughput is machine-dependent — CI runners differ run to run — so
// benchguard compares *shapes*, not absolute numbers, at two levels:
//
//   - Within each backend, every point's req/s is normalized by that
//     backend's median, and the normalized ratios are compared point by
//     point over the keys the two files share. A point regresses when
//     its normalized throughput falls more than -tolerance below the
//     baseline's — a shard count or load level that got slower than its
//     peers. (Normalization is per backend because the pooled speed
//     distribution is bimodal — treap and t26 sit ~10× apart — which
//     would pin the pooled median to the cliff edge and make every
//     ratio hostage to one noisy cell.)
//   - Across backends, the ratio of backend medians is compared between
//     the files, catching one backend uniformly slipping against the
//     other (e.g. treap pipelining quietly turning batch-synchronous)
//     that per-backend normalization is blind to.
//
// Duplicate keys aggregate by median first, so both the baseline and
// the CI current file can hold several appended sweeps to damp
// run-to-run noise. Uniformly faster or slower runners pass untouched.
//
// The JSON stream may also carry open-loop SLO points (exp "openloop",
// internal/bench SLOPoint: p99-at-offered-load per backend × steal
// policy × mix). When both files contain them, benchguard gates those
// too, with the same per-backend median normalization but inverted
// polarity — latency regresses *upward* — under its own -slo-tolerance
// band (tails are noisier than medians). Points past the saturation
// knee are skipped on either side's evidence: once the shed fraction
// exceeds -slo-shed-max the tail measures the window length, not the
// server.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"pipefut/internal/bench"
)

func main() {
	var (
		baselineF = flag.String("baseline", "bench_baseline.json", "baseline JSON-lines file")
		currentF  = flag.String("current", "", "current-run JSON-lines file")
		tolerance = flag.Float64("tolerance", 0.25, "allowed fractional drop in median-normalized throughput")
		minKeys   = flag.Int("minkeys", 3, "minimum shared (backend,p,shards,clients) keys required to judge")
		maxRatio  = flag.String("maxratio", "", "absolute caps on the current run's cross-backend median ratios, comma-separated a/b=max pairs (e.g. t26/treap=8); unlike the shift check these do not depend on the baseline")
		sloTol    = flag.Float64("slo-tolerance", 0.5, "allowed fractional rise in median-normalized open-loop p99 (SLO points)")
		sloShed   = flag.Float64("slo-shed-max", 0.05, "skip an SLO point when either file's shed fraction exceeds this (past the knee, the tail measures the window, not the server)")
	)
	flag.Parse()
	if *currentF == "" {
		fmt.Fprintln(os.Stderr, "benchguard: -current is required")
		os.Exit(2)
	}

	base, baseSLO, err := load(*baselineF)
	if err != nil {
		fatal(err)
	}
	cur, curSLO, err := load(*currentF)
	if err != nil {
		fatal(err)
	}

	baseN := normalize(base)
	curN := normalize(cur)

	var keys []string
	for k := range baseN.points {
		if _, ok := curN.points[k]; ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	if len(keys) < *minKeys {
		fatal(fmt.Errorf("only %d shared data-point keys between %s and %s (need ≥ %d) — sweeps diverged",
			len(keys), *baselineF, *currentF, *minKeys))
	}

	regressed := 0
	for _, k := range keys {
		b, c := baseN.points[k], curN.points[k]
		delta := c/b - 1
		status := "ok"
		if delta < -*tolerance {
			status = "REGRESSED"
			regressed++
		}
		fmt.Printf("%-40s baseline %.3f  current %.3f  delta %+6.1f%%  %s\n", k, b, c, 100*delta, status)
	}

	// Cross-backend ratio: per-backend normalization hides one backend
	// uniformly slipping against another, so compare backend medians
	// pairwise between the files.
	var backends []string
	for b := range baseN.backendMed {
		if _, ok := curN.backendMed[b]; ok {
			backends = append(backends, b)
		}
	}
	sort.Strings(backends)
	for i, a := range backends {
		for _, b := range backends[i+1:] {
			rBase := baseN.backendMed[a] / baseN.backendMed[b]
			rCur := curN.backendMed[a] / curN.backendMed[b]
			shift := rCur/rBase - 1
			status, bad := ratioVerdict(a, b, shift, *tolerance)
			if bad {
				regressed++
			}
			fmt.Printf("%-40s baseline %.3f  current %.3f  shift %+6.1f%%  %s\n",
				"ratio "+a+"/"+b, rBase, rCur, 100*shift, status)
		}
	}

	// Absolute ratio caps: the baseline-relative shift check above slides
	// with whatever got checked in, so a deliberate floor (e.g. "grain
	// coarsening must keep t26 within 8× of treap") needs its own gate
	// judged on the current run alone.
	caps, err := parseRatioCaps(*maxRatio)
	if err != nil {
		fatal(err)
	}
	for _, c := range caps {
		num, ok1 := curN.backendMed[c.num]
		den, ok2 := curN.backendMed[c.den]
		if !ok1 || !ok2 {
			fatal(fmt.Errorf("-maxratio %s/%s: current run has no such backend pair", c.num, c.den))
		}
		r := num / den
		status := "ok"
		if r > c.max {
			status = fmt.Sprintf("REGRESSED (cap %.2f)", c.max)
			regressed++
		}
		fmt.Printf("%-40s current %.3f  cap %.3f  %s\n", "maxratio "+c.num+"/"+c.den, r, c.max, status)
	}

	// Open-loop SLO points: gated only when both files carry them, so
	// a baseline refreshed before the openloop sweep existed does not
	// fail every run — but once both sides have them, at least one
	// below-the-knee point must be comparable, or the gate is vacuous.
	sloCompared := 0
	if len(baseSLO) > 0 && len(curSLO) > 0 {
		bs, cs := normalizeSLO(baseSLO), normalizeSLO(curSLO)
		var skeys []string
		for k := range bs.points {
			if _, ok := cs.points[k]; ok {
				skeys = append(skeys, k)
			}
		}
		sort.Strings(skeys)
		for _, k := range skeys {
			if bs.shedFrac[k] > *sloShed || cs.shedFrac[k] > *sloShed {
				fmt.Printf("%-40s skipped (past the knee: shed %.1f%% baseline, %.1f%% current)\n",
					"slo "+k, 100*bs.shedFrac[k], 100*cs.shedFrac[k])
				continue
			}
			b, c := bs.points[k], cs.points[k]
			delta := c/b - 1
			status := "ok"
			if delta > *sloTol { // latency: up is bad
				status = "REGRESSED"
				regressed++
			}
			sloCompared++
			fmt.Printf("%-40s baseline %.3f  current %.3f  delta %+6.1f%%  %s\n", "slo "+k, b, c, 100*delta, status)
		}
		if sloCompared == 0 {
			fatal(fmt.Errorf("both files carry SLO points but none are comparable below the knee — sweeps diverged or everything saturated"))
		}
	}

	if regressed > 0 {
		fmt.Fprintf(os.Stderr, "benchguard: %d checks regressed more than %.0f%% (median-normalized)\n",
			regressed, 100**tolerance)
		os.Exit(1)
	}
	fmt.Printf("benchguard: %d points, %d backend ratios, and %d SLO points within tolerance of baseline\n",
		len(keys), len(backends)*(len(backends)-1)/2, sloCompared)
}

// ratioVerdict judges the shift of the a/b median ratio between the
// files: a slipped when a/b fell more than tolerance, b slipped when
// b/a = 1/(1+shift) did.
func ratioVerdict(a, b string, shift, tolerance float64) (status string, regressed bool) {
	switch {
	case shift < -tolerance:
		return fmt.Sprintf("REGRESSED (%s slipped vs %s)", a, b), true
	case 1/(1+shift)-1 < -tolerance:
		return fmt.Sprintf("REGRESSED (%s slipped vs %s)", b, a), true
	}
	return "ok", false
}

type ratioCap struct {
	num, den string
	max      float64
}

// parseRatioCaps parses "a/b=1.5,c/d=8" into ratio caps.
func parseRatioCaps(s string) ([]ratioCap, error) {
	if s == "" {
		return nil, nil
	}
	var out []ratioCap
	for _, part := range strings.Split(s, ",") {
		var c ratioCap
		part = strings.TrimSpace(part)
		eq := strings.IndexByte(part, '=')
		sl := strings.IndexByte(part, '/')
		if sl < 0 || eq < sl {
			return nil, fmt.Errorf("-maxratio: %q is not of the form a/b=max", part)
		}
		c.num, c.den = part[:sl], part[sl+1:eq]
		if _, err := fmt.Sscanf(part[eq+1:], "%g", &c.max); err != nil {
			return nil, fmt.Errorf("-maxratio: bad bound in %q: %v", part, err)
		}
		out = append(out, c)
	}
	return out, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchguard:", err)
	os.Exit(1)
}

// load reads a JSON-lines file and sorts its records by the "exp"
// discriminator: serve sweep points and open-loop SLO points; lines
// from other experiments are ignored.
func load(path string) ([]bench.ServePoint, []bench.SLOPoint, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	var out []bench.ServePoint
	var slo []bench.SLOPoint
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var probe struct {
			Exp string `json:"exp"`
		}
		if err := json.Unmarshal(line, &probe); err != nil {
			return nil, nil, fmt.Errorf("%s: %w", path, err)
		}
		switch probe.Exp {
		case "serve":
			var p bench.ServePoint
			if err := json.Unmarshal(line, &p); err != nil {
				return nil, nil, fmt.Errorf("%s: %w", path, err)
			}
			if p.ReqPerSec > 0 {
				out = append(out, p)
			}
		case "openloop":
			var p bench.SLOPoint
			if err := json.Unmarshal(line, &p); err != nil {
				return nil, nil, fmt.Errorf("%s: %w", path, err)
			}
			if p.P99Nanos > 0 && p.Requests > 0 {
				slo = append(slo, p)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, nil, err
	}
	if len(out) == 0 {
		return nil, nil, fmt.Errorf("%s: no serve data points", path)
	}
	return out, slo, nil
}

type normalized struct {
	// points maps each sweep key to its per-key median req/s divided by
	// its backend's median req/s.
	points map[string]float64
	// backendMed maps each backend to the median over its per-key medians.
	backendMed map[string]float64
}

func median(xs []float64) float64 {
	sort.Float64s(xs)
	return xs[len(xs)/2]
}

func normalize(pts []bench.ServePoint) normalized {
	byKey := make(map[string][]float64)
	keyBackend := make(map[string]string)
	for _, p := range pts {
		k := fmt.Sprintf("%s/p=%d/k=%d/clients=%d", p.Backend, p.P, p.Shards, p.Clients)
		byKey[k] = append(byKey[k], p.ReqPerSec)
		keyBackend[k] = p.Backend
	}
	keyMed := make(map[string]float64, len(byKey))
	perBackend := make(map[string][]float64)
	for k, xs := range byKey {
		m := median(xs)
		keyMed[k] = m
		perBackend[keyBackend[k]] = append(perBackend[keyBackend[k]], m)
	}
	n := normalized{points: make(map[string]float64, len(keyMed)), backendMed: make(map[string]float64, len(perBackend))}
	for b, xs := range perBackend {
		n.backendMed[b] = median(xs)
	}
	for k, m := range keyMed {
		n.points[k] = m / n.backendMed[keyBackend[k]]
	}
	return n
}

type sloNormalized struct {
	// points maps backend/policy/mix/offered keys to the per-key median
	// p99 divided by the backend's median p99 (shape, not nanoseconds).
	points map[string]float64
	// shedFrac maps each key to its median shed fraction, the
	// past-the-knee detector.
	shedFrac map[string]float64
}

func normalizeSLO(pts []bench.SLOPoint) sloNormalized {
	byKey := make(map[string][]float64)
	shedByKey := make(map[string][]float64)
	keyBackend := make(map[string]string)
	for _, p := range pts {
		k := fmt.Sprintf("%s/%s/%s/offered=%d", p.Backend, p.Policy, p.Mix, p.OfferedPerSec)
		byKey[k] = append(byKey[k], float64(p.P99Nanos))
		shedByKey[k] = append(shedByKey[k], float64(p.Shed)/float64(p.Requests))
		keyBackend[k] = p.Backend
	}
	keyMed := make(map[string]float64, len(byKey))
	perBackend := make(map[string][]float64)
	for k, xs := range byKey {
		m := median(xs)
		keyMed[k] = m
		perBackend[keyBackend[k]] = append(perBackend[keyBackend[k]], m)
	}
	backendMed := make(map[string]float64, len(perBackend))
	for b, xs := range perBackend {
		backendMed[b] = median(xs)
	}
	n := sloNormalized{points: make(map[string]float64, len(keyMed)), shedFrac: make(map[string]float64, len(keyMed))}
	for k, m := range keyMed {
		n.points[k] = m / backendMed[keyBackend[k]]
		n.shedFrac[k] = median(shedByKey[k])
	}
	return n
}
