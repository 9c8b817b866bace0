// The pipelined tree mergesort of the paper's conclusion (Section 5): a
// mergesort whose merges are the pipelined tree merge of Section 3.1,
// giving three levels of pipelining. The paper conjectures its expected
// depth is close to O(lg n) — perhaps O(lg n · lg lg n) — versus O(lg³ n)
// without pipelining. This example sorts for real on the work-stealing scheduler, then
// measures the depth in the cost model and prints the conjecture columns.
//
//	go run ./examples/mergesort -n 65536
package main

import (
	"flag"
	"fmt"
	"math"
	"sort"
	"time"

	"pipefut"
	"pipefut/internal/core"
	"pipefut/internal/costalg"
	"pipefut/internal/workload"
)

func main() {
	n := flag.Int("n", 1<<16, "elements to sort")
	flag.Parse()

	rng := workload.NewRNG(7)
	xs := rng.Perm(*n)

	// Real run on the scheduler via the public API.
	start := time.Now()
	sorted := pipefut.Sort(xs)
	elapsed := time.Since(start)
	if !sort.IntsAreSorted(sorted) || len(sorted) != *n {
		panic("mergesort produced wrong output")
	}
	fmt.Printf("sorted %d ints with future-based mergesort in %v\n", *n, elapsed)

	// Cost-model sweep: the conjecture columns.
	fmt.Println("\ncost model (expected depth, one instance per size):")
	fmt.Printf("%6s %10s %10s %16s %10s\n", "lg n", "depth", "d/lg n", "d/(lg n·lglg n)", "d/lg² n")
	for e := 8; e <= 16 && (1<<e) <= *n; e += 2 {
		m := 1 << e
		eng := core.NewEngine(nil)
		r := costalg.Mergesort(eng.NewCtx(), rng.Perm(m))
		costalg.CompletionTime(r)
		c := eng.Finish()
		lg := math.Log2(float64(m))
		fmt.Printf("%6d %10d %10.1f %16.2f %10.2f\n",
			e, c.Depth,
			float64(c.Depth)/lg,
			float64(c.Depth)/(lg*math.Log2(lg)),
			float64(c.Depth)/(lg*lg))
	}
	fmt.Println("\nreading: a flat d/(lg n·lglg n) column with slowly climbing d/lg n supports the conjecture")
}
