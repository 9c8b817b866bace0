package pipefut_test

import (
	"fmt"

	"pipefut"
)

// A future call returns a cell immediately; Read blocks until the value
// has been written.
func ExampleSpawn() {
	c := pipefut.Spawn(func() int { return 6 * 7 })
	fmt.Println(c.Read())
	// Output: 42
}

// Multi-cell futures write their results independently — one result can be
// consumed long before the other exists, which is what pipelines the
// paper's tree algorithms.
func ExampleSpawn2() {
	gate := make(chan struct{})
	early, late := pipefut.Spawn2(func(a, b *pipefut.Cell[string]) {
		a.Write("early")
		<-gate
		b.Write("late")
	})
	fmt.Println(early.Read()) // available immediately
	close(gate)
	fmt.Println(late.Read())
	// Output:
	// early
	// late
}

// Set operations are the paper's pipelined treap algorithms: they return
// immediately and materialize concurrently.
func ExampleSet_Union() {
	a := pipefut.NewSet(1, 2, 3)
	b := pipefut.NewSet(3, 4)
	fmt.Println(a.Union(b).Keys())
	// Output: [1 2 3 4]
}

func ExampleSet_Subtract() {
	a := pipefut.NewSet(1, 2, 3, 4)
	b := pipefut.NewSet(2, 4, 6)
	fmt.Println(a.Subtract(b).Keys())
	// Output: [1 3]
}

func ExampleSet_Intersect() {
	a := pipefut.NewSet(1, 2, 3, 4)
	b := pipefut.NewSet(2, 4, 6)
	fmt.Println(a.Intersect(b).Keys())
	// Output: [2 4]
}

// Measure runs a future-based computation in virtual time and reports its
// work and depth in the paper's DAG cost model. Here: a 3-stage pipeline
// where each stage adds 1 to its predecessor's output — the depth is the
// chain's critical path, not the sum of thread lifetimes.
func ExampleMeasure() {
	costs := pipefut.Measure(func(t *pipefut.Ctx) {
		a := pipefut.Fork(t, func(t *pipefut.Ctx) int {
			t.Step(10)
			return 1
		})
		b := pipefut.Fork(t, func(t *pipefut.Ctx) int {
			return pipefut.Touch(t, a) + 1
		})
		fmt.Println("result:", pipefut.Touch(t, b))
	})
	fmt.Println("work:", costs.Work, "depth:", costs.Depth, "linear:", costs.Linear())
	// Output:
	// result: 2
	// work: 16 depth: 15 linear: true
}

// NewSetAsync builds large sets concurrently by divide-and-conquer
// pipelined unions: the call returns immediately and queries run against
// the in-flight structure.
func ExampleNewSetAsync() {
	keys := make([]int, 100000)
	for i := range keys {
		keys[i] = i * 3
	}
	s := pipefut.NewSetAsync(keys...)
	fmt.Println(s.Contains(99), s.Contains(100)) // while still building
	// Output: true false
}

// Sort is the Section 5 pipelined tree mergesort, run on the shared
// scheduler.
func ExampleSort() {
	fmt.Println(pipefut.Sort([]int{5, 3, 9, 1, 3}))
	// Output: [1 3 5 9]
}
