// Seeded linearity violations, checked by the flowlinear analyzer.
package nonlinear

import "pipefut/internal/core"

// hotspot touches one cell once per element of a slice: the touch count
// is data-dependent, so the computation is not linear.
func hotspot(t *core.Ctx, c *core.Cell[int], xs []int) int {
	s := 0
	for _, x := range xs {
		s += x * core.Touch(t, c) // want `cell "c" may already be touched`
	}
	return s
}

// constTrip re-reads under a constant trip count. A constant number of
// touches only costs a constant factor, but linearity allows one touch
// per cell whatever the trip count, so the second iteration's touch is
// reported.
func constTrip(t *core.Ctx, c *core.Cell[int]) int {
	s := 0
	for i := 0; i < 4; i++ {
		s += core.Touch(t, c) // want `cell "c" may already be touched`
	}
	return s
}

type node struct {
	val  int
	next *core.Cell[*node]
}

// cursor is the Figure 1 consumer shape: the cell variable is re-bound
// every iteration, so each touch reads a fresh cell. No diagnostic.
func cursor(t *core.Ctx, c *core.Cell[*node]) int {
	s := 0
	for {
		n := core.Touch(t, c)
		if n == nil {
			return s
		}
		s += n.val
		c = n.next
	}
}

// forkEach creates one fork per iteration, each touching the same outer
// cell: n touches of one cell, a read hot spot.
func forkEach(t *core.Ctx, c *core.Cell[int], n int) []*core.Cell[int] {
	out := make([]*core.Cell[int], 0, n)
	for i := 0; i < n; i++ {
		out = append(out, core.Fork1(t, func(th *core.Ctx) int { // want `fork body may touch cell "c"`
			return core.Touch(th, c) + 1
		}))
	}
	return out
}
