// Write-before-touch flow shapes: cells born written, call results
// materialized at return, and a fork result touched while its producer
// may still run. flowlinear's diagnostics here pin down which of these
// flows are linear.
package flowlinear

import "pipefut/internal/core"

// fwdStraight touches a cell born written: linear.
func fwdStraight(t *core.Ctx) int {
	d := core.NowCell(t, 5)
	return core.Touch(t, d)
}

// seqPair materializes both results before returning.
func seqPair(t *core.Ctx) (*core.Cell[int], *core.Cell[int]) {
	return core.NowCell(t, 1), core.NowCell(t, 2)
}

// fwdChain touches call results that are materialized at return, one
// touch each across the call boundary: linear.
func fwdChain(t *core.Ctx) int {
	a, b := seqPair(t)
	return core.Touch(t, a) + core.Touch(t, b)
}

// notFwdPipelined touches a fork result once: linear, though the write
// races the touch.
func notFwdPipelined(t *core.Ctx) int {
	a := core.Fork1(t, func(t2 *core.Ctx) int { return 1 })
	return core.Touch(t, a)
}

// condReader touches c only on one branch; whether that touch precedes
// c's write depends on the caller.
func condReader(t *core.Ctx, c *core.Cell[int], cond bool) int {
	if cond {
		return core.Touch(t, c)
	}
	return 0
}

// notFwdCond conditionally touches a fork result before its producer is
// known to have run, then touches it again: up to two touches reach "a",
// so the flow is not linear.
func notFwdCond(t *core.Ctx, cond bool) int {
	a := core.Fork1(t, func(t2 *core.Ctx) int { return 1 })
	s := condReader(t, a, cond)
	return s + core.Touch(t, a) // want `may already be touched`
}
