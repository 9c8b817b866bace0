// Write-before-touch shapes from mustwrite's side: a body that writes
// its cell before touching it, and a fork whose body writes both results
// on every path while the caller conditionally touches one early. Both
// are mustwrite-clean: no diagnostics are expected in this file.
package mustwrite

import "pipefut/internal/core"

// writeThenTouch writes its cell then touches it: the canonical
// write-before-touch body.
func writeThenTouch(th *core.Ctx, c *core.Cell[int]) int {
	core.Write(th, c, 7)
	return core.Touch(th, c)
}

// condEarlyTouch writes both fork results on every body path (mustwrite
// is satisfied), but the caller conditionally touches one result while
// the body may still be running: write-before-touch cannot be
// guaranteed, which is no mustwrite finding.
func condEarlyTouch(t *core.Ctx, cond bool) int {
	a, b := core.Fork2(t, func(th *core.Ctx, a2, b2 *core.Cell[int]) {
		core.Write(th, a2, 1)
		core.Write(th, b2, 2)
	})
	s := 0
	if cond {
		s = core.Touch(t, a)
	}
	return s + core.Touch(t, b)
}
