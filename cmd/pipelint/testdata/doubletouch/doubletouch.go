// Package doubletouch seeds one linearity violation with no loop, branch
// or call around it: a straight-line second touch of the same cell.
package doubletouch

import "pipefut/internal/core"

func twice(t *core.Ctx, c *core.Cell[int]) int {
	return core.Touch(t, c) + core.Touch(t, c)
}
