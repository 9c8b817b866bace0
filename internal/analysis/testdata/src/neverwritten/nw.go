// Seeded never-written result cells, checked by the mustwrite analyzer.
package neverwritten

import (
	"pipefut/internal/core"
	"pipefut/internal/future"
)

// missing never writes its second result cell: touching b deadlocks.
func missing(t *core.Ctx) int {
	a, b := core.Fork2(t, func(th *core.Ctx, a2, b2 *core.Cell[int]) { // want `without writing result cell "b2"`
		core.Write(th, a2, 1)
		_ = core.Touch(th, b2)
	})
	return core.Touch(t, a) + core.Touch(t, b)
}

// blank discards the write capability outright.
func blank(t *core.Ctx) int {
	a, b := core.Fork2(t, func(th *core.Ctx, a2 *core.Cell[int], _ *core.Cell[int]) { // want `without writing result cell "_"`
		core.Write(th, a2, 1)
	})
	_ = b
	return core.Touch(t, a)
}

// ok writes both cells: no diagnostic.
func ok(t *core.Ctx) int {
	a, b := core.Fork2(t, func(th *core.Ctx, a2, b2 *core.Cell[int]) {
		core.Write(th, a2, 1)
		core.Write(th, b2, 2)
	})
	return core.Touch(t, a) + core.Touch(t, b)
}

// escapes hands the cell to a helper that writes it: no diagnostic.
func escapes(t *core.Ctx) int {
	a, b := core.Fork2(t, func(th *core.Ctx, a2, b2 *core.Cell[int]) {
		core.Write(th, a2, 1)
		writeLater(th, b2)
	})
	return core.Touch(t, a) + core.Touch(t, b)
}

func writeLater(t *core.Ctx, c *core.Cell[int]) {
	core.Write(t, c, 2)
}

// spawned never writes the second goroutine-runtime cell.
func spawned() int {
	a, b := future.Spawn2(func(x, y *future.Cell[int]) { // want `without writing result cell "y"`
		x.Write(1)
		_ = y.Ready()
	})
	_ = b
	return a.Read()
}
