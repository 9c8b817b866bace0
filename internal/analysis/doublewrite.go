package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// DoubleWrite flags future cells that can be written twice. Future cells
// are single-assignment (Section 2 of the paper); the engine and the
// goroutine runtime both panic on the second write, so any double write
// the analyzer can prove reachable is a latent crash.
//
// Three shapes are reported, per function scope:
//
//  1. two writes of the same cell variable that can both execute (not in
//     mutually exclusive conditional arms, and not separated by an early
//     exit),
//  2. an unconditional write of a loop-invariant cell inside a loop
//     (written again on every iteration), and
//  3. a write to a cell created already-written by Done or NowCell.
//
// Only plain variables are tracked; writes through indexed or field
// expressions are conservatively ignored.
var DoubleWrite = &Analyzer{
	Name: "doublewrite",
	Doc: "report future cells reachable by two writes (cells are single-assignment; " +
		"the second write panics)",
	Run: runDoubleWrite,
}

type writeSite struct {
	obj *types.Var
	id  *ast.Ident
	ctx callCtx
}

func runDoubleWrite(pass *Pass) error {
	info := pass.TypesInfo
	scopes(pass.Files, func(name string, body *ast.BlockStmt) {
		var writes []writeSite
		assigns := make(map[*types.Var][]token.Pos)  // re-bindings, per variable
		prewritten := make(map[*types.Var]token.Pos) // cells born written (Done/NowCell)

		scopeWalk(info, body, scopeVisitor{
			call: func(call *ast.CallExpr, ctx callCtx) {
				for _, target := range writeTargets(info, call) {
					if id, obj := identNode(info, target); obj != nil {
						writes = append(writes, writeSite{obj: obj, id: id, ctx: ctx})
					}
				}
			},
			assign: func(obj *types.Var, at ast.Node, ctx callCtx) {
				assigns[obj] = append(assigns[obj], at.Pos())
				if as, ok := at.(*ast.AssignStmt); ok && len(as.Lhs) == len(as.Rhs) {
					for i, lhs := range as.Lhs {
						if identObj(info, lhs) != obj {
							continue
						}
						if call, ok := ast.Unparen(as.Rhs[i]).(*ast.CallExpr); ok && prewrittenCell(info, call) {
							prewritten[obj] = at.Pos()
						}
					}
				}
			},
		})

		sort.Slice(writes, func(i, j int) bool { return writes[i].id.Pos() < writes[j].id.Pos() })
		byObj := make(map[*types.Var][]writeSite)
		for _, w := range writes {
			byObj[w.obj] = append(byObj[w.obj], w)
		}

		for obj, sites := range byObj {
			// Shape 3: write to a cell that was created already written.
			if birth, ok := prewritten[obj]; ok {
				for _, w := range sites {
					if w.id.Pos() > birth {
						pass.Reportf(w.id.Pos(),
							"write to future cell %s, which was created already written by Done/NowCell: cells are single-assignment, this write panics", obj.Name())
					}
				}
			}

			// Shape 2: unconditional write of a loop-invariant cell in a loop.
			for _, w := range sites {
				if l := invariantLoop(w, obj, assigns[obj]); l != nil && unconditionalIn(w.ctx, l) {
					pass.Reportf(w.id.Pos(),
						"future cell %s is written on every iteration of the enclosing loop: cells are single-assignment, the second iteration panics", obj.Name())
					break
				}
			}

			// Shape 1: two distinct writes both reachable.
			for i := 0; i < len(sites); i++ {
				for j := i + 1; j < len(sites); j++ {
					if sequentialPair(sites[i], sites[j]) {
						pass.Reportf(sites[j].id.Pos(),
							"future cell %s may already have been written at %s: cells are single-assignment, the second write panics",
							obj.Name(), pass.Fset.Position(sites[i].id.Pos()))
					}
				}
			}
		}
	})
	return nil
}

// invariantLoop returns the outermost enclosing loop of the write site in
// which the cell variable is loop-invariant: declared outside the loop and
// never re-bound inside it. It returns nil if no such loop exists.
func invariantLoop(w writeSite, obj *types.Var, rebinds []token.Pos) ast.Node {
	for _, l := range w.ctx.loops {
		if within(obj.Pos(), l) {
			continue // cell is created inside this loop: fresh each iteration
		}
		rebound := false
		for _, p := range rebinds {
			if within(p, l) {
				rebound = true
				break
			}
		}
		if !rebound {
			return l
		}
	}
	return nil
}

// unconditionalIn reports whether the site executes on every iteration of
// loop l: no conditional between l and the site.
func unconditionalIn(ctx callCtx, l ast.Node) bool {
	for _, b := range ctx.branches {
		if within(b.cond.Pos(), l) {
			return false
		}
	}
	return true
}

// sequentialPair reports whether the two write sites (a before b in
// source) can both execute in one run of the scope: they do not sit in
// different arms of a common conditional, and no conditional arm
// containing only the first write ends by leaving the scope.
func sequentialPair(a, b writeSite) bool {
	for _, ba := range a.ctx.branches {
		if arm := b.ctx.armOf(ba.cond); arm >= 0 && arm != ba.arm {
			return false // mutually exclusive arms
		}
	}
	// Early-exit exception: if the first write is inside a conditional arm
	// (not shared with the second) that always transfers control away, the
	// path that performed the first write never reaches the second.
	for _, ba := range a.ctx.branches {
		if b.ctx.armOf(ba.cond) < 0 && terminates(ba.body) {
			return false
		}
	}
	return true
}
