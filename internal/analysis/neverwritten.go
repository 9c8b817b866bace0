package analysis

import (
	"go/ast"
	"go/types"
)

// NeverWritten flags fork bodies that can never write one of their result
// cells. Fork2/Fork3/ForkN (and future.Spawn2/3) hand the body
// explicit write capabilities; if the body neither writes a cell
// parameter nor lets it escape to code that could, the cell is
// permanently empty — every Touch/Read of it is a guaranteed deadlock
// (the cost engine panics with "fork finished without writing").
//
// A cell parameter bound to the blank identifier is the extreme case: the
// write capability is discarded at the parameter list, so the cell is
// provably unwritable.
var NeverWritten = &Analyzer{
	Name: "neverwritten",
	Doc: "report fork bodies that never write a result cell they hold the " +
		"write capability for (any touch of that cell deadlocks)",
	Run: runNeverWritten,
}

func runNeverWritten(pass *Pass) error {
	info := pass.TypesInfo
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fork, ok := forkCall(info, call)
			if !ok || fork.Body < 0 || fork.Body >= len(call.Args) {
				return true
			}
			lit, ok := ast.Unparen(call.Args[fork.Body]).(*ast.FuncLit)
			if !ok {
				return true // body built elsewhere; nothing to prove
			}
			params := fieldNames(lit.Type.Params)
			for i := fork.CellParams; i < len(params); i++ {
				name := params[i]
				if name == nil {
					continue
				}
				if name.Name == "_" {
					pass.Reportf(name.Pos(),
						"fork body discards the write capability of result cell %d (blank parameter): the cell can never be written, so any touch of it deadlocks", i-fork.CellParams+1)
					continue
				}
				obj, _ := info.Defs[name].(*types.Var)
				if obj == nil {
					continue
				}
				writes, escapes := cellUses(info, lit.Body, obj)
				if writes == 0 && escapes == 0 {
					what := "result cell parameter"
					if fork.SliceParam {
						what = "result cell slice parameter"
					}
					pass.Reportf(name.Pos(),
						"fork body never writes %s %s (and it does not escape): the cell stays empty forever, so any touch of it deadlocks", what, name.Name)
				}
			}
			return true
		})
	}
	return nil
}

// fieldNames flattens a parameter list to one identifier per parameter
// (grouped parameters like `a, b *Cell[int]` yield both names).
func fieldNames(fl *ast.FieldList) []*ast.Ident {
	var out []*ast.Ident
	if fl == nil {
		return out
	}
	for _, f := range fl.List {
		if len(f.Names) == 0 {
			out = append(out, nil) // unnamed parameter: unusable, but also unwritable
			continue
		}
		out = append(out, f.Names...)
	}
	return out
}

// cellUses classifies every use of obj inside body (including nested
// function literals): how many are writes of the cell, and how many let
// it escape (passed to an unknown call, assigned away, returned, stored
// in a composite, …). Recognized read/probe uses count as neither.
func cellUses(info *types.Info, body *ast.BlockStmt, obj *types.Var) (writes, escapes int) {
	// First mark every identifier consumed by a recognized cell operation.
	role := make(map[*ast.Ident]byte) // 'w' write, 'r' read/probe
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		for _, t := range writeTargets(info, call) {
			if id, o := identNode(info, t); o == obj {
				role[id] = 'w'
			}
		}
		for _, t := range touchTargets(info, call) {
			if id, o := identNode(info, t); o == obj {
				role[id] = 'r'
			}
		}
		for _, t := range probeTargets(info, call) {
			if id, o := identNode(info, t); o == obj {
				role[id] = 'r'
			}
		}
		return true
	})
	// Then every remaining use is an escape.
	ast.Inspect(body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok || info.Uses[id] != types.Object(obj) {
			return true
		}
		switch role[id] {
		case 'w':
			writes++
		case 'r':
		default:
			escapes++
		}
		return true
	})
	return writes, escapes
}
