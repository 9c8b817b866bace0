package flow

import (
	"go/types"

	"pipefut/internal/analysis"
	"pipefut/internal/ssa"
)

// MustWrite checks the producer side of every fork whose body receives
// explicit result cells (Fork2/Fork3/ForkN, Spawn2/Spawn3):
// each result cell must be written on every path through the body, or a
// consumer touching it blocks forever. A cell that escapes the body
// (returned, stored, handed to an untracked callee or a nested
// producer) is treated as handled — the analyzer cannot prove the write
// is missing. Paths that panic, and bodies that never return normally,
// carry no obligation. This subsumes the syntactic neverwritten check
// with branch- and call-aware reasoning.
var MustWrite = &analysis.Analyzer{
	Name: "mustwrite",
	Doc: "report fork bodies that may complete without writing one of " +
		"their result cells on some path",
	Run: runMustWrite,
}

func runMustWrite(pass *analysis.Pass) error {
	ps := stateFor(pass)
	reported := map[*types.Var]bool{}
	for _, fn := range ps.prog.Funcs {
		for _, b := range fn.Blocks {
			for _, in := range b.Instrs {
				if in.Op != ssa.OpFork {
					continue
				}
				body := in.Fork.Body
				if body == nil || len(body.Blocks) == 0 {
					continue
				}
				bs := ps.sum.Of(body)
				for _, rp := range cellResultParams(in.Fork.Info) {
					j := rp[1]
					if j >= len(body.Params) || reported[body.Params[j]] {
						continue
					}
					ok := true
					if in.Fork.Info.SliceParam {
						// Element writes land on distinct per-site views,
						// which a must-intersection over branches would
						// spuriously drop — any possible write discharges
						// the slice obligation, matching the syntactic
						// check this analyzer subsumes.
						ok = j < len(bs.ParamMayWrite) && bs.ParamMayWrite[j]
					} else {
						ok = j < len(bs.ParamMustWrite) && bs.ParamMustWrite[j]
					}
					if ok {
						continue
					}
					reported[body.Params[j]] = true
					p := body.Params[j]
					if in.Fork.Info.SliceParam {
						pass.Reportf(p.Pos(), "fork body never writes into result cell slice %q: touching its cells will block forever", p.Name())
					} else {
						pass.Reportf(p.Pos(), "fork body may complete without writing result cell %q on some path: touching it will block forever", p.Name())
					}
				}
			}
		}
	}
	return nil
}
