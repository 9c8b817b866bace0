// Package analysis implements the framework of pipelint, a suite of
// static analyzers that check the preconditions of the paper's cost and
// machine bounds (Sections 4–5, Lemma 4.1) at compile time, and its two
// syntactic passes:
//
//   - doublewrite:   a future cell reachable by two writes (cells are
//     single-assignment; the second write panics at runtime),
//   - leakedfork:    fork result cells that are never touched, returned,
//     or passed on (dead speculative work).
//
// The flow-sensitive passes — linearity, result cells written on every
// path, inevitable deadlocks — live in internal/analysis/flow;
// cmd/pipelint runs both sets as one suite.
//
// The framework mirrors the golang.org/x/tools/go/analysis API (Analyzer,
// Pass, Diagnostic) but is built on the standard library only — the build
// environment is hermetic, so pipelint cannot depend on x/tools. The shape
// is kept compatible so the passes can be ported to a real multichecker
// with a handful of line changes if the dependency ever becomes available.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// An Analyzer describes one static analysis pass.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and on the pipelint
	// command line.
	Name string
	// Doc is the one-paragraph description printed by pipelint -help.
	Doc string
	// Run applies the analyzer to one package, reporting diagnostics
	// through the pass.
	Run func(*Pass) error
}

// A Pass provides one analyzer with the syntax, type information, and
// reporting sink for a single package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	Report    func(Diagnostic)
}

// A Diagnostic is one finding, anchored at a source position.
type Diagnostic struct {
	Pos      token.Pos
	Category string // analyzer name
	Message  string
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Category: p.Analyzer.Name, Message: fmt.Sprintf(format, args...)})
}

// All returns the syntactic analyzers, in stable order; flow.All
// returns the rest of the pipelint suite.
func All() []*Analyzer {
	return []*Analyzer{DoubleWrite, LeakedFork}
}

// NewInfo returns a types.Info with every map the analyzers consult
// allocated. Loaders must typecheck packages into an Info of this shape.
func NewInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
		Instances:  make(map[*ast.Ident]types.Instance),
	}
}

// Run applies every analyzer in suite to the package described by
// (fset, files, pkg, info) and returns the accumulated diagnostics.
//
// Files named *_test.go are excluded: the suite guards production code,
// while the repo's tests routinely violate the invariants on purpose
// (they assert that the double-write and never-written panics fire and
// that speculative forks are charged).
func Run(suite []*Analyzer, fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info) ([]Diagnostic, error) {
	kept := make([]*ast.File, 0, len(files))
	for _, f := range files {
		if !strings.HasSuffix(fset.Position(f.Pos()).Filename, "_test.go") {
			kept = append(kept, f)
		}
	}
	files = kept
	var diags []Diagnostic
	for _, a := range suite {
		a := a
		pass := &Pass{
			Analyzer:  a,
			Fset:      fset,
			Files:     files,
			Pkg:       pkg,
			TypesInfo: info,
			// Every diagnostic carries its analyzer's name, even when an
			// analyzer bypasses Reportf: machine consumers (pipelint -json
			// and the CI annotation lane) key on Category being non-empty.
			Report: func(d Diagnostic) {
				if d.Category == "" {
					d.Category = a.Name
				}
				diags = append(diags, d)
			},
		}
		if err := a.Run(pass); err != nil {
			return diags, fmt.Errorf("%s: %v", a.Name, err)
		}
	}
	return diags, nil
}
