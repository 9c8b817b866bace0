package analysis

import (
	"go/ast"
	"go/types"
)

// branchRef records one enclosing conditional arm of a program point: the
// conditional statement, which arm the point sits in, and that arm's
// statement list (for termination analysis).
type branchRef struct {
	cond ast.Node
	arm  int
	body []ast.Stmt
}

// callCtx is the control context of one expression occurrence inside a
// function body: the conditional arms and loops enclosing it, outermost
// first. Contexts are snapshotted when reported, so callbacks may retain
// them.
type callCtx struct {
	branches []branchRef
	loops    []ast.Node // *ast.ForStmt / *ast.RangeStmt
}

func (c callCtx) clone() callCtx {
	return callCtx{
		branches: append([]branchRef(nil), c.branches...),
		loops:    append([]ast.Node(nil), c.loops...),
	}
}

// armOf returns the arm index this context takes at the given conditional,
// or -1 if the conditional does not enclose it.
func (c callCtx) armOf(cond ast.Node) int {
	for _, b := range c.branches {
		if b.cond == cond {
			return b.arm
		}
	}
	return -1
}

// scopeVisitor receives the events of one scopeWalk.
type scopeVisitor struct {
	// call is invoked for every call expression, with its control context.
	call func(call *ast.CallExpr, ctx callCtx)
	// assign is invoked whenever a variable is (re)defined or assigned:
	// :=, =, op=, ++/--, and range key/value bindings.
	assign func(obj *types.Var, n ast.Node, ctx callCtx)
}

// scopeWalk walks the statements of one function body, tracking enclosing
// conditionals and loops. Nested function literals are skipped: they are
// separate single-assignment scopes and are walked on their own.
func scopeWalk(info *types.Info, body *ast.BlockStmt, v scopeVisitor) {
	w := &walker{info: info, v: v}
	w.stmts(body.List)
}

type walker struct {
	info *types.Info
	v    scopeVisitor
	ctx  callCtx
}

func (w *walker) stmts(list []ast.Stmt) {
	for _, s := range list {
		w.stmt(s)
	}
}

func (w *walker) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case nil:
	case *ast.BlockStmt:
		w.stmts(s.List)
	case *ast.IfStmt:
		w.stmt(s.Init)
		w.expr(s.Cond)
		w.arm(s, 0, s.Body.List, func() { w.stmts(s.Body.List) })
		if s.Else != nil {
			w.arm(s, 1, elseList(s.Else), func() { w.stmt(s.Else) })
		}
	case *ast.SwitchStmt:
		w.stmt(s.Init)
		w.expr(s.Tag)
		for i, c := range s.Body.List {
			cc := c.(*ast.CaseClause)
			for _, e := range cc.List {
				w.expr(e)
			}
			w.arm(s, i, cc.Body, func() { w.stmts(cc.Body) })
		}
	case *ast.TypeSwitchStmt:
		w.stmt(s.Init)
		w.stmt(s.Assign)
		for i, c := range s.Body.List {
			cc := c.(*ast.CaseClause)
			w.arm(s, i, cc.Body, func() { w.stmts(cc.Body) })
		}
	case *ast.SelectStmt:
		for i, c := range s.Body.List {
			cc := c.(*ast.CommClause)
			w.arm(s, i, cc.Body, func() {
				w.stmt(cc.Comm)
				w.stmts(cc.Body)
			})
		}
	case *ast.ForStmt:
		w.stmt(s.Init)
		w.expr(s.Cond)
		w.loop(s, func() {
			w.stmt(s.Post)
			w.stmts(s.Body.List)
		})
	case *ast.RangeStmt:
		w.expr(s.X)
		w.loop(s, func() {
			w.bind(s.Key, s)
			w.bind(s.Value, s)
			w.stmts(s.Body.List)
		})
	case *ast.LabeledStmt:
		w.stmt(s.Stmt)
	case *ast.AssignStmt:
		for _, e := range s.Rhs {
			w.expr(e)
		}
		for _, e := range s.Lhs {
			w.bind(e, s)
			// Index/selector targets still contain reads.
			if _, ok := ast.Unparen(e).(*ast.Ident); !ok {
				w.expr(e)
			}
		}
	case *ast.IncDecStmt:
		w.bind(s.X, s)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, e := range vs.Values {
						w.expr(e)
					}
					for _, name := range vs.Names {
						w.bind(name, s)
					}
				}
			}
		}
	case *ast.ExprStmt:
		w.expr(s.X)
	case *ast.SendStmt:
		w.expr(s.Chan)
		w.expr(s.Value)
	case *ast.GoStmt:
		w.expr(s.Call)
	case *ast.DeferStmt:
		w.expr(s.Call)
	case *ast.ReturnStmt:
		for _, e := range s.Results {
			w.expr(e)
		}
	case *ast.BranchStmt, *ast.EmptyStmt:
	default:
		// Conservatively scan any statement shape not handled above.
		ast.Inspect(s, func(n ast.Node) bool {
			if e, ok := n.(ast.Expr); ok {
				w.expr(e)
				return false
			}
			return true
		})
	}
}

func (w *walker) arm(cond ast.Node, i int, body []ast.Stmt, f func()) {
	w.ctx.branches = append(w.ctx.branches, branchRef{cond: cond, arm: i, body: body})
	f()
	w.ctx.branches = w.ctx.branches[:len(w.ctx.branches)-1]
}

func (w *walker) loop(l ast.Node, f func()) {
	w.ctx.loops = append(w.ctx.loops, l)
	f()
	w.ctx.loops = w.ctx.loops[:len(w.ctx.loops)-1]
}

// bind reports an assignment/definition event for a plain identifier
// target.
func (w *walker) bind(e ast.Expr, at ast.Node) {
	if e == nil {
		return
	}
	if _, obj := identNode(w.info, e); obj != nil && w.v.assign != nil {
		w.v.assign(obj, at, w.ctx.clone())
	}
}

// expr scans an expression for call expressions, pruning function
// literals.
func (w *walker) expr(e ast.Expr) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.CallExpr:
			if w.v.call != nil {
				w.v.call(n, w.ctx.clone())
			}
		}
		return true
	})
}

func elseList(s ast.Stmt) []ast.Stmt {
	if b, ok := s.(*ast.BlockStmt); ok {
		return b.List
	}
	return []ast.Stmt{s}
}

// terminates reports whether a statement list always transfers control
// out of the enclosing sequence (return, branch, or panic/fatal call) —
// used to rule out "write then fall through to second write" pairs.
func terminates(list []ast.Stmt) bool {
	if len(list) == 0 {
		return false
	}
	switch s := list[len(list)-1].(type) {
	case *ast.ReturnStmt, *ast.BranchStmt:
		return true
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok {
			switch fun := ast.Unparen(call.Fun).(type) {
			case *ast.Ident:
				return fun.Name == "panic"
			case *ast.SelectorExpr:
				name := fun.Sel.Name
				return name == "Exit" || name == "Fatal" || name == "Fatalf" || name == "Goexit"
			}
		}
	case *ast.BlockStmt:
		return terminates(s.List)
	case *ast.IfStmt:
		return s.Else != nil && terminates(s.Body.List) && terminates(elseList(s.Else))
	}
	return false
}

// scopes enumerates every function scope in the files: each declared
// function or method body and each function literal, walked independently.
func scopes(files []*ast.File, fn func(name string, body *ast.BlockStmt)) {
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Body != nil {
					fn(n.Name.Name, n.Body)
				}
			case *ast.FuncLit:
				fn("func literal", n.Body)
			}
			return true
		})
	}
}
