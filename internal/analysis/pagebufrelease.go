package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"slices"
)

// BufRelease checks that every pooled buffer — inside the pager, a
// commit's frame chunk from getLogChunk, or a query's scratch from
// core.GetScratch — is returned to the pool with Release() on every path
// out of the acquiring function — including early error returns, the
// classic way a pooled buffer leaks.
// The analysis is a CFG-lite forward walk over the statement tree: it
// clones the live-buffer set at every branch, merges the states of
// branches that fall through, and reports any return reached with an
// unreleased buffer.
//
// Ownership transfers are recognized conservatively: passing the buffer
// itself (not a chunk's .B bytes, nor a call of one of the scratch's own
// methods) to another function, returning it, storing it anywhere, or
// capturing it in a closure all end tracking, so the pass never reports a
// buffer whose lifetime legitimately escapes the function.
var BufRelease = &Pass{
	Name: "pagebufrelease",
	Doc:  "every pager getLogChunk and core.GetScratch must be paired with Release() on all return paths",
	Run:  runBufRelease,
}

// bufPool is one pool the pass pairs: the package and function that take
// a buffer from it, and the selectors that use the buffer in place.
type bufPool struct {
	pkg, fn string
	uses    []string
}

var bufPools = []bufPool{
	{"pager", "getLogChunk", []string{"B"}},
	{"core", "GetScratch", []string{"RunPiecesCtx", "Merge", "Union"}},
}

func runBufRelease(pkg *Package) []Diagnostic {
	r := &bufReleaseChecker{pkg: pkg}
	for _, file := range pkg.Files {
		for _, fn := range funcBodies(file) {
			live := bufLive{}
			fallsThrough := r.stmts(fn.body.List, live)
			if fallsThrough {
				r.reportLive(live, fn.body.Rbrace, "function end")
			}
		}
	}
	return r.diags
}

// bufLive maps each tracked buffer variable to its acquisition site.
type bufLive map[*types.Var]bufAcquire

// bufAcquire is where a buffer was acquired and from which pool.
type bufAcquire struct {
	pos  token.Pos
	pool *bufPool
}

func (l bufLive) clone() bufLive {
	out := make(bufLive, len(l))
	for v, pos := range l {
		out[v] = pos
	}
	return out
}

type bufReleaseChecker struct {
	pkg   *Package
	diags []Diagnostic
}

func (r *bufReleaseChecker) reportLive(live bufLive, at token.Pos, where string) {
	for v, acq := range live {
		r.diags = append(r.diags, r.pkg.diag("pagebufrelease", at,
			"%s acquired from %s.%s at line %d is not Released on the path reaching %s",
			v.Name(), acq.pool.pkg, acq.pool.fn, r.pkg.line(acq.pos), where))
	}
}

// stmts walks a statement list, mutating live, and reports whether
// control can fall out of the end of the list.
func (r *bufReleaseChecker) stmts(list []ast.Stmt, live bufLive) bool {
	for _, s := range list {
		if !r.stmt(s, live) {
			return false
		}
	}
	return true
}

// stmt processes one statement; the return value is false when the
// statement terminates control flow (return, panic, os.Exit, ...).
func (r *bufReleaseChecker) stmt(s ast.Stmt, live bufLive) bool {
	switch s := s.(type) {
	case *ast.AssignStmt:
		r.assign(s, live)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, val := range vs.Values {
						r.escapes(val, live)
					}
				}
			}
		}
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok {
			if v := r.releaseTarget(call, live); v != nil {
				delete(live, v)
				return true
			}
			if isTerminatorCall(call) {
				// A panicking path may leak to the pool collector; that
				// is acceptable, the pool is only an optimization.
				return false
			}
		}
		r.escapes(s.X, live)
	case *ast.DeferStmt:
		if v := r.releaseTarget(s.Call, live); v != nil {
			// defer pb.Release() covers every subsequent exit.
			delete(live, v)
			return true
		}
		r.escapes(s.Call, live)
	case *ast.ReturnStmt:
		for _, res := range s.Results {
			r.escapes(res, live)
		}
		r.reportLive(live, s.Pos(), "this return")
		return false
	case *ast.IfStmt:
		if s.Init != nil {
			r.stmt(s.Init, live)
		}
		r.escapes(s.Cond, live)
		thenLive := live.clone()
		thenFT := r.stmts(s.Body.List, thenLive)
		elseLive := live.clone()
		elseFT := true
		if s.Else != nil {
			elseFT = r.stmt(s.Else, elseLive)
		}
		mergeBranches(live, []bufLive{thenLive, elseLive}, []bool{thenFT, elseFT})
		return thenFT || elseFT
	case *ast.BlockStmt:
		return r.stmts(s.List, live)
	case *ast.LabeledStmt:
		return r.stmt(s.Stmt, live)
	case *ast.ForStmt:
		if s.Init != nil {
			r.stmt(s.Init, live)
		}
		if s.Cond != nil {
			r.escapes(s.Cond, live)
		}
		r.loopBody(s.Body, live)
	case *ast.RangeStmt:
		r.escapes(s.X, live)
		r.loopBody(s.Body, live)
	case *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
		return r.caseBodies(s, live)
	case *ast.GoStmt:
		r.escapes(s.Call, live)
	case *ast.BranchStmt:
		// break/continue/goto: control leaves this list; the buffers
		// still live here stay tracked in the enclosing scope's state.
		return false
	default:
		ast.Inspect(s, func(n ast.Node) bool {
			if e, ok := n.(ast.Expr); ok {
				r.escapes(e, live)
				return false
			}
			return true
		})
	}
	return true
}

// loopBody analyzes a loop body in a cloned state: the loop may run zero
// times, so releases inside it do not count for the code after it, and a
// buffer acquired inside the body must be released before the iteration
// ends.
func (r *bufReleaseChecker) loopBody(body *ast.BlockStmt, live bufLive) {
	inner := live.clone()
	if r.stmts(body.List, inner) {
		for v, acq := range inner {
			if _, outer := live[v]; !outer {
				r.diags = append(r.diags, r.pkg.diag("pagebufrelease", acq.pos,
					"%s acquired from %s.%s is not Released by the end of the loop iteration",
					v.Name(), acq.pool.pkg, acq.pool.fn))
			}
		}
	}
}

// caseBodies handles switch/type-switch/select: each clause runs on a
// clone, and the fall-out state is the union of every clause that falls
// through plus — when there is no default — the no-match path.
func (r *bufReleaseChecker) caseBodies(s ast.Stmt, live bufLive) bool {
	var body *ast.BlockStmt
	hasDefault := false
	switch s := s.(type) {
	case *ast.SwitchStmt:
		if s.Init != nil {
			r.stmt(s.Init, live)
		}
		if s.Tag != nil {
			r.escapes(s.Tag, live)
		}
		body = s.Body
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			r.stmt(s.Init, live)
		}
		body = s.Body
	case *ast.SelectStmt:
		body = s.Body
	}
	var states []bufLive
	var falls []bool
	for _, clause := range body.List {
		var list []ast.Stmt
		switch c := clause.(type) {
		case *ast.CaseClause:
			if c.List == nil {
				hasDefault = true
			}
			for _, e := range c.List {
				r.escapes(e, live)
			}
			list = c.Body
		case *ast.CommClause:
			if c.Comm == nil {
				hasDefault = true
			}
			list = c.Body
		}
		cl := live.clone()
		states = append(states, cl)
		falls = append(falls, r.stmts(list, cl))
	}
	if !hasDefault {
		states = append(states, live.clone())
		falls = append(falls, true)
	}
	ft := false
	for _, f := range falls {
		ft = ft || f
	}
	mergeBranches(live, states, falls)
	return ft
}

// mergeBranches replaces live with the union of the branch states that
// fall through: a buffer is still owed a Release after the branch if any
// reachable path left it unreleased.
func mergeBranches(live bufLive, states []bufLive, falls []bool) {
	for v := range live {
		delete(live, v)
	}
	for i, st := range states {
		if !falls[i] {
			continue
		}
		for v, pos := range st {
			live[v] = pos
		}
	}
}

// assign tracks pool acquisitions and scans everything else on the
// statement for escapes.
func (r *bufReleaseChecker) assign(s *ast.AssignStmt, live bufLive) {
	for i, rhs := range s.Rhs {
		call, ok := unparen(rhs).(*ast.CallExpr)
		var pool *bufPool
		if ok {
			pool = r.poolAcquire(call)
		}
		if pool == nil {
			r.escapes(rhs, live)
			continue
		}
		for _, arg := range call.Args {
			r.escapes(arg, live)
		}
		if i >= len(s.Lhs) {
			continue
		}
		id, isIdent := s.Lhs[i].(*ast.Ident)
		if !isIdent {
			// Acquired into a field, slice element, ...: the buffer's
			// lifetime escapes this function; give up tracking.
			continue
		}
		if id.Name == "_" {
			r.diags = append(r.diags, r.pkg.diag("pagebufrelease", s.Pos(),
				"result of %s.%s is discarded and can never be Released", pool.pkg, pool.fn))
			continue
		}
		if v := r.objOf(id); v != nil {
			if _, tracked := live[v]; tracked {
				r.diags = append(r.diags, r.pkg.diag("pagebufrelease", s.Pos(),
					"%s is reassigned from %s.%s while still holding an unreleased buffer", v.Name(), pool.pkg, pool.fn))
			}
			live[v] = bufAcquire{s.Pos(), pool}
		}
	}
}

// escapes removes from live every tracked variable that is used in a way
// other than Release() or one of its pool's in-place uses (chunk.B,
// s.Merge(...)): such a use hands the buffer to code this pass cannot
// see, so requiring a local Release would be wrong.
func (r *bufReleaseChecker) escapes(e ast.Expr, live bufLive) {
	if e == nil || len(live) == 0 {
		return
	}
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			// Release and the pool's in-place uses are the blessed
			// selectors; anything else selected from a tracked variable
			// is an escape.
			if id, ok := unparen(n.X).(*ast.Ident); ok {
				if v := r.objOf(id); v != nil {
					if acq, tracked := live[v]; tracked {
						if n.Sel.Name == "Release" || slices.Contains(acq.pool.uses, n.Sel.Name) {
							return false
						}
						delete(live, v)
						return false
					}
				}
			}
		case *ast.Ident:
			if v := r.objOf(n); v != nil {
				if _, tracked := live[v]; tracked {
					delete(live, v)
				}
			}
		}
		return true
	}
	ast.Inspect(e, walk)
}

// releaseTarget returns the tracked variable released by a pb.Release()
// call, or nil when the call is something else.
func (r *bufReleaseChecker) releaseTarget(call *ast.CallExpr, live bufLive) *types.Var {
	sel, ok := unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Release" || len(call.Args) != 0 {
		return nil
	}
	id, ok := unparen(sel.X).(*ast.Ident)
	if !ok {
		return nil
	}
	v := r.objOf(id)
	if v == nil {
		return nil
	}
	if _, tracked := live[v]; !tracked {
		return nil
	}
	return v
}

// poolAcquire returns the pool whose taking function the call resolves
// to, or nil for any other call.
func (r *bufReleaseChecker) poolAcquire(call *ast.CallExpr) *bufPool {
	var id *ast.Ident
	switch fun := unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	obj := r.pkg.Info.Uses[id]
	if obj == nil || obj.Pkg() == nil {
		return nil
	}
	for i, p := range bufPools {
		if obj.Pkg().Name() == p.pkg && obj.Name() == p.fn {
			return &bufPools[i]
		}
	}
	return nil
}

func (r *bufReleaseChecker) objOf(id *ast.Ident) *types.Var {
	obj := r.pkg.Info.Uses[id]
	if obj == nil {
		obj = r.pkg.Info.Defs[id]
	}
	v, _ := obj.(*types.Var)
	return v
}

func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}

// isTerminatorCall reports whether the call never returns: builtin
// panic, os.Exit, log.Fatal*, runtime.Goexit.
func isTerminatorCall(call *ast.CallExpr) bool {
	switch fun := unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name == "panic"
	case *ast.SelectorExpr:
		pkg, ok := fun.X.(*ast.Ident)
		if !ok {
			return false
		}
		switch pkg.Name + "." + fun.Sel.Name {
		case "os.Exit", "log.Fatal", "log.Fatalf", "log.Fatalln", "runtime.Goexit":
			return true
		}
	}
	return false
}
