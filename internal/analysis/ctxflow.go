package analysis

import (
	"go/ast"
	"go/types"
)

// CtxFlow enforces context discipline in the serving layers
// (internal/shard, internal/core), where a dropped or fabricated
// context silently detaches a query from its caller's deadline — the
// shards then keep burning reads for a caller that has long hung up.
// Three rules:
//
//   - no context.Background() / context.TODO() below the facade: the
//     root context is created by the caller, everything underneath
//     threads it. Compat wrappers that exist precisely to supply the
//     root context for context-free callers carry an allow annotation;
//   - a ctx parameter on an exported function or method must actually
//     flow: a body that never references its ctx cannot propagate
//     cancellation to the Executor or store call under it;
//   - no time.Sleep in a function that takes a ctx: a wait must select
//     on ctx.Done() (a timer select), or cancellation waits out the full
//     sleep.
var CtxFlow = &Pass{
	Name: "ctxflow",
	Doc:  "exported blocking APIs in shard/core must accept and propagate context.Context",
	AppliesTo: func(path string) bool {
		return pathHasSuffix(path, "internal/shard") || pathHasSuffix(path, "internal/core")
	},
	Run: runCtxFlow,
}

func runCtxFlow(pkg *Package) []Diagnostic {
	var diags []Diagnostic
	for _, file := range pkg.Files {
		// Rule 1: no fabricated root contexts anywhere in the package.
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := unparen(call.Fun).(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if sel.Sel.Name != "Background" && sel.Sel.Name != "TODO" {
				return true
			}
			obj := pkg.Info.Uses[sel.Sel]
			if obj == nil || obj.Pkg() == nil || obj.Pkg().Path() != "context" {
				return true
			}
			diags = append(diags, pkg.diag("ctxflow", call.Pos(),
				"context.%s() fabricated below the facade; thread the caller's ctx down instead",
				sel.Sel.Name))
			return true
		})

		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			ctxParam := ctxParamOf(pkg.Info, fn)

			// Rule 2: an exported API's ctx must flow somewhere.
			if ctxParam != nil && isExportedAPI(fn) && !identUsed(pkg.Info, fn.Body, ctxParam) {
				diags = append(diags, pkg.diag("ctxflow", fn.Pos(),
					"ctx parameter of exported %s is never used; propagate it to the calls underneath or select on ctx.Done()",
					fn.Name.Name))
			}

			// Rule 3: no uncancellable sleeps in ctx-aware functions.
			if ctxParam != nil {
				ast.Inspect(fn.Body, func(n ast.Node) bool {
					call, ok := n.(*ast.CallExpr)
					if !ok {
						return true
					}
					if sel, ok := unparen(call.Fun).(*ast.SelectorExpr); ok && sel.Sel.Name == "Sleep" {
						if id, ok := sel.X.(*ast.Ident); ok && id.Name == "time" {
							diags = append(diags, pkg.diag("ctxflow", call.Pos(),
								"time.Sleep in ctx-aware %s cannot be cancelled; use a timer select on ctx.Done()",
								fn.Name.Name))
						}
					}
					return true
				})
			}
		}
	}
	SortDiagnostics(diags)
	return diags
}

// ctxParamOf returns the *types.Var of the function's context.Context
// parameter, or nil.
func ctxParamOf(info *types.Info, fn *ast.FuncDecl) *types.Var {
	if fn.Type.Params == nil {
		return nil
	}
	for _, field := range fn.Type.Params.List {
		for _, name := range field.Names {
			obj, ok := info.Defs[name].(*types.Var)
			if !ok {
				continue
			}
			if named, ok := obj.Type().(*types.Named); ok {
				tn := named.Obj()
				if tn.Pkg() != nil && tn.Pkg().Path() == "context" && tn.Name() == "Context" {
					return obj
				}
			}
		}
	}
	return nil
}

// isExportedAPI reports whether fn is part of the package's exported
// surface: an exported function, or an exported method on an exported
// named receiver type.
func isExportedAPI(fn *ast.FuncDecl) bool {
	if !fn.Name.IsExported() {
		return false
	}
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return true
	}
	t := fn.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	if idx, ok := t.(*ast.IndexExpr); ok {
		t = idx.X
	}
	id, ok := t.(*ast.Ident)
	return ok && id.IsExported()
}

// identUsed reports whether the object is referenced anywhere in body.
func identUsed(info *types.Info, body *ast.BlockStmt, obj *types.Var) bool {
	used := false
	ast.Inspect(body, func(n ast.Node) bool {
		if used {
			return false
		}
		if id, ok := n.(*ast.Ident); ok && info.Uses[id] == obj {
			used = true
			return false
		}
		return true
	})
	return used
}
