package analysis

import (
	"go/ast"
)

// BatchDiscipline checks that a WAL batch opened with Begin() on a
// *pager.WALStore, *pager.Buffered or *pager.FaultStore reaches a
// Commit() or Rollback() in the same function. An open batch that escapes
// the function silently stages writes forever (they are never logged, never
// become visible to snapshots, and poison the next Begin). So the pairing
// is a hard project invariant. Functions whose job *is* the batch
// machinery (Begin, Commit, Rollback, RunBatch wrappers) are exempt; a
// batch that intentionally escapes must carry a
// //mobidxlint:allow batchdiscipline annotation with a reason.
var BatchDiscipline = &Pass{
	Name: "batchdiscipline",
	Doc:  "every Begin() on a WAL-capable store must reach Commit or Rollback in the same function",
	Run:  runBatchDiscipline,
}

// batchTypes are the pager types whose Begin/Commit/Rollback triple
// forms the batch protocol. FaultStore joined when it grew Batcher
// forwarding for the sharded serving layer (a FaultStore between an
// index and its WAL must relay the protocol, so a Begin through it is as
// binding as one on the WAL itself).
var batchTypes = map[string]bool{
	"WALStore":   true,
	"Buffered":   true,
	"FaultStore": true,
}

// batchExemptFuncs implement the protocol itself and legitimately call
// one half of it.
var batchExemptFuncs = map[string]bool{
	"Begin":    true,
	"Commit":   true,
	"Rollback": true,
	"RunBatch": true,
}

func runBatchDiscipline(pkg *Package) []Diagnostic {
	var diags []Diagnostic
	for _, file := range pkg.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil || batchExemptFuncs[fn.Name.Name] {
				continue
			}
			// Collect Begin calls and look for a closing call anywhere
			// in the function, nested closures included — a deferred
			// func() { w.Rollback() }() is a valid abort path.
			var begins []*ast.CallExpr
			closes := false
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := unparen(call.Fun).(*ast.SelectorExpr)
				if !ok {
					return true
				}
				switch sel.Sel.Name {
				case "Begin":
					if tn := namedReceiver(pkg.Info, sel); tn != nil &&
						batchTypes[tn.Name()] && tn.Pkg() != nil && tn.Pkg().Name() == "pager" {
						begins = append(begins, call)
					}
				case "Commit", "Rollback":
					closes = true
				}
				return true
			})
			if closes {
				continue
			}
			for _, call := range begins {
				diags = append(diags, pkg.diag("batchdiscipline", call.Pos(),
					"batch opened with %s() never reaches Commit or Rollback in %s; "+
						"wrap the work in pager.RunBatch or close the batch on every path",
					calleeName(call.Fun), fn.Name.Name))
			}
		}
	}
	return diags
}
