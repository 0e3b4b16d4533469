// Package analysis implements mobidxlint, the project-invariant
// static-analysis suite. Every pass encodes one hand-maintained
// correctness convention of the codebase as a machine check:
//
//   - pagebufrelease — every pooled buffer (the pager's commit frame
//     chunk from getLogChunk, core's query scratch from GetScratch) is
//     paired with Release() on all return paths (CFG-lite escape
//     analysis);
//   - batchdiscipline — every Begin() on a WAL-capable store reaches
//     Commit or Rollback in the same function;
//   - codecbounds — constant-folded page-codec offset arithmetic stays
//     inside the declared header and record strides of the page layout;
//   - floateq — no ==/!=/switch on float operands in the geometry and
//     dual-transform packages outside the approved epsilon helpers;
//   - errdrop — stricter-than-vet unchecked-error detection;
//   - nopanic — library packages never call panic directly;
//   - lockorder — per-package lock-acquisition graph: no inconsistent
//     acquisition order (deadlock cycles), no locks held across
//     blocking calls (fsync, channel ops, sleeps, waits);
//   - atomicmix — a struct field accessed via sync/atomic is never
//     also read or written plainly;
//   - ctxflow — exported blocking APIs in the serving layers accept
//     and propagate context.Context (no fabricated root contexts, no
//     dropped ctx params, no uncancellable sleeps);
//   - gorolifecycle — every goroutine in internal/ has a provable join
//     (WaitGroup) or stop (quit/ctx.Done select) path.
//
// The suite is built on the standard library only (go/parser, go/ast,
// go/types, go/importer); package discovery and export data come from
// `go list -export -deps -json`. Diagnostics are position-accurate and
// can be suppressed, one line at a time, with an annotation:
//
//	//mobidxlint:allow <pass>[,<pass>...] -- <reason>
//
// placed on the offending line or the line immediately above it. The
// reason is mandatory by convention: an allow without a why does not
// survive review.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Pass is one self-contained invariant check.
type Pass struct {
	// Name is the pass identifier used in diagnostics, -passes filters
	// and //mobidxlint:allow annotations.
	Name string
	// Doc is a one-line description of the invariant the pass encodes.
	Doc string
	// AppliesTo reports whether the pass runs on the package with the
	// given import path. A nil AppliesTo means every package.
	AppliesTo func(importPath string) bool
	// Run executes the pass and returns its findings.
	Run func(pkg *Package) []Diagnostic
}

// Diagnostic is one finding, anchored to a source position.
type Diagnostic struct {
	Pass    string
	File    string
	Line    int
	Col     int
	Message string
}

// String renders the diagnostic in the conventional file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.File, d.Line, d.Col, d.Pass, d.Message)
}

// Package is a parsed and type-checked package, the unit a Pass runs on.
type Package struct {
	Path  string
	Name  string
	Fset  *token.FileSet
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
}

// diag is the helper passes use to build a Diagnostic at a token.Pos.
func (p *Package) diag(pass string, pos token.Pos, format string, args ...any) Diagnostic {
	position := p.Fset.Position(pos)
	return Diagnostic{
		Pass:    pass,
		File:    position.Filename,
		Line:    position.Line,
		Col:     position.Column,
		Message: fmt.Sprintf(format, args...),
	}
}

// position is a convenience for messages that reference a second location.
func (p *Package) line(pos token.Pos) int { return p.Fset.Position(pos).Line }

// AllowDirective is the annotation prefix recognized by the suite.
const AllowDirective = "//mobidxlint:allow"

// allowKey identifies one suppressed (file, line, pass) combination.
type allowKey struct {
	file string
	line int
	pass string
}

// allowSet collects every line-level suppression in a package. A
// directive on line L suppresses diagnostics of the named passes on
// lines L and L+1, so it can sit at the end of the offending line or on
// its own line directly above.
func buildAllowSet(pkg *Package) map[allowKey]bool {
	set := map[allowKey]bool{}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := c.Text
				if !strings.HasPrefix(text, AllowDirective) {
					continue
				}
				rest := strings.TrimPrefix(text, AllowDirective)
				if reason := strings.SplitN(rest, "--", 2); len(reason) > 0 {
					rest = reason[0]
				}
				pos := pkg.Fset.Position(c.Pos())
				for _, pass := range strings.Split(rest, ",") {
					pass = strings.TrimSpace(pass)
					if pass == "" {
						continue
					}
					set[allowKey{pos.Filename, pos.Line, pass}] = true
					set[allowKey{pos.Filename, pos.Line + 1, pass}] = true
				}
			}
		}
	}
	return set
}

// RunPasses applies every pass to every package it applies to, drops
// diagnostics suppressed by //mobidxlint:allow annotations, and returns
// the remainder in deterministic (file, line, col, pass) order.
func RunPasses(pkgs []*Package, passes []*Pass) []Diagnostic {
	var out []Diagnostic
	for _, pkg := range pkgs {
		allow := buildAllowSet(pkg)
		for _, pass := range passes {
			if pass.AppliesTo != nil && !pass.AppliesTo(pkg.Path) {
				continue
			}
			for _, d := range pass.Run(pkg) {
				if allow[allowKey{d.File, d.Line, d.Pass}] || allow[allowKey{d.File, d.Line, "all"}] {
					continue
				}
				out = append(out, d)
			}
		}
	}
	SortDiagnostics(out)
	return out
}

// SortDiagnostics orders diagnostics deterministically by (file, line,
// col, pass) — the order RunPasses emits and the goldens pin down. The
// CLI re-sorts after per-pass timed runs with it.
func SortDiagnostics(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Pass < b.Pass
	})
}

// All returns the full pass suite in stable order.
func All() []*Pass {
	return []*Pass{
		BufRelease,
		BatchDiscipline,
		CodecBounds,
		FloatEq,
		ErrDrop,
		NoPanic,
		LockOrder,
		AtomicMix,
		CtxFlow,
		GoroLifecycle,
	}
}

// ByName resolves a comma-separated pass list; "all" (or empty) selects
// the whole suite.
func ByName(names string) ([]*Pass, error) {
	if names == "" || names == "all" {
		return All(), nil
	}
	byName := map[string]*Pass{}
	for _, p := range All() {
		byName[p.Name] = p
	}
	var out []*Pass
	for _, name := range strings.Split(names, ",") {
		name = strings.TrimSpace(name)
		p, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("unknown pass %q", name)
		}
		out = append(out, p)
	}
	return out, nil
}

// pathHasSuffix reports whether an import path is exactly suffix or ends
// with "/"+suffix — the matching used by AppliesTo filters so that the
// checks bind to package identity rather than to the module name.
func pathHasSuffix(path, suffix string) bool {
	return path == suffix || strings.HasSuffix(path, "/"+suffix)
}

// funcBodies returns every function body in the file, one entry per
// *ast.FuncDecl and per *ast.FuncLit, paired with the function's name
// ("" for literals). Passes that analyze one function at a time iterate
// over this instead of re-implementing the traversal.
type funcBody struct {
	name string
	body *ast.BlockStmt
	pos  token.Pos
}

func funcBodies(file *ast.File) []funcBody {
	var out []funcBody
	ast.Inspect(file, func(n ast.Node) bool {
		switch fn := n.(type) {
		case *ast.FuncDecl:
			if fn.Body != nil {
				out = append(out, funcBody{name: fn.Name.Name, body: fn.Body, pos: fn.Pos()})
			}
		case *ast.FuncLit:
			out = append(out, funcBody{name: "", body: fn.Body, pos: fn.Pos()})
		}
		return true
	})
	return out
}

// calleeName renders a call's function expression for diagnostics:
// "pkg.F", "recv.Method" or "f".
func calleeName(fun ast.Expr) string {
	switch e := fun.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		if x, ok := e.X.(*ast.Ident); ok {
			return x.Name + "." + e.Sel.Name
		}
		return "(...)." + e.Sel.Name
	case *ast.IndexExpr:
		return calleeName(e.X)
	case *ast.ParenExpr:
		return calleeName(e.X)
	}
	return "call"
}

// namedReceiver resolves the defined (named) type of a method call
// receiver, dereferencing one level of pointer. Returns nil when the
// receiver is not a named or interface type.
func namedReceiver(info *types.Info, sel *ast.SelectorExpr) *types.TypeName {
	tv, ok := info.Types[sel.X]
	if !ok {
		return nil
	}
	t := tv.Type
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj()
	}
	return nil
}
