package analysis

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
)

// CodecBounds constant-folds the offset arithmetic of the binary page
// codecs (bptree's put/encodeEntry/encodeSep, kdtree's
// writeBucket/writeDir, the writeNode/readNode families of rstar and
// parttree) and verifies that every fixed-width access stays inside the
// layout the package declares:
//
//   - a codec function is one that steps an offset accumulator that was
//     initialized to a constant (`off := headerSize; ...; off += pointSize`);
//   - every access at `buf[off+k]` of width w (width inferred from the
//     put16/put32/putf32/binary.LittleEndian.* helper, or 1 for a direct
//     byte write) must satisfy k+w ≤ stride for the `off += stride` that
//     closes its record — records may not bleed into their successors;
//   - every access at a wholly constant offset c of width w must satisfy
//     c+w ≤ H, where H is the accumulator's initial constant — the page
//     header may not bleed into the record area.
//
// Together with the runtime capacity formulas (`cap = (PageSize−H)/S`,
// checked by every constructor against the store's PageSize), these two
// facts imply that every write lands inside the page: H + cap·S ≤
// PageSize. The pass checks exactly the half of that argument the
// compiler can see; offsets it cannot fold are skipped, never guessed.
// That covers a stride fetched from a codec method value and, since the
// k-d tree and the partition tree became d-dimensional, their point and
// cell records (strides 4d+4 and 8d+4, displacements 4·k): for those only
// the headers and the k-d directory's 16-byte slots are folded, and the
// rest of the argument is the constructors' run-time assertion plus the
// decoders' ErrPageCorrupt checks.
var CodecBounds = &Pass{
	Name: "codecbounds",
	Doc:  "constant-folded codec offsets must stay inside the declared header and record strides",
	AppliesTo: func(path string) bool {
		return pathHasSuffix(path, "internal/bptree") ||
			pathHasSuffix(path, "internal/kdtree") ||
			pathHasSuffix(path, "internal/rstar") ||
			pathHasSuffix(path, "internal/parttree")
	},
	Run: runCodecBounds,
}

// accessWidths maps the project's fixed-width codec helpers (and the
// encoding/binary little-endian methods) to the byte width they touch.
var accessWidths = map[string]int64{
	"put16": 2, "get16": 2, "PutUint16": 2, "Uint16": 2,
	"put32": 4, "get32": 4, "PutUint32": 4, "Uint32": 4,
	"putf32": 4, "getf32": 4,
	"put64": 8, "get64": 8, "PutUint64": 8, "Uint64": 8,
}

func runCodecBounds(pkg *Package) []Diagnostic {
	c := &codecChecker{pkg: pkg}
	for _, file := range pkg.Files {
		for _, fn := range funcBodies(file) {
			c.checkFunc(fn)
		}
	}
	return c.diags
}

type codecChecker struct {
	pkg   *Package
	diags []Diagnostic
}

// codecAccess is one fixed-width access pending a bounds check against
// the stride that closes its record.
type codecAccess struct {
	off   *types.Var // accumulator variable, nil for wholly constant offsets
	k     int64      // constant displacement from the accumulator
	width int64
	pos   token.Pos
	via   string // helper name, for the diagnostic
}

func (c *codecChecker) checkFunc(fn funcBody) {
	// Find the offset accumulators: integer variables defined from a
	// constant and stepped with += somewhere in the function.
	inits := map[*types.Var]int64{}
	stepped := map[*types.Var]bool{}
	ast.Inspect(fn.body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		switch as.Tok {
		case token.DEFINE:
			for i, lhs := range as.Lhs {
				if i >= len(as.Rhs) {
					break
				}
				id, ok := lhs.(*ast.Ident)
				if !ok || id.Name == "_" {
					continue
				}
				v, ok := c.pkg.Info.Defs[id].(*types.Var)
				if !ok {
					continue
				}
				if val, ok := c.constInt(as.Rhs[i]); ok {
					inits[v] = val
				}
			}
		case token.ADD_ASSIGN:
			if id, ok := as.Lhs[0].(*ast.Ident); ok {
				if v, ok := c.pkg.Info.Uses[id].(*types.Var); ok {
					stepped[v] = true
				}
			}
		}
		return true
	})
	// A stepped variable is only an offset accumulator if it actually
	// appears in a byte-access offset expression — otherwise chunking
	// counters (`for i := 0; ...; i += per`) masquerade as accumulators
	// and drag the header bound down to their zero init.
	usedAsOffset := c.offsetVars(fn.body)
	accs := map[*types.Var]int64{}
	headerBound := int64(-1)
	for v, init := range inits {
		if stepped[v] && usedAsOffset[v] {
			accs[v] = init
			if headerBound < 0 || init < headerBound {
				headerBound = init
			}
		}
	}
	if len(accs) == 0 {
		return // not a codec function
	}
	c.walkList(fn.body.List, accs, headerBound)
}

// offsetVars pre-scans the body for every fixed-width access and
// returns the set of variables used as the base of an access offset.
func (c *codecChecker) offsetVars(body *ast.BlockStmt) map[*types.Var]bool {
	used := map[*types.Var]bool{}
	mark := func(low ast.Expr) {
		if v, _, ok := c.splitOffset(low); ok && v != nil {
			used[v] = true
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if _, width := c.helperWidth(n); width != 0 && len(n.Args) > 0 {
				if b, ok := unparen(n.Args[0]).(*ast.SliceExpr); ok {
					mark(b.Low)
					return false
				}
			}
		case *ast.IndexExpr:
			if c.isByteSlice(n.X) {
				mark(n.Index)
			}
		}
		return true
	})
	return used
}

// walkList processes one statement list in order, accumulating pending
// accesses and checking them when the accumulator they reference is
// stepped: `off += stride` bounds everything written since the previous
// step. Branches are processed independently — in the codecs, a record's
// writes and the step that closes them always live in the same block.
func (c *codecChecker) walkList(list []ast.Stmt, accs map[*types.Var]int64, headerBound int64) {
	var pending []codecAccess
	flush := func(v *types.Var, stride int64, known bool) {
		kept := pending[:0]
		for _, a := range pending {
			if a.off != v {
				kept = append(kept, a)
				continue
			}
			if known && a.k+a.width > stride {
				c.diags = append(c.diags, c.pkg.diag("codecbounds", a.pos,
					"%s touches bytes [%s+%d, %s+%d) but the record stride is %d: the write overruns into the next record",
					a.via, v.Name(), a.k, v.Name(), a.k+a.width, stride))
			}
		}
		pending = kept
	}
	for _, s := range list {
		switch s := s.(type) {
		case *ast.AssignStmt:
			if s.Tok == token.ADD_ASSIGN && len(s.Lhs) == 1 {
				if id, ok := s.Lhs[0].(*ast.Ident); ok {
					if v, ok := c.pkg.Info.Uses[id].(*types.Var); ok {
						if _, isAcc := accs[v]; isAcc {
							stride, known := c.constInt(s.Rhs[0])
							flush(v, stride, known)
							continue
						}
					}
				}
			}
			pending = append(pending, c.extract(s, accs, headerBound)...)
		case *ast.ExprStmt:
			pending = append(pending, c.extract(s, accs, headerBound)...)
		case *ast.IfStmt:
			c.walkList(s.Body.List, accs, headerBound)
			switch e := s.Else.(type) {
			case *ast.BlockStmt:
				c.walkList(e.List, accs, headerBound)
			case *ast.IfStmt:
				c.walkList([]ast.Stmt{e}, accs, headerBound)
			}
		case *ast.ForStmt:
			c.walkList(s.Body.List, accs, headerBound)
		case *ast.RangeStmt:
			c.walkList(s.Body.List, accs, headerBound)
		case *ast.BlockStmt:
			c.walkList(s.List, accs, headerBound)
		case *ast.SwitchStmt:
			for _, clause := range s.Body.List {
				if cc, ok := clause.(*ast.CaseClause); ok {
					c.walkList(cc.Body, accs, headerBound)
				}
			}
		}
	}
	// Accesses never followed by a step in this list (trailing header
	// fix-ups like `put16(d[2:], count)` after the loop) were already
	// emitted as fixed accesses where foldable; accumulator-relative
	// leftovers have no record stride to check against and are skipped.
}

// extract pulls every fixed-width access out of one statement. Wholly
// constant offsets are checked against the header bound immediately;
// accumulator-relative ones are returned for the stride check.
func (c *codecChecker) extract(s ast.Stmt, accs map[*types.Var]int64, headerBound int64) []codecAccess {
	var out []codecAccess
	record := func(low ast.Expr, width int64, pos token.Pos, via string) {
		v, k, ok := c.splitOffset(low)
		if !ok {
			return
		}
		if v == nil {
			if headerBound >= 0 && k+width > headerBound {
				c.diags = append(c.diags, c.pkg.diag("codecbounds", pos,
					"%s touches bytes [%d, %d) but the header region is only %d bytes: the fixed field overruns the record area",
					via, k, k+width, headerBound))
			}
			return
		}
		if _, isAcc := accs[v]; isAcc {
			out = append(out, codecAccess{off: v, k: k, width: width, pos: pos, via: via})
		}
	}
	ast.Inspect(s, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			name, width := c.helperWidth(n)
			if width == 0 || len(n.Args) == 0 {
				return true
			}
			if b, ok := unparen(n.Args[0]).(*ast.SliceExpr); ok {
				record(b.Low, width, n.Pos(), name)
				return false // the slice's own byte accesses are this helper's
			}
		case *ast.IndexExpr:
			// Direct single-byte reads and writes into a []byte page
			// image: data[0] = typeLeaf, int(d[off+2]).
			if c.isByteSlice(n.X) {
				record(n.Index, 1, n.Pos(), "byte access")
			}
		}
		return true
	})
	return out
}

// isByteSlice reports whether the expression has type []byte.
func (c *codecChecker) isByteSlice(e ast.Expr) bool {
	tv, ok := c.pkg.Info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	sl, ok := tv.Type.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := sl.Elem().Underlying().(*types.Basic)
	return ok && b.Kind() == types.Byte
}

// helperWidth identifies a call to a fixed-width codec helper and
// returns its name and byte width (0 when the call is something else).
func (c *codecChecker) helperWidth(call *ast.CallExpr) (string, int64) {
	switch fun := unparen(call.Fun).(type) {
	case *ast.Ident:
		if w, ok := accessWidths[fun.Name]; ok {
			return fun.Name, w
		}
	case *ast.SelectorExpr:
		if w, ok := accessWidths[fun.Sel.Name]; ok {
			return calleeName(fun), w
		}
	}
	return "", 0
}

// splitOffset decomposes a slice/index offset expression into
// accumulator ± constant. (nil, c, true) means wholly constant;
// (v, k, true) means v+k; ok=false means not foldable.
func (c *codecChecker) splitOffset(e ast.Expr) (*types.Var, int64, bool) {
	if e == nil {
		return nil, 0, true
	}
	e = unparen(e)
	if val, ok := c.constInt(e); ok {
		return nil, val, true
	}
	if id, ok := e.(*ast.Ident); ok {
		if v, ok := c.pkg.Info.Uses[id].(*types.Var); ok {
			return v, 0, true
		}
		return nil, 0, false
	}
	bin, ok := e.(*ast.BinaryExpr)
	if !ok || (bin.Op != token.ADD && bin.Op != token.SUB) {
		return nil, 0, false
	}
	if id, ok := unparen(bin.X).(*ast.Ident); ok {
		if v, ok := c.pkg.Info.Uses[id].(*types.Var); ok {
			if k, ok := c.constInt(bin.Y); ok {
				if bin.Op == token.SUB {
					k = -k
				}
				return v, k, true
			}
		}
	}
	if bin.Op == token.ADD {
		if id, ok := unparen(bin.Y).(*ast.Ident); ok {
			if v, ok := c.pkg.Info.Uses[id].(*types.Var); ok {
				if k, ok := c.constInt(bin.X); ok {
					return v, k, true
				}
			}
		}
	}
	return nil, 0, false
}

// constInt evaluates e as a compile-time integer constant via the type
// checker's folded value.
func (c *codecChecker) constInt(e ast.Expr) (int64, bool) {
	tv, ok := c.pkg.Info.Types[e]
	if !ok || tv.Value == nil {
		return 0, false
	}
	if tv.Value.Kind() != constant.Int {
		return 0, false
	}
	v, exact := constant.Int64Val(tv.Value)
	return v, exact
}
