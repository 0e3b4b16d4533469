package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"sort"
	"strings"
)

// LockOrder builds a per-package lock-acquisition graph over sync.Mutex
// and sync.RWMutex values and reports two classes of hazard the race
// detector cannot see:
//
//   - inconsistent acquisition order: lock A is (transitively, through
//     same-package calls) acquired while B is held on one path and B
//     while A is held on another — the classic two-goroutine deadlock;
//     a lock acquired while an acquisition of the same lock is already
//     pending is the one-goroutine special case;
//   - a lock held across a blocking operation: a Sync/fsync (any
//     Sync() or SyncLog() call), a channel send or receive outside a
//     select with a default clause, a select with no default,
//     time.Sleep, a WaitGroup.Wait, or a sync.Cond.Wait taken with more
//     than one lock held (Wait releases only the cond's own lock). Under
//     a contended latch each of these turns one slow goroutine into a
//     convoy. A writer latch (writerLatches) is exempt: no reader takes
//     it, and serialising writers across their I/O is its purpose, so
//     only the other locks held at a blocking site count.
//
// Lock identity is (receiver type, field) — two instances of the same
// type share an identity, so hand-over-hand patterns over sibling
// instances are reported conservatively and need an annotation when the
// instances are provably distinct. The walk is CFG-lite and linear:
// branch bodies are analyzed with a cloned held-set, defer Unlock keeps
// the lock held to function end, goroutine bodies start with an empty
// held-set. Calls into other packages are opaque (documented blind
// spot: a cycle that closes through a callback or an interface cannot
// be seen here).
//
// The serving stack's latch hierarchy is router topology latch
// (Router.topoMu) → subscription feed latch (Router.feedMu) → shard
// writer latch (Shard.wmu) → serving latch (Shard.mu) → WALStore.mu →
// FileStore.mu, with the subscription engine's mutex below the feed
// latch. The edges down to Shard.mu lie inside internal/shard and are
// checked here: taking the feed latch under a shard latch, or the writer
// latch under the serving latch, is a cycle. The others cross packages,
// where the hierarchy holds by construction — the pager and the engine
// never call up into the shard, and WALStore and FileStore hold their
// latches across no fsync: a checkpoint's I/O, a commit's log sync and a
// FileStore Sync run with the latch released and park their contenders
// on a sync.Cond. (A commit's log append, a write into the page cache,
// stays under WALStore.mu so the log keeps LSN order.) A shard batch's
// deferred log sync (WALStore.SyncLog) runs under Shard.wmu alone; a
// call made under Shard.mu is reported.
var LockOrder = &Pass{
	Name: "lockorder",
	Doc:  "per-package lock-acquisition graph: no order cycles, no locks held across blocking calls",
	AppliesTo: func(path string) bool {
		return pathHasSuffix(path, "internal/pager") ||
			pathHasSuffix(path, "internal/shard") ||
			pathHasSuffix(path, "internal/subscribe") ||
			pathHasSuffix(path, "internal/ingest")
	},
	Run: runLockOrder,
}

// lockKey names one lock: "Type.field" for a mutex field, "pkg.var" for
// a package-level mutex, "func:name" for a function-local one.
type lockKey string

// writerLatches are the latches only writers take: the shard's writer
// latch, held across a batch's log sync and checkpoint, and the cluster's
// admin latch, held across a split's or revive's bulk loads. Blocking
// under one of them alone is not reported.
var writerLatches = map[lockKey]bool{"Shard.wmu": true, "Cluster.adminMu": true}

// lockEdge is one observed ordering: to was acquired while from was held.
type lockEdge struct {
	from, to lockKey
	pos      token.Pos // acquisition (or call) site establishing the edge
	via      string    // "" for a direct nested acquire, else the callee chain
}

// lockCall is a same-package call made while locks were held.
type lockCall struct {
	callee string // function key: "Type.method" or "func"
	held   []lockKey
	pos    token.Pos
}

// blockSite is a potentially blocking operation and the locks held at it.
type blockSite struct {
	desc     string
	held     []lockKey
	pos      token.Pos
	condWait bool // only a hazard when ≥2 locks are held
}

// lockFunc is the per-function summary the fixed point runs on.
type lockFunc struct {
	key      string
	acquires map[lockKey]token.Pos // every direct Lock/RLock in the body
	calls    []lockCall
	blocks   []blockSite
	mayBlock string // non-empty: why this function may block (first cause)
}

type lockChecker struct {
	pkg   *Package
	funcs map[string]*lockFunc
	order []string // function keys in source order (determinism)
	edges []lockEdge
}

func runLockOrder(pkg *Package) []Diagnostic {
	c := &lockChecker{pkg: pkg, funcs: map[string]*lockFunc{}}
	for _, file := range pkg.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			key := funcKey(fn)
			lf := &lockFunc{key: key, acquires: map[lockKey]token.Pos{}}
			c.funcs[key] = lf
			c.order = append(c.order, key)
			w := &lockWalker{c: c, fn: lf}
			w.stmts(fn.Body.List, map[lockKey]token.Pos{})
		}
	}
	c.propagate()
	return c.report()
}

// funcKey renders a FuncDecl's package-unique name: "Type.method" or "fn".
func funcKey(fn *ast.FuncDecl) string {
	if fn.Recv != nil && len(fn.Recv.List) > 0 {
		t := fn.Recv.List[0].Type
		if star, ok := t.(*ast.StarExpr); ok {
			t = star.X
		}
		if idx, ok := t.(*ast.IndexExpr); ok { // generic receiver
			t = idx.X
		}
		if id, ok := t.(*ast.Ident); ok {
			return id.Name + "." + fn.Name.Name
		}
	}
	return fn.Name.Name
}

// lockWalker is the linear CFG-lite traversal of one function body.
type lockWalker struct {
	c  *lockChecker
	fn *lockFunc
}

func heldKeys(held map[lockKey]token.Pos) []lockKey {
	out := make([]lockKey, 0, len(held))
	for k := range held {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func cloneHeld(held map[lockKey]token.Pos) map[lockKey]token.Pos {
	out := make(map[lockKey]token.Pos, len(held))
	for k, v := range held {
		out[k] = v
	}
	return out
}

func (w *lockWalker) stmts(list []ast.Stmt, held map[lockKey]token.Pos) {
	for _, s := range list {
		w.stmt(s, held)
	}
}

func (w *lockWalker) stmt(s ast.Stmt, held map[lockKey]token.Pos) {
	switch s := s.(type) {
	case *ast.ExprStmt:
		w.scanExpr(s.X, held)
	case *ast.SendStmt:
		w.scanExpr(s.Chan, held)
		w.scanExpr(s.Value, held)
		w.block("channel send", s.Arrow, held, false)
	case *ast.AssignStmt:
		for _, e := range s.Rhs {
			w.scanExpr(e, held)
		}
		for _, e := range s.Lhs {
			w.scanExpr(e, held)
		}
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						w.scanExpr(v, held)
					}
				}
			}
		}
	case *ast.DeferStmt:
		// defer mu.Unlock() keeps the lock held to function end, which
		// is exactly how the walk already models it: do nothing. Any
		// other deferred call runs at return time under an unknowable
		// lock state; record same-package callees with no held locks so
		// their acquisitions still feed the transitive graph.
		if kind, _ := w.lockOp(s.Call); kind == lockOpUnlock {
			return
		}
		w.scanCall(s.Call, map[lockKey]token.Pos{})
	case *ast.GoStmt:
		// The goroutine starts with its own (empty) lock state.
		for _, arg := range s.Call.Args {
			w.scanExpr(arg, map[lockKey]token.Pos{})
		}
		if lit, ok := unparen(s.Call.Fun).(*ast.FuncLit); ok {
			w.stmts(lit.Body.List, map[lockKey]token.Pos{})
		}
	case *ast.ReturnStmt:
		for _, e := range s.Results {
			w.scanExpr(e, held)
		}
	case *ast.IfStmt:
		if s.Init != nil {
			w.stmt(s.Init, held)
		}
		w.scanExpr(s.Cond, held)
		w.stmts(s.Body.List, cloneHeld(held))
		if s.Else != nil {
			w.stmt(s.Else, cloneHeld(held))
		}
	case *ast.ForStmt:
		if s.Init != nil {
			w.stmt(s.Init, held)
		}
		if s.Cond != nil {
			w.scanExpr(s.Cond, held)
		}
		body := cloneHeld(held)
		w.stmts(s.Body.List, body)
		if s.Post != nil {
			w.stmt(s.Post, body)
		}
	case *ast.RangeStmt:
		if tv, ok := w.c.pkg.Info.Types[s.X]; ok {
			if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
				w.block("range over channel", s.For, held, false)
			}
		}
		w.scanExpr(s.X, held)
		w.stmts(s.Body.List, cloneHeld(held))
	case *ast.BlockStmt:
		w.stmts(s.List, held)
	case *ast.LabeledStmt:
		w.stmt(s.Stmt, held)
	case *ast.SwitchStmt:
		if s.Init != nil {
			w.stmt(s.Init, held)
		}
		if s.Tag != nil {
			w.scanExpr(s.Tag, held)
		}
		for _, clause := range s.Body.List {
			if cc, ok := clause.(*ast.CaseClause); ok {
				for _, e := range cc.List {
					w.scanExpr(e, held)
				}
				w.stmts(cc.Body, cloneHeld(held))
			}
		}
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			w.stmt(s.Init, held)
		}
		for _, clause := range s.Body.List {
			if cc, ok := clause.(*ast.CaseClause); ok {
				w.stmts(cc.Body, cloneHeld(held))
			}
		}
	case *ast.SelectStmt:
		w.selectStmt(s, held)
	}
}

// selectStmt treats a select with a default clause as non-blocking (its
// comm cases are attempts); one without is itself a blocking point.
func (w *lockWalker) selectStmt(s *ast.SelectStmt, held map[lockKey]token.Pos) {
	hasDefault := false
	for _, clause := range s.Body.List {
		if cc, ok := clause.(*ast.CommClause); ok && cc.Comm == nil {
			hasDefault = true
		}
	}
	if !hasDefault {
		w.block("select with no default clause", s.Select, held, false)
	}
	for _, clause := range s.Body.List {
		cc, ok := clause.(*ast.CommClause)
		if !ok {
			continue
		}
		// The comm statements themselves are covered by the select-level
		// verdict; scan them only for nested calls and lock ops.
		if cc.Comm != nil {
			ast.Inspect(cc.Comm, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok {
					w.scanCall(call, held)
					return false
				}
				return true
			})
		}
		w.stmts(cc.Body, cloneHeld(held))
	}
}

// scanExpr walks an expression in evaluation order, handling lock
// operations, blocking receives, same-package calls, and nested
// function literals (walked with an empty held-set: when they run, and
// under which locks, is unknowable here — their acquisitions still feed
// the per-function summary).
func (w *lockWalker) scanExpr(e ast.Expr, held map[lockKey]token.Pos) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			w.scanCall(n, held)
			return false
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				w.block("channel receive", n.OpPos, held, false)
			}
		case *ast.FuncLit:
			w.stmts(n.Body.List, map[lockKey]token.Pos{})
			return false
		}
		return true
	})
}

type lockOpKind int

const (
	lockOpNone lockOpKind = iota
	lockOpLock
	lockOpUnlock
)

// lockOp classifies a call as Lock/RLock or Unlock/RUnlock on a
// sync.Mutex or sync.RWMutex and resolves the lock's identity.
func (w *lockWalker) lockOp(call *ast.CallExpr) (lockOpKind, lockKey) {
	sel, ok := unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return lockOpNone, ""
	}
	var kind lockOpKind
	switch sel.Sel.Name {
	case "Lock", "RLock":
		kind = lockOpLock
	case "Unlock", "RUnlock":
		kind = lockOpUnlock
	default:
		return lockOpNone, ""
	}
	tv, ok := w.c.pkg.Info.Types[sel.X]
	if !ok || !isMutexType(tv.Type) {
		return lockOpNone, ""
	}
	return kind, w.lockIdent(sel.X)
}

func isMutexType(t types.Type) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil || named.Obj().Pkg().Path() != "sync" {
		return false
	}
	return named.Obj().Name() == "Mutex" || named.Obj().Name() == "RWMutex"
}

// lockIdent names the mutex expression: field selectors become
// "OwnerType.field", package vars "pkg.var", locals "func:var".
func (w *lockWalker) lockIdent(e ast.Expr) lockKey {
	switch e := unparen(e).(type) {
	case *ast.SelectorExpr:
		if tn := namedReceiver(w.c.pkg.Info, e); tn != nil {
			return lockKey(tn.Name() + "." + e.Sel.Name)
		}
		return lockKey("(...)." + e.Sel.Name)
	case *ast.Ident:
		if obj := w.objOf(e); obj != nil {
			if obj.Parent() == w.c.pkg.Pkg.Scope() {
				return lockKey(w.c.pkg.Name + "." + e.Name)
			}
		}
		return lockKey(w.fn.key + ":" + e.Name)
	}
	return lockKey("lock")
}

func (w *lockWalker) objOf(id *ast.Ident) types.Object {
	if obj := w.c.pkg.Info.Uses[id]; obj != nil {
		return obj
	}
	return w.c.pkg.Info.Defs[id]
}

// scanCall handles one call expression: lock ops mutate held, blocking
// calls are recorded against held, same-package callees are recorded
// for the transitive fixed point. Arguments are scanned first
// (evaluation order).
func (w *lockWalker) scanCall(call *ast.CallExpr, held map[lockKey]token.Pos) {
	for _, arg := range call.Args {
		w.scanExpr(arg, held)
	}
	if kind, key := w.lockOp(call); kind != lockOpNone {
		switch kind {
		case lockOpLock:
			if _, already := w.fn.acquires[key]; !already {
				w.fn.acquires[key] = call.Pos()
			}
			for from := range held {
				w.c.addEdgeFrom(w.fn, from, key, call.Pos(), "")
			}
			held[key] = call.Pos()
		case lockOpUnlock:
			delete(held, key)
		}
		return
	}
	if desc, condWait := blockingCall(w.c.pkg.Info, call); desc != "" {
		w.block(desc, call.Pos(), held, condWait)
		return
	}
	if callee := w.samePackageCallee(call); callee != "" {
		w.fn.calls = append(w.fn.calls, lockCall{callee: callee, held: heldKeys(held), pos: call.Pos()})
	}
	if lit, ok := unparen(call.Fun).(*ast.FuncLit); ok {
		// Immediately-invoked literal: runs right here, under held.
		w.stmts(lit.Body.List, cloneHeld(held))
	}
}

// block records a blocking operation and the locks held across it.
func (w *lockWalker) block(desc string, pos token.Pos, held map[lockKey]token.Pos, condWait bool) {
	w.fn.blocks = append(w.fn.blocks, blockSite{desc: desc, held: heldKeys(held), pos: pos, condWait: condWait})
	if w.fn.mayBlock == "" && !condWait {
		w.fn.mayBlock = desc
	}
}

// blockingCall classifies calls that can park the goroutine: any .Sync()
// or .SyncLog() (fsync discipline), time.Sleep, WaitGroup.Wait, Cond.Wait.
func blockingCall(info *types.Info, call *ast.CallExpr) (desc string, condWait bool) {
	sel, ok := unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	switch sel.Sel.Name {
	case "Sync", "SyncLog":
		if len(call.Args) == 0 {
			return "blocking call " + calleeName(call.Fun) + "() (fsync)", false
		}
	case "Sleep":
		if id, ok := sel.X.(*ast.Ident); ok && id.Name == "time" {
			return "time.Sleep", false
		}
	case "Wait":
		if tn := namedReceiver(info, sel); tn != nil && tn.Pkg() != nil && tn.Pkg().Path() == "sync" {
			switch tn.Name() {
			case "WaitGroup":
				return "sync.WaitGroup.Wait", false
			case "Cond":
				return "sync.Cond.Wait", true
			}
		}
	}
	return "", false
}

// samePackageCallee resolves a call to a function or method declared in
// this package, returning its funcKey ("" otherwise).
func (w *lockWalker) samePackageCallee(call *ast.CallExpr) string {
	switch fun := unparen(call.Fun).(type) {
	case *ast.Ident:
		if obj, ok := w.c.pkg.Info.Uses[fun].(*types.Func); ok && obj.Pkg() == w.c.pkg.Pkg {
			return obj.Name()
		}
	case *ast.SelectorExpr:
		if obj, ok := w.c.pkg.Info.Uses[fun.Sel].(*types.Func); ok && obj.Pkg() == w.c.pkg.Pkg {
			if recv := obj.Type().(*types.Signature).Recv(); recv != nil {
				t := recv.Type()
				if ptr, ok := t.(*types.Pointer); ok {
					t = ptr.Elem()
				}
				if named, ok := t.(*types.Named); ok {
					return named.Obj().Name() + "." + obj.Name()
				}
			}
			return obj.Name()
		}
	}
	return ""
}

// addEdgeFrom records a direct ordering edge observed inside fn.
func (c *lockChecker) addEdgeFrom(fn *lockFunc, from, to lockKey, pos token.Pos, via string) {
	c.edges = append(c.edges, lockEdge{from: from, to: to, pos: pos, via: via})
}

func (c *lockChecker) propagate() {
	// Transitive lock acquisition: acquiresAll(f) = direct ∪ callees'.
	acquiresAll := map[string]map[lockKey]bool{}
	for key, lf := range c.funcs {
		set := map[lockKey]bool{}
		for k := range lf.acquires {
			set[k] = true
		}
		acquiresAll[key] = set
	}
	for changed := true; changed; {
		changed = false
		for _, key := range c.order {
			lf := c.funcs[key]
			set := acquiresAll[key]
			for _, call := range lf.calls {
				for k := range acquiresAll[call.callee] {
					if !set[k] {
						set[k] = true
						changed = true
					}
				}
			}
		}
	}
	// Transitive may-block with one representative cause.
	for changed := true; changed; {
		changed = false
		for _, key := range c.order {
			lf := c.funcs[key]
			if lf.mayBlock != "" {
				continue
			}
			for _, call := range lf.calls {
				if callee, ok := c.funcs[call.callee]; ok && callee.mayBlock != "" {
					lf.mayBlock = call.callee + ": " + callee.mayBlock
					changed = true
					break
				}
			}
		}
	}
	// Expand call sites into edges and call-level blocking findings.
	for _, key := range c.order {
		lf := c.funcs[key]
		for _, call := range lf.calls {
			if len(call.held) == 0 {
				continue
			}
			for k := range acquiresAll[call.callee] {
				for _, from := range call.held {
					c.edges = append(c.edges, lockEdge{from: from, to: k, pos: call.pos, via: call.callee})
				}
			}
			if callee, ok := c.funcs[call.callee]; ok && callee.mayBlock != "" {
				lf.blocks = append(lf.blocks, blockSite{
					desc: "call to " + call.callee + ", which may block (" + callee.mayBlock + ")",
					held: call.held,
					pos:  call.pos,
				})
			}
		}
	}
}

func (c *lockChecker) report() []Diagnostic {
	var diags []Diagnostic

	// Deduplicate edges keeping the first (lowest-position) witness.
	type edgeID struct{ from, to lockKey }
	best := map[edgeID]lockEdge{}
	var ids []edgeID
	for _, e := range c.edges {
		id := edgeID{e.from, e.to}
		if prev, ok := best[id]; !ok || e.pos < prev.pos {
			if !ok {
				ids = append(ids, id)
			}
			best[id] = e
		}
	}
	sort.Slice(ids, func(i, j int) bool {
		if ids[i].from != ids[j].from {
			return ids[i].from < ids[j].from
		}
		return ids[i].to < ids[j].to
	})

	adj := map[lockKey][]lockKey{}
	for _, id := range ids {
		adj[id.from] = append(adj[id.from], id.to)
	}
	reachable := func(from, to lockKey) bool {
		seen := map[lockKey]bool{}
		stack := []lockKey{from}
		for len(stack) > 0 {
			k := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if k == to {
				return true
			}
			if seen[k] {
				continue
			}
			seen[k] = true
			stack = append(stack, adj[k]...)
		}
		return false
	}

	for _, id := range ids {
		e := best[id]
		via := ""
		if e.via != "" {
			via = " (via " + e.via + ")"
		}
		if id.from == id.to {
			diags = append(diags, c.pkg.diag("lockorder", e.pos,
				"%s is acquired%s while an acquisition of %s is already held — self-deadlock if both are the same instance",
				id.to, via, id.from))
			continue
		}
		if reachable(id.to, id.from) {
			diags = append(diags, c.pkg.diag("lockorder", e.pos,
				"lock order cycle: %s is acquired%s while %s is held here, but elsewhere %s is acquired while %s is held — inconsistent order can deadlock",
				id.to, via, id.from, id.from, id.to))
		}
	}

	// Blocking operations under held locks.
	for _, key := range c.order {
		lf := c.funcs[key]
		for _, b := range lf.blocks {
			if !slices.ContainsFunc(b.held, func(k lockKey) bool { return !writerLatches[k] }) {
				continue
			}
			if b.condWait && len(b.held) < 2 {
				continue // Wait with only the cond's own lock is the protocol
			}
			diags = append(diags, c.pkg.diag("lockorder", b.pos,
				"%s held across %s; release the lock first or annotate why the hold is required",
				joinLockKeys(b.held), b.desc))
		}
	}
	SortDiagnostics(diags)
	return diags
}

func joinLockKeys(keys []lockKey) string {
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = string(k)
	}
	return strings.Join(parts, ", ")
}
