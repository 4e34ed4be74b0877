package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"maps"
	"path/filepath"
	"sort"
	"strings"
)

// exprKey renders a mutex receiver expression as its identity key.
func exprKey(e ast.Expr) string { return types.ExprString(e) }

// lockheld flags blocking operations performed while a sync.Mutex or
// sync.RWMutex is held. Blocking means: channel send/receive, select
// without a default, time.Sleep, a method named Wait (sync.Cond.Wait is
// exempt — it releases the mutex), and Read/Write-family calls whose
// receiver is an interface (io.Reader, net.Conn, ...) or a net/bufio type.
//
// The walk is intraprocedural: the held-lock tracker below, on flowWalk
// (walk.go), keyed by the printed receiver expression. Function literals
// are analyzed as separate functions with an empty lock set, because their
// bodies typically run on other goroutines (go, AfterFunc, callbacks).
//
// Deliberate serialization points (a connection mutex held across its own
// request/response round trip) are annotated //lint:allow lockheld.
type lockheld struct{}

func (lockheld) Name() string { return "lockheld" }
func (lockheld) Doc() string {
	return "mutexes must not be held across blocking operations (channel ops, select, interface I/O, Sleep, Wait)"
}

func (lockheld) Run(pkg *Package) []Diagnostic {
	r := &lockReport{pkg: pkg}
	for _, f := range pkg.Files {
		funcScopes(f, func(sc *funcScope) {
			r.fn = sc.name
			walkLocks[string](pkg, r, sc.body)
		})
	}
	return r.diags
}

// heldLocks maps each held mutex, under the key its client chooses, to the
// position of its Lock call.
type heldLocks[K comparable] map[K]token.Pos

// lockClient is what a user of the held-lock tracker supplies: how a mutex
// is keyed, and what to record as the walk goes.
type lockClient[K comparable] interface {
	// key identifies the mutex a Lock/Unlock call names; ok false leaves
	// the call recognized but untracked.
	key(mutex ast.Expr) (k K, ok bool)
	// locked sees an acquisition before k joins held.
	locked(k K, mutex ast.Expr, call *ast.CallExpr, held heldLocks[K])
	// visit sees every node evaluated under held: the nodes of each
	// evaluated expression (function literals excluded), plus send and
	// range statements. A deferred call's nodes are visited with nothing
	// held.
	visit(n ast.Node, held heldLocks[K])
	// selectHeader is flowRule's.
	selectHeader(sel *ast.SelectStmt, held heldLocks[K]) bool
}

// heldTracker is the held-lock rule on flowWalk that lockheld and the
// summary builder share. A mutex is held from <expr>.Lock() until
// <expr>.Unlock(); a deferred unlock keeps it held to return; after a
// branch, a mutex is held if any outcome that falls through holds it.
type heldTracker[K comparable] struct {
	pkg *Package
	c   lockClient[K]
}

// walkLocks runs the tracker over one function body, starting with nothing
// held.
func walkLocks[K comparable](pkg *Package, c lockClient[K], body *ast.BlockStmt) {
	flowWalk[heldLocks[K]]{&heldTracker[K]{pkg, c}}.stmts(body.List, heldLocks[K]{})
}

func (t *heldTracker[K]) clone(held heldLocks[K]) heldLocks[K] { return maps.Clone(held) }

func (t *heldTracker[K]) join(held heldLocks[K], outcomes []heldLocks[K]) {
	clear(held)
	for _, o := range outcomes {
		maps.Copy(held, o)
	}
}

func (t *heldTracker[K]) selectHeader(sel *ast.SelectStmt, held heldLocks[K]) bool {
	return t.c.selectHeader(sel, held)
}

func (t *heldTracker[K]) openList()                          {}
func (t *heldTracker[K]) closeList([]ast.Stmt, heldLocks[K]) {}

func (t *heldTracker[K]) leaf(n ast.Node, held heldLocks[K]) {
	switch x := n.(type) {
	case *ast.ExprStmt:
		if !t.lockOp(x.X, held) {
			t.scan(x.X, held)
		}
	case *ast.DeferStmt:
		// A deferred unlock releases at return, so the mutex stays held
		// for everything that follows. Any other deferred call runs at
		// return too, outside this statement order.
		if !t.lockOp(x.Call, nil) {
			t.scan(x.Call, nil)
		}
	case *ast.GoStmt:
		// The spawned body runs concurrently (a literal gets its own walk);
		// only the call's operands are evaluated here.
		for _, a := range x.Call.Args {
			t.scan(a, held)
		}
	case *ast.RangeStmt:
		t.c.visit(x, held)
		t.scan(x.X, held)
	case *ast.AssignStmt:
		for _, e := range x.Rhs {
			t.scan(e, held)
		}
		for _, e := range x.Lhs {
			t.scan(e, held)
		}
	case *ast.DeclStmt, *ast.SendStmt, *ast.ReturnStmt, *ast.IncDecStmt, ast.Expr:
		t.scan(x, held)
	}
}

// scan visits n's nodes under held, without descending into function
// literals.
func (t *heldTracker[K]) scan(n ast.Node, held heldLocks[K]) {
	ownNodes(n, func(m ast.Node) bool {
		t.c.visit(m, held)
		return true
	})
}

// lockOp applies <expr>.Lock/RLock/Unlock/RUnlock() on a sync mutex to held
// and reports whether e is one. A nil held recognizes the call without
// applying it (a deferred unlock).
func (t *heldTracker[K]) lockOp(e ast.Expr, held heldLocks[K]) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	var locks bool
	switch sel.Sel.Name {
	case "Lock", "RLock":
		locks = true
	case "Unlock", "RUnlock":
	default:
		return false
	}
	if !isMutexType(t.pkg.Info.TypeOf(sel.X)) {
		return false
	}
	k, ok := t.c.key(sel.X)
	switch {
	case !ok || held == nil:
	case locks:
		t.c.locked(k, sel.X, call, held)
		held[k] = call.Pos()
	default:
		delete(held, k)
	}
	return true
}

// lockReport is lockheld's client of the tracker: mutexes are keyed by
// printed receiver expression, and blocking operations under a held mutex
// are reported.
type lockReport struct {
	pkg   *Package
	fn    string
	diags []Diagnostic
}

func (r *lockReport) key(mutex ast.Expr) (string, bool) { return exprKey(mutex), true }

func (r *lockReport) locked(string, ast.Expr, *ast.CallExpr, heldLocks[string]) {}

// selectHeader reports a select without default as blocking. Only a select
// with a default lets the pre-state join its clause outcomes.
func (r *lockReport) selectHeader(sel *ast.SelectStmt, held heldLocks[string]) bool {
	for _, c := range sel.Body.List {
		if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
			return true
		}
	}
	r.report(sel.Pos(), "select", held)
	return false
}

func (r *lockReport) visit(n ast.Node, held heldLocks[string]) {
	switch x := n.(type) {
	case *ast.SendStmt:
		r.report(x.Pos(), "channel send", held)
	case *ast.RangeStmt:
		if isChanType(r.pkg, x.X) {
			r.report(x.Pos(), "range over channel", held)
		}
	case *ast.UnaryExpr:
		if x.Op == token.ARROW {
			r.report(x.Pos(), "channel receive", held)
		}
	case *ast.CallExpr:
		if desc, ok := r.blockingCall(x); ok {
			r.report(x.Pos(), desc, held)
		}
	}
}

func (r *lockReport) report(pos token.Pos, what string, held heldLocks[string]) {
	if len(held) == 0 {
		return
	}
	keys := make([]string, 0, len(held))
	for k := range held {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	lockPos := r.pkg.Fset.Position(held[keys[0]])
	r.diags = append(r.diags, r.pkg.diag(pos, "lockheld",
		"%s blocks on %s while holding %s (locked at %s:%d)",
		r.fn, what, strings.Join(keys, ", "), filepath.Base(lockPos.Filename), lockPos.Line))
}

// blockingCall classifies a call as a blocking operation.
func (r *lockReport) blockingCall(call *ast.CallExpr) (string, bool) {
	fn := r.pkg.calleeFunc(call)
	if fn == nil {
		return "", false
	}
	name := fn.Name()
	pkgPath := ""
	if fn.Pkg() != nil {
		pkgPath = fn.Pkg().Path()
	}
	recv := r.pkg.recvTypeOf(call)
	if recv == nil {
		// Package-level function.
		if pkgPath == "time" && name == "Sleep" {
			return "time.Sleep", true
		}
		if pkgPath == "io" {
			switch name {
			case "Copy", "CopyN", "CopyBuffer", "ReadFull", "ReadAll", "ReadAtLeast", "WriteString":
				return "io." + name, true
			}
		}
		return "", false
	}
	// Method call.
	if name == "Wait" {
		if isNamed(recv, "sync", "Cond") {
			return "", false // Cond.Wait releases the mutex while parked
		}
		return exprKey(callRecvExpr(call)) + ".Wait", true
	}
	switch name {
	case "Read", "Write", "ReadAt", "WriteAt", "ReadFrom", "WriteTo", "Flush",
		"ReadString", "ReadBytes", "ReadByte", "WriteByte", "WriteString",
		"ReadRune", "WriteRune", "Peek":
	default:
		return "", false
	}
	d := deref(recv)
	if _, isIface := d.Underlying().(*types.Interface); isIface {
		return "interface " + name, true
	}
	if n := namedOf(recv); n != nil && n.Obj().Pkg() != nil {
		switch n.Obj().Pkg().Path() {
		case "net", "bufio":
			return n.Obj().Pkg().Path() + " " + name, true
		}
	}
	return "", false
}

func callRecvExpr(call *ast.CallExpr) ast.Expr {
	sel, _ := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if sel == nil {
		return call.Fun
	}
	return sel.X
}

func isChanType(pkg *Package, e ast.Expr) bool {
	t := pkg.Info.TypeOf(e)
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Chan)
	return ok
}
