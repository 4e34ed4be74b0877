package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"maps"
	"path/filepath"
	"sort"
)

// flow.go is the path-sensitive resource-balance rule shared by pooluse
// and spanbalance. On flowWalk (walk.go), the walker the lock rules run on
// too, it tracks local variables bound to an acquired resource (a pooled
// buffer, a started span) and reports:
//
//   - leak: a variable still definitely Live at a return or at the end of
//     its binding block,
//   - double release: a release of a variable already definitely Released,
//   - use after release: reading a variable already definitely Released.
//
// "Definitely" is the operative word: when branches disagree (acquired or
// released on only some paths — the `if traced { sp = tr.Begin(...) }`
// idiom), the variable degrades to Maybe and the walker stays silent.
// Escapes end tracking: returning the value, storing it into a struct or
// slice, sending it on a channel, capturing it in a function literal, or
// passing it to a callee whose summary says it takes ownership. False
// negatives are accepted; false positives are not.

type ownState uint8

const (
	stLive     ownState = iota // definitely holding the resource
	stReleased                 // definitely released
	stMaybe                    // paths disagree; stay silent
)

type ownVal struct {
	state ownState
	def   token.Pos // acquisition site, for messages
}

type ownEnv map[*types.Var]ownVal

// ownHooks parameterize the ownership rule per analyzer.
type ownHooks struct {
	rule string
	what string // noun for messages: "pooled buffer", "trace span"

	// isAcquire reports whether call yields a tracked resource, with a
	// display name for the source ("getBuf", "tr.Begin").
	isAcquire func(call *ast.CallExpr) (string, bool)
	// releaseTarget returns the expression call releases, or nil.
	releaseTarget func(call *ast.CallExpr) ast.Expr
	releaseName   string // "putBuf", "End"
	// transfersArg reports whether the callee takes over the release
	// obligation for argument i (from its interprocedural summary).
	transfersArg func(call *ast.CallExpr, i int) bool
	// reportEscapeStore: report stores of a live resource into a location
	// rooted at a parameter, receiver or package-level variable (it
	// outlives the call). Stores into locals stay silent transfers.
	reportEscapeStore bool
}

// ownScan is the ownership rule on flowWalk for one function body.
type ownScan struct {
	p     *Package
	h     *ownHooks
	fn    string
	diags *[]Diagnostic

	// outlives marks this function's parameters and receiver: roots whose
	// fields outlive the call, for the escape-store report.
	outlives map[*types.Var]bool
	// deferred marks variables released by a defer (live until return is
	// fine for them).
	deferred map[*types.Var]bool
	// defStack tracks which tracked variables were bound in each nested
	// statement list, for end-of-scope leak checks.
	defStack [][]*types.Var
}

// runOwnScan applies hooks to every function body in the package.
func runOwnScan(p *Package, h *ownHooks, diags *[]Diagnostic) {
	for _, f := range p.Files {
		funcScopes(f, func(sc *funcScope) {
			s := &ownScan{
				p:        p,
				h:        h,
				fn:       sc.name,
				diags:    diags,
				outlives: map[*types.Var]bool{},
				deferred: map[*types.Var]bool{},
			}
			var fields []*ast.FieldList
			switch fn := sc.node.(type) {
			case *ast.FuncDecl:
				fields = append(fields, fn.Recv, fn.Type.Params)
			case *ast.FuncLit:
				fields = append(fields, fn.Type.Params)
			}
			for _, fl := range fields {
				if fl == nil {
					continue
				}
				for _, field := range fl.List {
					for _, name := range field.Names {
						if v, ok := p.Info.Defs[name].(*types.Var); ok {
							s.outlives[v] = true
						}
					}
				}
			}
			flowWalk[ownEnv]{s}.stmts(sc.body.List, ownEnv{})
		})
	}
}

func (s *ownScan) report(pos token.Pos, format string, args ...interface{}) {
	*s.diags = append(*s.diags, s.p.diag(pos, s.h.rule, format, args...))
}

func (s *ownScan) site(pos token.Pos) string {
	p := s.p.Fset.Position(pos)
	return fmt.Sprintf("%s:%d", filepath.Base(p.Filename), p.Line)
}

func (s *ownScan) leak(v *types.Var, val ownVal, pos token.Pos) {
	s.report(pos, "%s: %s %s (acquired at %s) has no %s on this path",
		s.fn, s.h.what, v.Name(), s.site(val.def), s.h.releaseName)
}

func (s *ownScan) clone(env ownEnv) ownEnv { return maps.Clone(env) }

func (s *ownScan) openList() { s.defStack = append(s.defStack, nil) }

// closeList ends a statement list's scope: variables bound in it that are
// still definitely Live when the list falls off its end leak.
func (s *ownScan) closeList(list []ast.Stmt, env ownEnv) {
	defs := s.defStack[len(s.defStack)-1]
	s.defStack = s.defStack[:len(s.defStack)-1]
	ending := !terminates(list)
	for _, v := range defs {
		if val, ok := env[v]; ok {
			if ending && val.state == stLive && !s.deferred[v] {
				s.leak(v, val, val.def)
			}
			delete(env, v)
		}
	}
}

func (s *ownScan) defined(v *types.Var) {
	if len(s.defStack) > 0 {
		s.defStack[len(s.defStack)-1] = append(s.defStack[len(s.defStack)-1], v)
	}
}

// join folds fall-through branch outcomes into env. A variable keeps a
// definite state only when every outcome agrees; disagreement (or absence
// on some path) degrades to Maybe; absence on every path drops it.
func (s *ownScan) join(env ownEnv, outcomes []ownEnv) {
	keys := map[*types.Var]bool{}
	for _, o := range outcomes {
		for k := range o {
			keys[k] = true
		}
	}
	clear(env)
	for k := range keys {
		var vals []ownVal
		everywhere := true
		for _, o := range outcomes {
			if v, ok := o[k]; ok {
				vals = append(vals, v)
			} else {
				everywhere = false
			}
		}
		agreed := everywhere
		for _, v := range vals {
			if v.state != vals[0].state {
				agreed = false
			}
		}
		if agreed {
			env[k] = vals[0]
		} else {
			env[k] = ownVal{state: stMaybe, def: vals[0].def}
		}
	}
}

// selectHeader scans each comm clause's send or receive on its own clone
// of env, so its effects stay out of the clause body. The pre-state always
// joins the clause outcomes.
func (s *ownScan) selectHeader(sel *ast.SelectStmt, env ownEnv) bool {
	for _, c := range sel.Body.List {
		if cc, ok := c.(*ast.CommClause); ok && cc.Comm != nil {
			s.leaf(cc.Comm, maps.Clone(env))
		}
	}
	return true
}

func (s *ownScan) leaf(n ast.Node, env ownEnv) {
	switch t := n.(type) {
	case *ast.ExprStmt:
		s.topCall(t.X, env)
	case *ast.AssignStmt:
		s.assign(t, env)
	case *ast.DeclStmt:
		if gd, ok := t.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok || len(vs.Values) != len(vs.Names) {
					continue
				}
				for i, name := range vs.Names {
					s.bind(name, vs.Values[i], true, env)
				}
			}
		}
	case *ast.DeferStmt:
		s.deferStmt(t, env)
	case *ast.GoStmt:
		// The spawned call runs concurrently: arguments and captures
		// escape to another goroutine.
		if lit, ok := t.Call.Fun.(*ast.FuncLit); ok {
			s.captureEscape(lit, env)
		} else {
			s.scanExpr(t.Call.Fun, env, false)
		}
		for _, a := range t.Call.Args {
			s.scanExpr(a, env, true)
		}
	case *ast.SendStmt:
		s.scanExpr(t.Chan, env, false)
		s.scanExpr(t.Value, env, true)
	case *ast.ReturnStmt:
		for _, e := range t.Results {
			s.scanExpr(e, env, true)
		}
		vars := make([]*types.Var, 0, len(env))
		for v := range env {
			vars = append(vars, v)
		}
		sort.Slice(vars, func(i, j int) bool { return vars[i].Pos() < vars[j].Pos() })
		for _, v := range vars {
			if val := env[v]; val.state == stLive && !s.deferred[v] {
				s.leak(v, val, t.Pos())
			}
		}
	case *ast.IncDecStmt:
		s.scanExpr(t.X, env, false)
	case *ast.RangeStmt:
		s.scanExpr(t.X, env, false)
	case ast.Expr:
		s.scanExpr(t, env, false)
	}
}

// assign handles the binding forms. Pairwise when lengths match (a, b :=
// x, y); otherwise everything is scanned as plain uses.
func (s *ownScan) assign(t *ast.AssignStmt, env ownEnv) {
	if len(t.Lhs) == len(t.Rhs) {
		for i := range t.Lhs {
			s.bind(t.Lhs[i], t.Rhs[i], t.Tok == token.DEFINE, env)
		}
		return
	}
	for _, e := range t.Rhs {
		s.scanExpr(e, env, false)
	}
	for _, e := range t.Lhs {
		if _, ok := e.(*ast.Ident); !ok {
			s.scanExpr(e, env, false)
		}
	}
}

// bind processes one lhs = rhs pair.
func (s *ownScan) bind(lhs, rhs ast.Expr, define bool, env ownEnv) {
	call, isCall := ast.Unparen(rhs).(*ast.CallExpr)
	acqName := ""
	isAcq := false
	if isCall {
		acqName, isAcq = s.h.isAcquire(call)
	}

	switch l := lhs.(type) {
	case *ast.Ident:
		if l.Name == "_" {
			if isAcq {
				s.report(rhs.Pos(), "%s: result of %s (a %s) is discarded; it can never be released",
					s.fn, acqName, s.h.what)
				return
			}
			s.scanExpr(rhs, env, false)
			return
		}
		// In a := with mixed new/old names, only the new ones are Defs;
		// redeclared ones resolve through Uses like a plain assignment.
		v, declaredHere := s.p.Info.Defs[l].(*types.Var)
		if v == nil {
			v, _ = s.p.Info.Uses[l].(*types.Var)
			declaredHere = false
		}
		if isAcq {
			for _, a := range call.Args {
				s.scanExpr(a, env, false)
			}
			if v == nil {
				return
			}
			if old, ok := env[v]; ok && old.state == stLive {
				s.leak(v, old, rhs.Pos())
			}
			if declaredHere {
				// Scope-end leak checks apply only to variables bound in
				// the block; assignments to outer variables merge to
				// Maybe at the branch join instead.
				s.defined(v)
			}
			env[v] = ownVal{state: stLive, def: rhs.Pos()}
			return
		}
		// Rebinding a tracked variable.
		if v != nil {
			if old, tracked := env[v]; tracked {
				if root := flowRoot(rhs); root != nil && s.p.Info.Uses[root] == v {
					// b = b[:n] — same backing resource, state unchanged.
					s.scanExpr(rhs, env, false)
					return
				}
				if old.state == stLive && !s.deferred[v] {
					s.leak(v, old, lhs.Pos())
				}
				delete(env, v)
			}
		}
		// Aliasing a tracked value into another name ends tracking
		// (conservative: two names, one obligation).
		if root := ast.Unparen(rhs); root != nil {
			if id, ok := root.(*ast.Ident); ok {
				if rv, ok := s.p.Info.Uses[id].(*types.Var); ok {
					if val, tracked := env[rv]; tracked {
						if val.state == stReleased {
							s.useAfter(rv, id.Pos())
						}
						delete(env, rv)
						return
					}
				}
			}
		}
		s.scanExpr(rhs, env, false)
	default:
		// Store into a field, slot or dereference.
		if isAcq || s.trackedRoot(rhs, env) != nil {
			if s.h.reportEscapeStore {
				if root := rootIdent(lhs); root != nil {
					if rv, ok := s.p.Info.Uses[root].(*types.Var); ok && s.storeOutlives(rv) {
						s.report(lhs.Pos(), "%s: %s stored in %s, which outlives this call; release ownership explicitly or keep it local",
							s.fn, s.h.what, types.ExprString(lhs))
					}
				}
			}
			if isCall && isAcq {
				for _, a := range call.Args {
					s.scanExpr(a, env, false)
				}
			}
			if v := s.trackedRoot(rhs, env); v != nil {
				delete(env, v) // transferred into the stored location
			}
			s.scanExpr(lhs, env, false)
			return
		}
		s.scanExpr(rhs, env, false)
		s.scanExpr(lhs, env, false)
	}
}

// flowRoot is rootIdent extended through slice expressions: b[:n] is the
// same resource as b for ownership purposes.
func flowRoot(e ast.Expr) *ast.Ident {
	for {
		if se, ok := ast.Unparen(e).(*ast.SliceExpr); ok {
			e = se.X
			continue
		}
		return rootIdent(e)
	}
}

// trackedRoot returns the tracked variable an expression is rooted in
// when the expression is a bare identifier or slice of one.
func (s *ownScan) trackedRoot(e ast.Expr, env ownEnv) *types.Var {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		if v, ok := s.p.Info.Uses[x].(*types.Var); ok {
			if _, tracked := env[v]; tracked {
				return v
			}
		}
	case *ast.SliceExpr:
		return s.trackedRoot(x.X, env)
	}
	return nil
}

// storeOutlives reports whether a store rooted at v outlives this call:
// v is a parameter/receiver or a package-level variable.
func (s *ownScan) storeOutlives(v *types.Var) bool {
	if s.outlives[v] {
		return true
	}
	return v.Parent() == s.p.Types.Scope()
}

func (s *ownScan) deferStmt(t *ast.DeferStmt, env ownEnv) {
	// defer putBuf(b) / defer sp.End(): released at return.
	if tgt := s.h.releaseTarget(t.Call); tgt != nil {
		if root := rootIdent(tgt); root != nil {
			if v, ok := s.p.Info.Uses[root].(*types.Var); ok {
				s.deferred[v] = true
				return
			}
		}
		return
	}
	// defer func() { ... putBuf(b) ... }(): the literal's releases count
	// at return; other captured tracked variables escape.
	if lit, ok := t.Call.Fun.(*ast.FuncLit); ok {
		ast.Inspect(lit.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if tgt := s.h.releaseTarget(call); tgt != nil {
				if root := rootIdent(tgt); root != nil {
					if v, ok := s.p.Info.Uses[root].(*types.Var); ok {
						s.deferred[v] = true
					}
				}
			}
			return true
		})
		s.captureEscape(lit, env)
		return
	}
	// defer f(b): f runs at return; treat tracked arguments as handed off.
	for _, a := range t.Call.Args {
		if v := s.trackedRoot(a, env); v != nil {
			s.deferred[v] = true
			continue
		}
		s.scanExpr(a, env, false)
	}
}

// topCall handles an expression statement, where releases and discarded
// acquisitions happen.
func (s *ownScan) topCall(e ast.Expr, env ownEnv) {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		s.scanExpr(e, env, false)
		return
	}
	if name, isAcq := s.h.isAcquire(call); isAcq {
		s.report(call.Pos(), "%s: result of %s (a %s) is discarded; it can never be released",
			s.fn, name, s.h.what)
		for _, a := range call.Args {
			s.scanExpr(a, env, false)
		}
		return
	}
	s.scanCall(call, env, false)
}

// scanExpr walks an expression. escaping means the value produced here
// flows somewhere that takes over the release obligation (return value,
// channel send, composite literal, address-of).
func (s *ownScan) scanExpr(e ast.Expr, env ownEnv, escaping bool) {
	switch x := e.(type) {
	case nil:
	case *ast.Ident:
		v, ok := s.p.Info.Uses[x].(*types.Var)
		if !ok {
			return
		}
		val, tracked := env[v]
		if !tracked {
			return
		}
		if escaping {
			delete(env, v)
			return
		}
		if val.state == stReleased {
			s.useAfter(v, x.Pos())
		}
	case *ast.CallExpr:
		s.scanCall(x, env, escaping)
	case *ast.CompositeLit:
		for _, elt := range x.Elts {
			if kv, ok := elt.(*ast.KeyValueExpr); ok {
				s.scanExpr(kv.Value, env, true)
				continue
			}
			s.scanExpr(elt, env, true)
		}
	case *ast.UnaryExpr:
		if x.Op == token.AND {
			s.scanExpr(x.X, env, true)
			return
		}
		s.scanExpr(x.X, env, false)
	case *ast.FuncLit:
		s.captureEscape(x, env)
	case *ast.SelectorExpr:
		s.scanExpr(x.X, env, false)
	case *ast.SliceExpr:
		// A slice shares its backing array: the escape context propagates.
		s.scanExpr(x.X, env, escaping)
		s.scanExpr(x.Low, env, false)
		s.scanExpr(x.High, env, false)
		s.scanExpr(x.Max, env, false)
	case *ast.IndexExpr:
		s.scanExpr(x.X, env, false)
		s.scanExpr(x.Index, env, false)
	case *ast.StarExpr:
		s.scanExpr(x.X, env, escaping)
	case *ast.ParenExpr:
		s.scanExpr(x.X, env, escaping)
	case *ast.BinaryExpr:
		s.scanExpr(x.X, env, false)
		s.scanExpr(x.Y, env, false)
	case *ast.TypeAssertExpr:
		s.scanExpr(x.X, env, escaping)
	case *ast.KeyValueExpr:
		s.scanExpr(x.Value, env, escaping)
	case *ast.Ellipsis:
		s.scanExpr(x.Elt, env, escaping)
	}
}

func (s *ownScan) useAfter(v *types.Var, pos token.Pos) {
	s.report(pos, "%s: use of %s %s after %s",
		s.fn, s.h.what, v.Name(), s.h.releaseName)
}

// scanCall processes a call in value position: releases, transfers and
// plain argument uses.
func (s *ownScan) scanCall(call *ast.CallExpr, env ownEnv, escaping bool) {
	if tgt := s.h.releaseTarget(call); tgt != nil {
		if root := rootIdent(tgt); root != nil {
			if v, ok := s.p.Info.Uses[root].(*types.Var); ok {
				if val, tracked := env[v]; tracked {
					if val.state == stReleased {
						s.report(call.Pos(), "%s: %s %s released twice (%s after %s)",
							s.fn, s.h.what, v.Name(), s.h.releaseName, s.h.releaseName)
					}
					env[v] = ownVal{state: stReleased, def: val.def}
				}
			}
		}
		// Scan the rest of the call, excluding the released expression.
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && sel.X != tgt {
			s.scanExpr(sel.X, env, false)
		}
		for _, a := range call.Args {
			if a != tgt {
				s.scanExpr(a, env, false)
			}
		}
		return
	}
	if _, isAcq := s.h.isAcquire(call); isAcq && escaping {
		// The fresh resource flows straight out (return t.Begin(...)):
		// ownership moves with it; the caller-side summary covers it.
		for _, a := range call.Args {
			s.scanExpr(a, env, false)
		}
		return
	}
	// Receiver and non-selector function expressions are plain uses.
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		s.scanExpr(fun.X, env, false)
	case *ast.Ident:
	default:
		s.scanExpr(fun, env, false)
	}
	for i, a := range call.Args {
		if v := s.trackedRoot(a, env); v != nil && s.h.transfersArg != nil && s.h.transfersArg(call, i) {
			delete(env, v)
			continue
		}
		s.scanExpr(a, env, false)
	}
}

// captureEscape ends tracking for every variable a function literal
// captures: the literal may run at any time, on any goroutine.
func (s *ownScan) captureEscape(lit *ast.FuncLit, env ownEnv) {
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if v, ok := s.p.Info.Uses[id].(*types.Var); ok {
				delete(env, v)
			}
		}
		return true
	})
}
