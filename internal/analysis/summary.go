package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"maps"
	"sort"
)

// This file builds the interprocedural substrate: a package-level call
// graph plus one summary per function body recording the facts that must
// survive a call boundary — which locks it acquires (directly and
// transitively), which parameters it releases back to the buffer pool,
// which span parameters it Ends, and whether its return value is
// pool-owned. Summaries are computed once per package and cached on the
// Package, so the three rules that consume them (pooluse, lockorder and
// spanbalance) share one pass.

// funcSummary is the per-function fact sheet. Function literals get
// summaries too (they hold lock facts for lockorder), but only declared
// functions are reachable through the call graph.
type funcSummary struct {
	fn   *types.Func    // nil for function literals
	body *ast.BlockStmt // the analyzed body
	name string         // display name ("(*Conn).call", "func literal")

	// calls are the statically resolved same-package callees, in document
	// order of their call sites. Calls through interfaces, function values
	// and method values are unresolvable without whole-program analysis
	// and are deliberately absent: every consumer treats a missing edge as
	// "unknown callee", never as "does nothing".
	calls []*types.Func

	// acquires holds each mutex this body locks (by field/var identity).
	acquires map[types.Object]bool
	// pairs records "inner acquired while outer held" orderings observed
	// inside this body.
	pairs []lockPair
	// heldCalls records same-package calls made while at least one lock is
	// held; lockorder extends the order graph through them.
	heldCalls []heldCall

	// returnsPooled / returnsSpan mark functions whose return value is a
	// getBuf-owned buffer (resp. a freshly begun trace span); callers
	// inherit the release obligation. Fixpoint-propagated.
	returnsPooled bool
	returnsSpan   bool
	// releasesParams / endsParams mark parameter indexes the function
	// putBufs (resp. Ends) on at least one path: passing a tracked value
	// there transfers ownership. Fixpoint-propagated.
	releasesParams map[int]bool
	endsParams     map[int]bool
}

type lockPair struct {
	outer, inner types.Object
	pos          token.Pos // where inner was acquired under outer
}

type heldCall struct {
	callee *types.Func
	held   []types.Object
	pos    token.Pos
}

// pkgSummaries is the cached interprocedural state for one package.
type pkgSummaries struct {
	pkg   *Package
	funcs map[*types.Func]*funcSummary
	order []*funcSummary // declared funcs then literals, in position order

	// getBuf/putBuf are the package's pool entry points when it defines
	// the bufpool convention, nil otherwise (pooluse is inert then).
	getBuf, putBuf *types.Func

	// lockNames assigns each lock object one canonical display name (the
	// lexically first acquisition's receiver expression).
	lockNames map[types.Object]string

	transMemo map[*types.Func]map[types.Object]bool
}

// summaries builds (once) and returns the package's interprocedural facts.
func (p *Package) summaries() *pkgSummaries {
	if p.summ == nil {
		p.summ = buildSummaries(p)
	}
	return p.summ
}

func buildSummaries(p *Package) *pkgSummaries {
	ps := &pkgSummaries{
		pkg:       p,
		funcs:     map[*types.Func]*funcSummary{},
		lockNames: map[types.Object]string{},
		transMemo: map[*types.Func]map[types.Object]bool{},
	}
	ps.getBuf = ps.poolFunc("getBuf")
	ps.putBuf = ps.poolFunc("putBuf")

	// Pass 1: one summary per function body.
	for _, f := range p.Files {
		funcScopes(f, func(sc *funcScope) {
			s := &funcSummary{
				body:           sc.body,
				name:           sc.name,
				acquires:       map[types.Object]bool{},
				releasesParams: map[int]bool{},
				endsParams:     map[int]bool{},
			}
			if decl, ok := sc.node.(*ast.FuncDecl); ok {
				fn, _ := p.Info.Defs[decl.Name].(*types.Func)
				if fn == nil {
					return
				}
				s.fn = fn
				ps.funcs[fn] = s
			}
			ps.order = append(ps.order, s)
		})
	}
	sort.SliceStable(ps.order, func(i, j int) bool {
		return ps.order[i].body.Pos() < ps.order[j].body.Pos()
	})

	// Pass 2: walk each body once collecting call sites and lock facts.
	for _, s := range ps.order {
		walkLocks[types.Object](p, summaryLocks{ps, s}, s.body)
	}

	// Pass 3: fixpoints across the call graph.
	ps.propagate()
	return ps
}

// poolFunc finds the package-level bufpool entry point by name and shape.
func (ps *pkgSummaries) poolFunc(name string) *types.Func {
	obj := ps.pkg.Types.Scope().Lookup(name)
	fn, ok := obj.(*types.Func)
	if !ok {
		return nil
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Params().Len() != 1 {
		return nil
	}
	switch name {
	case "getBuf":
		if sig.Results().Len() != 1 {
			return nil
		}
		if _, ok := sig.Results().At(0).Type().Underlying().(*types.Slice); !ok {
			return nil
		}
	case "putBuf":
		if _, ok := sig.Params().At(0).Type().Underlying().(*types.Slice); !ok {
			return nil
		}
	}
	return fn
}

// propagate runs the interprocedural fixpoints: pool ownership of returns,
// param releases and span Ends flow from callees to callers until stable.
// Recursion terminates because facts only ever flip false -> true.
func (ps *pkgSummaries) propagate() {
	for changed := true; changed; {
		changed = false
		for _, s := range ps.order {
			if s.fn == nil {
				continue // literals are not callable by name
			}
			if !s.returnsPooled && ps.getBuf != nil && ps.bodyReturns(s, ps.isPooledSource) {
				s.returnsPooled = true
				changed = true
			}
			if !s.returnsSpan && ps.bodyReturns(s, ps.isSpanSource) {
				s.returnsSpan = true
				changed = true
			}
			sig := s.fn.Type().(*types.Signature)
			for i := 0; i < sig.Params().Len(); i++ {
				param := sig.Params().At(i)
				if ps.putBuf != nil && !s.releasesParams[i] && ps.bodyHandsOff(s, param, ps.releasedBy) {
					s.releasesParams[i] = true
					changed = true
				}
				if !s.endsParams[i] && ps.bodyHandsOff(s, param, ps.endedBy) {
					s.endsParams[i] = true
					changed = true
				}
			}
		}
	}
}

// isPooledSource reports whether call yields a pool-owned buffer: a direct
// getBuf or a same-package function known to return one.
func (ps *pkgSummaries) isPooledSource(call *ast.CallExpr) bool {
	fn := ps.pkg.calleeFunc(call)
	if fn == nil {
		return false
	}
	if fn == ps.getBuf {
		return true
	}
	cs := ps.funcs[fn]
	return cs != nil && cs.returnsPooled
}

// isSpanSource reports whether call yields a freshly started trace span: a
// Begin/BeginServer method returning a named Span, or a same-package
// function known to return one.
func (ps *pkgSummaries) isSpanSource(call *ast.CallExpr) bool {
	fn := ps.pkg.calleeFunc(call)
	if fn == nil {
		return false
	}
	if cs := ps.funcs[fn]; cs != nil && cs.returnsSpan {
		return true
	}
	if fn.Name() != "Begin" && fn.Name() != "BeginServer" {
		return false
	}
	return isSpanType(ps.pkg.Info.TypeOf(call))
}

// isSpanType reports whether t (through one pointer) is a named type
// called Span — the trace package's span and corpus stand-ins alike.
func isSpanType(t types.Type) bool {
	n := namedOf(t)
	return n != nil && n.Obj() != nil && n.Obj().Name() == "Span"
}

// spanEndTarget returns the receiver expression when call is
// <span>.End(...), nil otherwise.
func spanEndTarget(p *Package, call *ast.CallExpr) ast.Expr {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "End" {
		return nil
	}
	if _, isMethod := p.Info.Selections[sel]; !isMethod {
		return nil
	}
	if !isSpanType(p.Info.TypeOf(sel.X)) {
		return nil
	}
	return sel.X
}

// releasedBy reports whether call releases v: putBuf(v) directly, or v
// passed at a parameter position the callee is known to release.
func (ps *pkgSummaries) releasedBy(call *ast.CallExpr, v *types.Var) bool {
	fn := ps.pkg.calleeFunc(call)
	if fn == nil {
		return false
	}
	if fn == ps.putBuf {
		return len(call.Args) == 1 && ps.argIs(call.Args[0], v)
	}
	cs := ps.funcs[fn]
	if cs == nil {
		return false
	}
	for i, arg := range call.Args {
		if cs.releasesParams[i] && ps.argIs(arg, v) {
			return true
		}
	}
	return false
}

// endedBy reports whether call Ends span v: v.End(...) directly, or v
// passed at a parameter position the callee is known to End.
func (ps *pkgSummaries) endedBy(call *ast.CallExpr, v *types.Var) bool {
	if tgt := spanEndTarget(ps.pkg, call); tgt != nil {
		return ps.argIs(tgt, v)
	}
	fn := ps.pkg.calleeFunc(call)
	if fn == nil {
		return false
	}
	cs := ps.funcs[fn]
	if cs == nil {
		return false
	}
	for i, arg := range call.Args {
		if cs.endsParams[i] && ps.argIs(arg, v) {
			return true
		}
	}
	return false
}

func (ps *pkgSummaries) argIs(arg ast.Expr, v *types.Var) bool {
	id, ok := ast.Unparen(arg).(*ast.Ident)
	return ok && ps.pkg.Info.Uses[id] == v
}

// bodyReturns reports whether any return in s's own body (literals
// excluded) yields a value produced by a call matching src, either
// directly or through a local variable bound to one.
func (ps *pkgSummaries) bodyReturns(s *funcSummary, src func(*ast.CallExpr) bool) bool {
	// Locals bound (anywhere in the body) to a matching call.
	bound := map[types.Object]bool{}
	ownNodes(s.body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, rhs := range as.Rhs {
			call, ok := ast.Unparen(rhs).(*ast.CallExpr)
			if !ok || !src(call) {
				continue
			}
			if id, ok := as.Lhs[i].(*ast.Ident); ok {
				if obj := ps.pkg.Info.Defs[id]; obj != nil {
					bound[obj] = true
				} else if obj := ps.pkg.Info.Uses[id]; obj != nil {
					bound[obj] = true
				}
			}
		}
		return true
	})
	found := false
	ownNodes(s.body, func(n ast.Node) bool {
		ret, ok := n.(*ast.ReturnStmt)
		if !ok {
			return true
		}
		for _, res := range ret.Results {
			if call, ok := ast.Unparen(res).(*ast.CallExpr); ok && src(call) {
				found = true
			}
			if root := rootIdent(res); root != nil {
				if obj := ps.pkg.Info.Uses[root]; obj != nil && bound[obj] {
					found = true
				}
			}
		}
		return true
	})
	return found
}

// bodyHandsOff reports whether s's own body contains a call that hands
// parameter v off according to via (release or End).
func (ps *pkgSummaries) bodyHandsOff(s *funcSummary, v *types.Var, via func(*ast.CallExpr, *types.Var) bool) bool {
	found := false
	ownNodes(s.body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && via(call, v) {
			found = true
		}
		return true
	})
	return found
}

// transitiveAcquires returns every lock fn can take, directly or through
// same-package callees. The memo is seeded before descending, so recursion
// terminates and a cycle contributes what is known so far.
func (ps *pkgSummaries) transitiveAcquires(fn *types.Func) map[types.Object]bool {
	if got, ok := ps.transMemo[fn]; ok {
		return got
	}
	acc := map[types.Object]bool{}
	ps.transMemo[fn] = acc
	if s := ps.funcs[fn]; s != nil {
		maps.Copy(acc, s.acquires)
		for _, callee := range s.calls {
			maps.Copy(acc, ps.transitiveAcquires(callee))
		}
	}
	return acc
}

// lockObject resolves a mutex receiver expression to its identity: the
// field or variable object, shared across all instances of the type. That
// is the right granularity for an acquisition-order graph; instance-level
// aliasing (two objects of the same type locked in address order) is out
// of scope and self-pairs are dropped by the rule.
func (p *Package) lockObject(e ast.Expr) types.Object {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		return p.Info.Uses[x]
	case *ast.SelectorExpr:
		if sel, ok := p.Info.Selections[x]; ok {
			return sel.Obj()
		}
		return p.Info.Uses[x.Sel]
	}
	return nil
}

// summaryLocks is the summary builder's client of the held-lock tracker
// (lockheld.go): mutexes are keyed by field or variable object, and
// acquisitions, orderings and same-package call sites are recorded.
type summaryLocks struct {
	ps *pkgSummaries
	s  *funcSummary
}

func (b summaryLocks) key(mutex ast.Expr) (types.Object, bool) {
	obj := b.ps.pkg.lockObject(mutex)
	return obj, obj != nil
}

func (b summaryLocks) locked(obj types.Object, mutex ast.Expr, call *ast.CallExpr, held heldLocks[types.Object]) {
	if _, ok := b.ps.lockNames[obj]; !ok {
		b.ps.lockNames[obj] = exprKey(mutex)
	}
	for outer := range held {
		if outer != obj {
			b.s.pairs = append(b.s.pairs, lockPair{outer: outer, inner: obj, pos: call.Pos()})
		}
	}
	b.s.acquires[obj] = true
}

// selectHeader lets the pre-state join every select's clause outcomes.
func (summaryLocks) selectHeader(*ast.SelectStmt, heldLocks[types.Object]) bool { return true }

// visit records each call to a declared same-package function, with the
// locks held across it.
func (b summaryLocks) visit(n ast.Node, held heldLocks[types.Object]) {
	call, ok := n.(*ast.CallExpr)
	if !ok {
		return
	}
	fn := b.ps.pkg.calleeFunc(call)
	if _, ok := b.ps.funcs[fn]; !ok {
		return
	}
	b.s.calls = append(b.s.calls, fn)
	if len(held) > 0 {
		objs := make([]types.Object, 0, len(held))
		for obj := range held {
			objs = append(objs, obj)
		}
		sort.Slice(objs, func(i, j int) bool { return objs[i].Pos() < objs[j].Pos() })
		b.s.heldCalls = append(b.s.heldCalls, heldCall{callee: fn, held: objs, pos: call.Pos()})
	}
}
