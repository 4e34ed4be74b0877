package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
)

// goexit checks that every goroutine launched in the connection-lifecycle
// packages (any package with a client.go, server.go or engine.go — the
// demux reader, the read-ahead executor, the I/O thread pool) has a
// provable way to exit. Two escalating findings:
//
//   - a goroutine whose body (or a same-package function it calls)
//     contains an unconditional `for {}` with no return, break or panic
//     can never exit, full stop;
//   - a goroutine that loops forever with exits but no *exit key* — no
//     channel receive or select, no range over a channel, no Cond.Wait,
//     no conn/reader read that fails on close, no context, and no
//     shutdown flag read — has no event that would ever make it take
//     those exits.
//
// Unresolvable targets (method values, function-typed fields) are skipped:
// no edge means "unknown", never "fine" — but also never a guess.
type goexit struct{}

func (goexit) Name() string { return "goexit" }
func (goexit) Doc() string {
	return "every goroutine in client/server/engine packages needs a provable exit path (conn close, context, channel, or shutdown flag)"
}

// exitFacts summarize one function body for the goroutine exit analysis.
type exitFacts struct {
	hasLoop bool      // contains an unconditional for {}
	badLoop token.Pos // first for {} with no return/break/panic (NoPos if none)
	hasKey  bool      // contains an exit key (see rule doc)
}

func (f *exitFacts) union(o exitFacts) {
	f.hasLoop = f.hasLoop || o.hasLoop
	if !f.badLoop.IsValid() {
		f.badLoop = o.badLoop
	}
	f.hasKey = f.hasKey || o.hasKey
}

func (goexit) Run(pkg *Package) []Diagnostic {
	inScope := false
	for _, f := range pkg.Files {
		switch filepath.Base(pkg.Fset.Position(f.Pos()).Filename) {
		case "client.go", "server.go", "engine.go":
			inScope = true
		}
	}
	if !inScope {
		return nil
	}

	ps := pkg.summaries()
	g := &exitScan{pkg: pkg, ps: ps, memo: map[*types.Func]*exitFacts{}}

	var diags []Diagnostic
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			gs, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			var facts exitFacts
			name := "func literal"
			if lit, isLit := gs.Call.Fun.(*ast.FuncLit); isLit {
				facts = g.bodyFacts(lit.Body)
				g.addTransitive(lit.Body, &facts, map[*types.Func]bool{})
			} else {
				fn := pkg.calleeFunc(gs.Call)
				if fn == nil {
					return true // unresolvable target: skip, don't guess
				}
				s := ps.funcs[fn]
				if s == nil {
					return true // other-package callee
				}
				name = fn.Name()
				facts = g.transitive(fn)
			}
			switch {
			case facts.badLoop.IsValid():
				lp := pkg.Fset.Position(facts.badLoop)
				diags = append(diags, pkg.diag(gs.Pos(), "goexit",
					"goroutine %s can never exit: unconditional loop at %s:%d has no return, break or panic",
					name, filepath.Base(lp.Filename), lp.Line))
			case facts.hasLoop && !facts.hasKey:
				diags = append(diags, pkg.diag(gs.Pos(), "goexit",
					"goroutine %s loops forever with no exit key: no conn/reader read, channel op, select, context or shutdown flag ever triggers its exits",
					name))
			}
			return true
		})
	}
	return diags
}

type exitScan struct {
	pkg  *Package
	ps   *pkgSummaries
	memo map[*types.Func]*exitFacts
}

// transitive folds bodyFacts over fn and every same-package function it
// (transitively) calls.
func (g *exitScan) transitive(fn *types.Func) exitFacts {
	return transitive(g.ps, g.memo, fn,
		func(s *funcSummary) exitFacts { return g.bodyFacts(s.body) }, (*exitFacts).union)
}

// addTransitive extends facts with the transitive facts of every
// same-package function a literal body calls.
func (g *exitScan) addTransitive(body *ast.BlockStmt, facts *exitFacts, seen map[*types.Func]bool) {
	ownNodes(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := g.pkg.calleeFunc(call)
		if fn == nil || seen[fn] {
			return true
		}
		seen[fn] = true
		if g.ps.funcs[fn] != nil {
			facts.union(g.transitive(fn))
		}
		return true
	})
}

// bodyFacts scans one body (nested literals excluded: they run on their
// own goroutines and get their own GoStmt checks).
func (g *exitScan) bodyFacts(body *ast.BlockStmt) exitFacts {
	var facts exitFacts
	ownNodes(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.ForStmt:
			if x.Cond == nil {
				facts.hasLoop = true
				if !loopCanExit(x) && !facts.badLoop.IsValid() {
					facts.badLoop = x.Pos()
				}
			}
		case *ast.SelectStmt:
			facts.hasKey = true
		case *ast.UnaryExpr:
			if x.Op == token.ARROW {
				facts.hasKey = true
			}
		case *ast.RangeStmt:
			if isChanType(g.pkg, x.X) {
				facts.hasKey = true
			}
		case *ast.CallExpr:
			if g.keyedCall(x) {
				facts.hasKey = true
			}
		case *ast.Ident:
			if g.flagRead(g.pkg.Info.Uses[x]) {
				facts.hasKey = true
			}
		case *ast.SelectorExpr:
			if sel, ok := g.pkg.Info.Selections[x]; ok && g.flagRead(sel.Obj()) {
				facts.hasKey = true
			}
		}
		return true
	})
	return facts
}

// loopCanExit reports whether an unconditional for has any way out of its
// own body: a return, a panic, or a break that targets this loop.
func loopCanExit(loop *ast.ForStmt) bool {
	found := false
	var walk func(n ast.Node, breakable bool)
	walk = func(n ast.Node, breakable bool) {
		ast.Inspect(n, func(m ast.Node) bool {
			if found {
				return false
			}
			switch y := m.(type) {
			case *ast.FuncLit:
				return false
			case *ast.ReturnStmt:
				found = true
			case *ast.BranchStmt:
				// A labeled break/goto jumps somewhere; assume it leaves.
				if y.Tok == token.GOTO || y.Label != nil {
					found = true
				}
				if y.Tok == token.BREAK && breakable {
					found = true
				}
			case *ast.CallExpr:
				if id, ok := ast.Unparen(y.Fun).(*ast.Ident); ok && id.Name == "panic" {
					found = true
				}
			case *ast.ForStmt, *ast.RangeStmt, *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
				if m != n {
					// An unlabeled break inside these targets them, not us.
					walk(m, false)
					return false
				}
			}
			return true
		})
	}
	walk(loop.Body, true)
	return found
}

// keyedCall reports whether a call plausibly wakes on connection close or
// cancellation: a read-family method on an interface/net/bufio receiver,
// sync.Cond.Wait, or any callee that takes a reader, conn or context.
func (g *exitScan) keyedCall(call *ast.CallExpr) bool {
	fn := g.pkg.calleeFunc(call)
	if fn == nil {
		return false
	}
	if fn.Name() == "Wait" {
		if recv := g.pkg.recvTypeOf(call); recv != nil && isNamed(recv, "sync", "Cond") {
			return true
		}
	}
	if recv := g.pkg.recvTypeOf(call); recv != nil && readerish(recv) {
		switch fn.Name() {
		case "Read", "ReadByte", "ReadFull", "ReadAt", "Peek", "ReadString", "ReadBytes", "Accept", "Recv":
			return true
		}
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return false
	}
	for i := 0; i < sig.Params().Len(); i++ {
		if t := sig.Params().At(i).Type(); readerish(t) || isNamed(t, "context", "Context") {
			return true
		}
	}
	return false
}

// readerish recognizes types whose reads fail once the peer closes: any
// interface with a Read method (io.Reader, net.Conn), and net/bufio
// concrete types.
func readerish(t types.Type) bool {
	d := deref(t)
	if iface, ok := d.Underlying().(*types.Interface); ok {
		for i := 0; i < iface.NumMethods(); i++ {
			if iface.Method(i).Name() == "Read" {
				return true
			}
		}
		// Embedded interfaces are flattened by NumMethods, so that covers
		// net.Conn and friends.
		return false
	}
	if n := namedOf(t); n != nil && n.Obj().Pkg() != nil {
		switch n.Obj().Pkg().Path() {
		case "net", "bufio":
			return true
		}
	}
	return false
}

// flagRead recognizes a read of a boolean shutdown flag by name.
func (g *exitScan) flagRead(obj types.Object) bool {
	v, ok := obj.(*types.Var)
	if !ok || v.Type() == nil {
		return false
	}
	if !types.Identical(v.Type(), types.Typ[types.Bool]) {
		return false
	}
	switch v.Name() {
	case "closed", "done", "stop", "stopped", "stopping", "quit", "shutdown", "draining":
		return true
	}
	return false
}
