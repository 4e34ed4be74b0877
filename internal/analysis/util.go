package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
)

// fileName returns the base name of the file containing pos.
func (p *Package) fileName(pos token.Pos) string {
	return filepath.Base(p.Fset.Position(pos).Filename)
}

// deref strips one level of pointer.
func deref(t types.Type) types.Type {
	if pt, ok := t.Underlying().(*types.Pointer); ok {
		return pt.Elem()
	}
	return t
}

// namedOf returns the named type behind t (through one pointer), or nil.
func namedOf(t types.Type) *types.Named {
	if t == nil {
		return nil
	}
	if pt, ok := t.Underlying().(*types.Pointer); ok {
		t = pt.Elem()
	}
	n, _ := t.(*types.Named)
	return n
}

// isNamed reports whether t (through one pointer) is the named type
// pkgPath.name.
func isNamed(t types.Type, pkgPath, name string) bool {
	n := namedOf(t)
	if n == nil {
		return false
	}
	obj := n.Obj()
	return obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == pkgPath && obj.Name() == name
}

// isMutexType reports whether t (through one pointer) is sync.Mutex or
// sync.RWMutex.
func isMutexType(t types.Type) bool {
	return isNamed(t, "sync", "Mutex") || isNamed(t, "sync", "RWMutex")
}

// callee resolves the object a call invokes: a *types.Func for methods and
// declared functions, a *types.Var for calls through function-typed values,
// nil for builtins, conversions and indirect calls.
func (p *Package) callee(call *ast.CallExpr) types.Object {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return p.Info.Uses[fun]
	case *ast.SelectorExpr:
		if sel, ok := p.Info.Selections[fun]; ok {
			return sel.Obj()
		}
		return p.Info.Uses[fun.Sel] // package-qualified function
	}
	return nil
}

// calleeFunc is callee narrowed to *types.Func.
func (p *Package) calleeFunc(call *ast.CallExpr) *types.Func {
	fn, _ := p.callee(call).(*types.Func)
	return fn
}

// recvTypeOf returns the static type of a method call's receiver
// expression, or nil when the call is not a selector method call.
func (p *Package) recvTypeOf(call *ast.CallExpr) types.Type {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	if _, ok := p.Info.Selections[sel]; !ok {
		return nil // package-qualified call, not a method
	}
	return p.Info.TypeOf(sel.X)
}

// returnsError reports whether the call's last result is the error type.
func (p *Package) returnsError(call *ast.CallExpr) bool {
	t := p.Info.TypeOf(call)
	if t == nil {
		return false
	}
	if tup, ok := t.(*types.Tuple); ok {
		if tup.Len() == 0 {
			return false
		}
		t = tup.At(tup.Len() - 1).Type()
	}
	return types.Identical(t, types.Universe.Lookup("error").Type())
}

// rootIdent unwraps a selector/index/paren/star chain to its leftmost
// identifier: f.streams[i].gen -> f. Returns nil when the chain is rooted
// in a call or literal.
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.UnaryExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// funcScope identifies the innermost function (declaration or literal) a
// node belongs to; used to scope per-function facts like "locks mu".
type funcScope struct {
	node ast.Node       // *ast.FuncDecl or *ast.FuncLit
	body *ast.BlockStmt // its body
	name string         // display name ("(*Conn).call", "func literal")
}

// funcScopes walks a file and calls visit for every function body with its
// scope. Nested literals get their own scope.
func funcScopes(f *ast.File, visit func(sc *funcScope)) {
	ast.Inspect(f, func(n ast.Node) bool {
		switch fn := n.(type) {
		case *ast.FuncDecl:
			if fn.Body != nil {
				visit(&funcScope{node: fn, body: fn.Body, name: funcDeclName(fn)})
			}
		case *ast.FuncLit:
			visit(&funcScope{node: fn, body: fn.Body, name: "func literal"})
		}
		return true
	})
}

func funcDeclName(fn *ast.FuncDecl) string {
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return fn.Name.Name
	}
	recv := types.ExprString(fn.Recv.List[0].Type)
	return "(" + recv + ")." + fn.Name.Name
}

// ownNodes walks the nodes of root that belong to its function, without
// descending into nested function literals.
func ownNodes(root ast.Node, visit func(n ast.Node) bool) {
	ast.Inspect(root, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if n == nil {
			return true
		}
		return visit(n)
	})
}
