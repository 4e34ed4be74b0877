package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// wireproto checks the SRB wire protocol for exhaustiveness, in any
// package that declares opcode constants in a file named proto.go: every
// opcode constant (an identifier matching ^op[A-Z]) must appear in a case
// clause of the server dispatch switch (server.go) AND be referenced by
// the client side (any other file). A new opcode wired into only one side
// is caught at the constant's declaration. The header layout is held by
// the srb package's TestHeaderRoundTrip, not here.
type wireproto struct{}

func (wireproto) Name() string { return "wireproto" }
func (wireproto) Doc() string {
	return "every opcode must be handled by the server dispatch and issued by the client"
}

func (wireproto) Run(pkg *Package) []Diagnostic {
	// Opcode constants declared in proto.go, in declaration order.
	type opConst struct {
		obj *types.Const
		pos token.Pos
	}
	var ops []opConst
	opSet := map[types.Object]bool{}
	for _, f := range pkg.Files {
		if pkg.fileName(f.Pos()) != "proto.go" {
			continue
		}
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.CONST {
				continue
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for _, name := range vs.Names {
					if !isOpcodeName(name.Name) {
						continue
					}
					if c, ok := pkg.Info.Defs[name].(*types.Const); ok {
						ops = append(ops, opConst{obj: c, pos: name.Pos()})
						opSet[c] = true
					}
				}
			}
		}
	}
	if len(ops) == 0 {
		return nil
	}

	handled := map[types.Object]bool{} // appears in a server.go case clause
	sent := map[types.Object]bool{}    // referenced anywhere else
	for _, f := range pkg.Files {
		name := pkg.fileName(f.Pos())
		if name == "proto.go" {
			continue
		}
		if name == "server.go" {
			ast.Inspect(f, func(n ast.Node) bool {
				cc, ok := n.(*ast.CaseClause)
				if !ok {
					return true
				}
				for _, e := range cc.List {
					if id, ok := ast.Unparen(e).(*ast.Ident); ok {
						if obj := pkg.Info.Uses[id]; obj != nil && opSet[obj] {
							handled[obj] = true
						}
					}
				}
				return true
			})
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			if obj := pkg.Info.Uses[id]; obj != nil && opSet[obj] {
				sent[obj] = true
			}
			return true
		})
	}

	var diags []Diagnostic
	for _, op := range ops {
		if !handled[op.obj] {
			diags = append(diags, pkg.diag(op.pos, "wireproto",
				"opcode %s has no case in the server dispatch switch (server.go)", op.obj.Name()))
		}
		if !sent[op.obj] {
			diags = append(diags, pkg.diag(op.pos, "wireproto",
				"opcode %s is never issued by the client side", op.obj.Name()))
		}
	}
	return diags
}

func isOpcodeName(name string) bool {
	return len(name) > 2 && strings.HasPrefix(name, "op") &&
		name[2] >= 'A' && name[2] <= 'Z'
}
