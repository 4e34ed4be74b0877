package analysis

import "go/ast"

// flowWalk is the one path-sensitive statement walk under semplarvet: the
// held-lock tracker (lockheld and the summary builder) and the ownership
// scan (pooluse and spanbalance) run on it. It owns statement order, the
// control-flow statements and the join rule:
//
//   - a branch (if/else arm, loop body, case or comm clause) runs on a
//     clone of the state;
//   - the outcomes that fall through are joined back into the state, led
//     by the pre-state wherever the branch may not run at all (an if
//     without else, a loop, a switch, a select the rule says may skip);
//   - a branch whose list ends in return, panic or a branch statement
//     (break, continue, goto, fallthrough) terminates and does not reach
//     the join; when no outcome reaches it, the state is left as it was
//     before the statement.
//
// The rule supplies everything else through flowRule.
type flowWalk[S any] struct{ r flowRule[S] }

// flowRule is what a rule plugs into flowWalk. S is mutated in place, so
// it is a reference type (a map in every rule).
type flowRule[S any] interface {
	clone(s S) S
	// join replaces s with the join of outcomes (never empty).
	join(s S, outcomes []S)
	// leaf handles a non-control statement; an if or for condition or a
	// switch tag (an ast.Expr, nil when absent); and a range header (the
	// *ast.RangeStmt — its body is walked separately).
	leaf(n ast.Node, s S)
	// selectHeader sees a select before its clauses run and reports
	// whether the pre-state joins their outcomes.
	selectHeader(sel *ast.SelectStmt, s S) bool
	// openList and closeList bracket every statement list walked.
	openList()
	closeList(list []ast.Stmt, s S)
}

func (w flowWalk[S]) stmts(list []ast.Stmt, s S) {
	w.r.openList()
	for _, st := range list {
		w.stmt(st, s)
	}
	w.r.closeList(list, s)
}

// branch walks list on a clone of s and appends the clone to outs unless
// list terminates.
func (w flowWalk[S]) branch(outs []S, list []ast.Stmt, s S) []S {
	c := w.r.clone(s)
	w.stmts(list, c)
	if terminates(list) {
		return outs
	}
	return append(outs, c)
}

func (w flowWalk[S]) join(s S, outs []S) {
	if len(outs) > 0 {
		w.r.join(s, outs)
	}
}

func (w flowWalk[S]) stmt(st ast.Stmt, s S) {
	switch t := st.(type) {
	case *ast.LabeledStmt:
		w.stmt(t.Stmt, s)
	case *ast.BlockStmt:
		w.stmts(t.List, s)
	case *ast.IfStmt:
		w.stmt(t.Init, s)
		w.r.leaf(t.Cond, s)
		outs := w.branch(nil, t.Body.List, s)
		if t.Else != nil {
			outs = w.branch(outs, []ast.Stmt{t.Else}, s)
		} else {
			outs = append(outs, w.r.clone(s))
		}
		w.join(s, outs)
	case *ast.ForStmt:
		w.stmt(t.Init, s)
		w.r.leaf(t.Cond, s)
		body := w.r.clone(s)
		w.stmts(t.Body.List, body)
		// The post statement runs after the body, but its effects never
		// reach the join.
		w.stmt(t.Post, w.r.clone(body))
		outs := []S{w.r.clone(s)}
		if !terminates(t.Body.List) {
			outs = append(outs, body)
		}
		w.join(s, outs)
	case *ast.RangeStmt:
		w.r.leaf(t, s)
		w.join(s, w.branch([]S{w.r.clone(s)}, t.Body.List, s))
	case *ast.SwitchStmt:
		w.stmt(t.Init, s)
		w.r.leaf(t.Tag, s)
		w.clauses(t.Body, s, true)
	case *ast.TypeSwitchStmt:
		w.stmt(t.Init, s)
		w.stmt(t.Assign, s)
		w.clauses(t.Body, s, true)
	case *ast.SelectStmt:
		w.clauses(t.Body, s, w.r.selectHeader(t, s))
	default:
		w.r.leaf(st, s)
	}
}

// clauses walks each case or comm clause of a switch or select body as a
// branch and joins the outcomes, led by the pre-state when pre is set.
func (w flowWalk[S]) clauses(body *ast.BlockStmt, s S, pre bool) {
	var outs []S
	if pre {
		outs = append(outs, w.r.clone(s))
	}
	for _, c := range body.List {
		switch cc := c.(type) {
		case *ast.CaseClause:
			outs = w.branch(outs, cc.Body, s)
		case *ast.CommClause:
			outs = w.branch(outs, cc.Body, s)
		}
	}
	w.join(s, outs)
}

// terminates reports whether a statement list ends by leaving the
// enclosing control flow, so its state changes cannot reach the code after
// the branch.
func terminates(list []ast.Stmt) bool {
	if len(list) == 0 {
		return false
	}
	switch last := list[len(list)-1].(type) {
	case *ast.ReturnStmt, *ast.BranchStmt:
		return true
	case *ast.ExprStmt:
		if call, ok := last.X.(*ast.CallExpr); ok {
			if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "panic" {
				return true
			}
		}
	}
	return false
}
