package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"maps"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// setRule is a toy flowRule over a set of strings: add("x") and del("x")
// calls, as statements or as condition, tag and range operands, put x in
// and take it out; probe() records the state where it runs. Its join is
// the union, like the held-lock tracker's.
type setRule struct {
	preOnDefault bool // select joins the pre-state only when it has a default
	probes       []string
	depth        int // open statement lists
}

type strSet map[string]bool

func (r *setRule) clone(s strSet) strSet { return maps.Clone(s) }

func (r *setRule) join(s strSet, outcomes []strSet) {
	clear(s)
	for _, o := range outcomes {
		maps.Copy(s, o)
	}
}

func (r *setRule) leaf(n ast.Node, s strSet) {
	switch x := n.(type) {
	case *ast.ExprStmt:
		r.leaf(x.X, s)
	case *ast.RangeStmt:
		r.leaf(x.X, s)
	case *ast.CallExpr:
		fn, _ := x.Fun.(*ast.Ident)
		if fn == nil {
			return
		}
		if fn.Name == "probe" {
			r.probes = append(r.probes, setString(s))
			return
		}
		arg, _ := x.Args[0].(*ast.BasicLit)
		v, _ := strconv.Unquote(arg.Value)
		switch fn.Name {
		case "add":
			s[v] = true
		case "del":
			delete(s, v)
		}
	}
}

func (r *setRule) selectHeader(sel *ast.SelectStmt, s strSet) bool {
	if !r.preOnDefault {
		return true
	}
	for _, c := range sel.Body.List {
		if c.(*ast.CommClause).Comm == nil {
			return true
		}
	}
	return false
}

func (r *setRule) openList()                    { r.depth++ }
func (r *setRule) closeList([]ast.Stmt, strSet) { r.depth-- }

func setString(s strSet) string {
	keys := make([]string, 0, len(s))
	for k := range s {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return strings.Join(keys, ",")
}

// TestFlowWalk pins the walker's branch and join semantics directly: each
// body runs from the empty set, and want is the joined state at the end.
func TestFlowWalk(t *testing.T) {
	cases := []struct {
		name         string
		body         string
		preOnDefault bool
		want         string
		probes       string // probe() states, ";"-separated
	}{
		{name: "if without else joins the pre-state",
			body: `add("a"); if c { del("a"); add("b") }`, want: "a,b"},
		{name: "if with else joins only the arms",
			body: `add("a"); if c { del("a"); add("b") } else { del("a"); add("c") }`, want: "b,c"},
		{name: "else if chains nest",
			body: `add("a"); if c { del("a") } else if d { add("d") }`, want: "a,d"},
		{name: "terminating arm does not reach the join",
			body: `add("a"); if c { del("a"); return }`, want: "a"},
		{name: "break, continue and panic terminate",
			body: `for { add("b"); break }; for range xs { add("r"); continue }; if c { add("p"); panic(0) }`, want: ""},
		{name: "an else block is one statement: its trailing return does not count",
			body: `add("a"); if c { del("a"); return } else { del("a"); add("e"); return }`, want: "e"},
		{name: "condition operands run before the arms",
			body: `if add("c") { del("c"); return }`, want: "c"},
		{name: "for joins pre-state and body; post sees the body, reaches nothing",
			body: `add("a"); for i := 0; add("cond"); add("post") { del("a"); add("b"); probe() }; probe()`,
			want: "a,b,cond", probes: "b,cond;a,b,cond"},
		{name: "for post runs on the body state",
			body: `for ; c; probe() { add("b") }`, want: "b", probes: "b"},
		{name: "range joins pre-state and body",
			body: `add("a"); for range add("x") { del("a"); add("r") }`, want: "a,r,x"},
		{name: "switch with default still joins the pre-state",
			body: `add("a"); switch x { case 1: del("a"); add("one"); default: del("a") }`, want: "a,one"},
		{name: "switch without default",
			body: `add("a"); switch add("t") { case 1: del("a"); add("b"); case 2: del("a"); return }`, want: "a,b,t"},
		{name: "type switch",
			body: `add("a"); switch v := x.(type) { case int: del("a"); return; case string: add("s") }`, want: "a,s"},
		{name: "select without default, pre-state always joins",
			body: `add("a"); select { case <-ch: del("a"); case ch <- 1: del("a"); add("b") }`, want: "a,b"},
		{name: "select without default, pre-state joins only with a default",
			body:         `add("a"); select { case <-ch: del("a"); case ch <- 1: del("a"); add("b") }`,
			preOnDefault: true, want: "b"},
		{name: "select with default, pre-state joins either way",
			body:         `add("a"); select { case <-ch: del("a"); default: del("a"); add("d") }`,
			preOnDefault: true, want: "a,d"},
		{name: "select whose clauses all terminate keeps the state",
			body:         `add("a"); select { case <-ch: del("a"); return }`,
			preOnDefault: true, want: "a"},
		{name: "labeled statements walk their statement",
			body: `L: { add("l") }; M: for { add("m"); break M }`, want: "l"},
		{name: "nested blocks run in place",
			body: `{ add("a"); { del("a"); add("b"); probe() } }`, want: "b", probes: "b"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f, err := parser.ParseFile(token.NewFileSet(), "p.go", "package p\nfunc f() {\n"+tc.body+"\n}\n", 0)
			if err != nil {
				t.Fatal(err)
			}
			r := &setRule{preOnDefault: tc.preOnDefault}
			s := strSet{}
			flowWalk[strSet]{r}.stmts(f.Decls[0].(*ast.FuncDecl).Body.List, s)
			if got := setString(s); got != tc.want {
				t.Errorf("joined state = {%s}, want {%s}", got, tc.want)
			}
			if got := strings.Join(r.probes, ";"); got != tc.probes {
				t.Errorf("probes = %q, want %q", got, tc.probes)
			}
			if r.depth != 0 {
				t.Errorf("%d statement lists opened but not closed", r.depth)
			}
		})
	}
}
