package analysis

import (
	"fmt"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strings"
)

// lockorder builds the package-wide mutex acquisition-order graph and
// reports cycles: if one code path takes A then B and another takes B
// then A, two goroutines can deadlock. Edges come from two sources:
//
//   - intraprocedural: B.Lock() reached while A is held (the held-lock
//     tracker lockheld runs, keyed by lock identity), and
//   - interprocedural: a call made while A is held, into a function whose
//     transitive summary acquires B.
//
// Locks are identified by their field or package-variable object, so
// "c.mu then c.wmu" orders the same way in every function regardless of
// receiver name. Self-edges (the same field locked on two instances) are
// instance-aliasing questions the graph cannot decide and are skipped.
type lockorder struct{}

func (lockorder) Name() string { return "lockorder" }
func (lockorder) Doc() string {
	return "the package-wide mutex acquisition graph must be cycle-free (a cycle is a potential deadlock)"
}

// lockEdge is one observed "outer held while inner acquired" ordering.
type lockEdge struct {
	pos   token.Pos // where the ordering was observed
	fn    string    // function it was observed in
	inner string    // display name of what was acquired (call chain included)
}

func (lockorder) Run(pkg *Package) []Diagnostic {
	ps := pkg.summaries()

	// Collect the edge set; keep the lexically first witness per edge.
	edges := map[types.Object]map[types.Object]lockEdge{}
	addEdge := func(outer, inner types.Object, e lockEdge) {
		if outer == inner {
			return
		}
		if edges[outer] == nil {
			edges[outer] = map[types.Object]lockEdge{}
		}
		if old, ok := edges[outer][inner]; !ok || e.pos < old.pos {
			edges[outer][inner] = e
		}
	}
	for _, s := range ps.order {
		for _, pr := range s.pairs {
			addEdge(pr.outer, pr.inner, lockEdge{
				pos:   pr.pos,
				fn:    s.name,
				inner: ps.lockNames[pr.inner],
			})
		}
		for _, hc := range s.heldCalls {
			for inner := range ps.transitiveAcquires(hc.callee) {
				for _, outer := range hc.held {
					addEdge(outer, inner, lockEdge{
						pos:   hc.pos,
						fn:    s.name,
						inner: fmt.Sprintf("%s (via %s)", ps.lockNames[inner], hc.callee.Name()),
					})
				}
			}
		}
	}
	if len(edges) == 0 {
		return nil
	}

	// Deterministic node order: by display name, then by object position.
	nodeSet := map[types.Object]bool{}
	for outer, ins := range edges {
		nodeSet[outer] = true
		for inner := range ins {
			nodeSet[inner] = true
		}
	}
	nodes := make([]types.Object, 0, len(nodeSet))
	for n := range nodeSet {
		nodes = append(nodes, n)
	}
	name := func(o types.Object) string {
		if n := ps.lockNames[o]; n != "" {
			return n
		}
		return o.Name()
	}
	sort.Slice(nodes, func(i, j int) bool {
		if a, b := name(nodes[i]), name(nodes[j]); a != b {
			return a < b
		}
		return nodes[i].Pos() < nodes[j].Pos()
	})
	succ := func(o types.Object) []types.Object {
		out := make([]types.Object, 0, len(edges[o]))
		for inner := range edges[o] {
			out = append(out, inner)
		}
		sort.Slice(out, func(i, j int) bool {
			if a, b := name(out[i]), name(out[j]); a != b {
				return a < b
			}
			return out[i].Pos() < out[j].Pos()
		})
		return out
	}

	// DFS cycle detection; one report per distinct cycle node-set.
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := map[types.Object]int{}
	var stack []types.Object
	var diags []Diagnostic
	reported := map[string]bool{}

	report := func(from, to types.Object) {
		// Reconstruct the cycle: to ... from -> to.
		start := 0
		for i, n := range stack {
			if n == to {
				start = i
				break
			}
		}
		cycle := append(append([]types.Object{}, stack[start:]...), to)
		names := make([]string, len(cycle))
		for i, n := range cycle {
			names[i] = name(n)
		}
		key := strings.Join(sortedCopy(names), "|")
		if reported[key] {
			return
		}
		reported[key] = true
		e := edges[from][to]
		// Cite the reverse ordering so the report is actionable.
		reverse := ""
		if len(cycle) == 3 { // two-lock cycle: to -> from -> to
			if re, ok := edges[to][from]; ok {
				rp := pkg.Fset.Position(re.pos)
				reverse = fmt.Sprintf("; reverse order in %s at %s:%d",
					re.fn, filepath.Base(rp.Filename), rp.Line)
			}
		}
		diags = append(diags, pkg.diag(e.pos, "lockorder",
			"lock order cycle %s: %s acquires %s while holding %s%s",
			strings.Join(names, " -> "), e.fn, e.inner, name(from), reverse))
	}

	var visit func(n types.Object)
	visit = func(n types.Object) {
		color[n] = gray
		stack = append(stack, n)
		for _, m := range succ(n) {
			switch color[m] {
			case white:
				visit(m)
			case gray:
				report(n, m)
			}
		}
		stack = stack[:len(stack)-1]
		color[n] = black
	}
	for _, n := range nodes {
		if color[n] == white {
			visit(n)
		}
	}
	return diags
}

func sortedCopy(s []string) []string {
	c := append([]string{}, s...)
	sort.Strings(c)
	return c
}
