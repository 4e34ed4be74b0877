// Package analysis implements semplarvet, SEMPLAR's project-specific
// static analyzer suite. It is built purely on the standard library's
// go/parser, go/ast and go/types (no x/tools dependency, honoring the
// repository's stdlib-only rule) and encodes the concurrency and
// wire-protocol invariants that previously lived only in comments:
//
//   - lockheld: a mutex must not be held across blocking operations
//     (channel ops, select, interface/net/bufio I/O, time.Sleep, Wait).
//   - guardedfield: struct fields annotated "// guarded by <mu>" may only
//     be accessed by functions that lock that mutex.
//   - wireproto: every opcode declared in proto.go must appear in both the
//     client dispatch and the server handler switch.
//   - errdrop: error results of write-path io/net/srb/storage calls must
//     not be discarded.
//   - determinism: packages with a clock.go must route wall-clock and
//     randomness through it, keeping simulations reproducible.
//
// On top of those per-function rules sits a small interprocedural layer
// (summary.go): a package-level call graph with one summary per function
// — locks acquired, parameters released or Ended, pool-owned returns —
// propagated to a fixpoint. Three rules consume it:
//
//   - pooluse: every getBuf reaches exactly one putBuf on every path; no
//     use-after-put, double put, or escape into long-lived state.
//   - lockorder: the package-wide mutex acquisition graph (including
//     acquisitions made through calls) must be cycle-free.
//   - spanbalance: every trace span Begin has an End on all paths.
//
// Invariants a test or the data's own structure can hold are not rules:
// the wire header layout (srb's TestHeaderRoundTrip), the classification
// of srb errors (srb's error table) and goroutine exit (the engine and
// chaos leak checks).
//
// One path-sensitive statement walker (walk.go) serves the lock rules and
// the ownership rules: lockheld and the summary builder share one
// held-lock tracker on it, and pooluse and spanbalance share one
// ownership rule (flow.go).
//
// Deliberate exceptions are annotated in the source with a
// "//lint:allow <rule>[,<rule>...] -- reason" pragma, which suppresses
// findings on the pragma's line and the line below it.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"
)

// Diagnostic is one finding, positioned for file:line reporting.
type Diagnostic struct {
	Pos     token.Position
	Rule    string
	Message string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Rule, d.Message)
}

// Package is one loaded, type-checked package under analysis.
type Package struct {
	Path  string // import path
	Dir   string // source directory
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info

	summ *pkgSummaries // lazily built interprocedural summaries (see summary.go)
}

// Analyzer is one semplarvet rule.
type Analyzer interface {
	// Name is the rule name used in reports and //lint:allow pragmas.
	Name() string
	// Doc is a one-line description of the invariant enforced.
	Doc() string
	// Run reports the rule's findings in pkg.
	Run(pkg *Package) []Diagnostic
}

// Analyzers returns the full suite in report order.
func Analyzers() []Analyzer {
	return []Analyzer{
		lockheld{},
		guardedfield{},
		wireproto{},
		errdrop{},
		determinism{},
		pooluse{},
		lockorder{},
		spanbalance{},
	}
}

// Run applies the analyzers to pkg, drops findings suppressed by
// //lint:allow pragmas and returns the rest sorted by position.
func Run(pkg *Package, analyzers []Analyzer) []Diagnostic {
	allowed := collectAllows(pkg)
	var out []Diagnostic
	for _, a := range analyzers {
		for _, d := range a.Run(pkg) {
			if allowed.permits(d) {
				continue
			}
			out = append(out, d)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Rule < b.Rule
	})
	return out
}

// allowRe matches the suppression pragma. Anything after " -- " is a
// free-form justification and is ignored by the machinery (but expected
// by reviewers).
var allowRe = regexp.MustCompile(`lint:allow\s+([A-Za-z0-9_,-]+)`)

// allowSet records which rules are suppressed on which file:line.
type allowSet map[string]map[string]bool

func (s allowSet) permits(d Diagnostic) bool {
	rules := s[fmt.Sprintf("%s:%d", d.Pos.Filename, d.Pos.Line)]
	return rules != nil && (rules[d.Rule] || rules["all"])
}

// collectAllows indexes every //lint:allow pragma in the package. A pragma
// suppresses matching findings on its own line (trailing comment) and on
// the following line (standalone comment above the flagged statement).
func collectAllows(pkg *Package) allowSet {
	out := allowSet{}
	add := func(file string, line int, rule string) {
		key := fmt.Sprintf("%s:%d", file, line)
		if out[key] == nil {
			out[key] = map[string]bool{}
		}
		out[key][rule] = true
	}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := allowRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				for _, rule := range strings.Split(m[1], ",") {
					rule = strings.TrimSpace(rule)
					if rule == "" {
						continue
					}
					add(pos.Filename, pos.Line, rule)
					add(pos.Filename, pos.Line+1, rule)
				}
			}
		}
	}
	return out
}

// diag builds a Diagnostic at pos.
func (p *Package) diag(pos token.Pos, rule, format string, args ...interface{}) Diagnostic {
	return Diagnostic{
		Pos:     p.Fset.Position(pos),
		Rule:    rule,
		Message: fmt.Sprintf(format, args...),
	}
}
