package analysis

import (
	"os"
	"path/filepath"
	"testing"
)

// The summary builder is the substrate three rules stand on, so its edge
// cases get direct tests: recursion must terminate, dynamic dispatch must
// yield no call edge (unknown callee, not "does nothing"), and the
// ownership fixpoints must flow through wrapper chains.

func loadSrc(t *testing.T, src string) *pkgSummaries {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "p.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	pkg, err := LoadDir(dir, "example.com/summtest")
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	return pkg.summaries()
}

func fnSummary(t *testing.T, ps *pkgSummaries, name string) *funcSummary {
	t.Helper()
	for fn, s := range ps.funcs {
		if fn.Name() == name {
			return s
		}
	}
	t.Fatalf("no summary for function %q", name)
	return nil
}

func TestSummaryBuilder(t *testing.T) {
	cases := []struct {
		name  string
		src   string
		check func(t *testing.T, ps *pkgSummaries)
	}{
		{
			name: "self recursion terminates",
			src: `package p
import "sync"
var mu sync.Mutex
func rec(n int) {
	mu.Lock()
	mu.Unlock()
	if n > 0 {
		rec(n - 1)
	}
}
`,
			check: func(t *testing.T, ps *pkgSummaries) {
				s := fnSummary(t, ps, "rec")
				acq := ps.transitiveAcquires(s.fn)
				if len(acq) != 1 {
					t.Errorf("transitiveAcquires(rec) has %d locks, want 1", len(acq))
				}
			},
		},
		{
			name: "mutual recursion merges both lock sets",
			src: `package p
import "sync"
var muA, muB sync.Mutex
func ping(n int) {
	muA.Lock()
	muA.Unlock()
	if n > 0 {
		pong(n - 1)
	}
}
func pong(n int) {
	muB.Lock()
	muB.Unlock()
	ping(n)
}
`,
			check: func(t *testing.T, ps *pkgSummaries) {
				for _, name := range []string{"ping", "pong"} {
					s := fnSummary(t, ps, name)
					if acq := ps.transitiveAcquires(s.fn); len(acq) != 2 {
						t.Errorf("transitiveAcquires(%s) has %d locks, want 2 (both sides of the cycle)", name, len(acq))
					}
				}
			},
		},
		{
			name: "method values resolve to no call edge",
			src: `package p
import "sync"
type c struct{ mu sync.Mutex }
func (v *c) run() {
	v.mu.Lock()
	v.mu.Unlock()
}
func launch(v *c) {
	f := v.run
	f()
	go f()
}
`,
			check: func(t *testing.T, ps *pkgSummaries) {
				s := fnSummary(t, ps, "launch")
				if len(s.calls) != 0 {
					t.Errorf("launch has %d call edges, want 0: calls through method values are unresolvable", len(s.calls))
				}
				if acq := ps.transitiveAcquires(s.fn); len(acq) != 0 {
					t.Errorf("launch transitively acquires %d locks, want 0", len(acq))
				}
			},
		},
		{
			name: "interface dispatch attributes nothing",
			src: `package p
import "sync"
type worker interface{ work() }
type impl struct{ mu sync.Mutex }
func (i *impl) work() {
	i.mu.Lock()
	i.mu.Unlock()
}
func drive(w worker) {
	w.work()
}
`,
			check: func(t *testing.T, ps *pkgSummaries) {
				s := fnSummary(t, ps, "drive")
				if len(s.calls) != 0 {
					t.Errorf("drive has %d call edges, want 0: interface dispatch is unresolvable", len(s.calls))
				}
				if acq := ps.transitiveAcquires(s.fn); len(acq) != 0 {
					t.Errorf("drive transitively acquires %d locks, want 0", len(acq))
				}
			},
		},
		{
			name: "returnsPooled flows through wrapper chains",
			src: `package p
func getBuf(n int) []byte { return make([]byte, n) }
func putBuf(b []byte)     {}
func alloc() []byte  { return getBuf(8) }
func wrap() []byte   { return alloc() }
func rewrap() []byte { return wrap() }
func plain() []byte  { return make([]byte, 8) }
`,
			check: func(t *testing.T, ps *pkgSummaries) {
				for _, name := range []string{"alloc", "wrap", "rewrap"} {
					if !fnSummary(t, ps, name).returnsPooled {
						t.Errorf("%s.returnsPooled = false, want true", name)
					}
				}
				if fnSummary(t, ps, "plain").returnsPooled {
					t.Error("plain.returnsPooled = true, want false: make is not pool-owned")
				}
			},
		},
		{
			name: "releasesParams is transitive",
			src: `package p
func getBuf(n int) []byte { return make([]byte, n) }
func putBuf(b []byte)     {}
func rel(b []byte)  { putBuf(b) }
func rel2(b []byte) { rel(b) }
func keep(b []byte) { _ = b[0] }
`,
			check: func(t *testing.T, ps *pkgSummaries) {
				for _, name := range []string{"rel", "rel2"} {
					if !fnSummary(t, ps, name).releasesParams[0] {
						t.Errorf("%s.releasesParams[0] = false, want true", name)
					}
				}
				if fnSummary(t, ps, "keep").releasesParams[0] {
					t.Error("keep.releasesParams[0] = true, want false")
				}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tc.check(t, loadSrc(t, tc.src))
		})
	}
}
