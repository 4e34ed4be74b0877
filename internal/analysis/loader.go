package analysis

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// The loader type-checks the whole module with only the standard library:
// packages inside the module are resolved by walking the source tree and
// checking them in dependency order; imports that leave the module (the
// standard library) are delegated to go/importer's source importer, which
// type-checks them from GOROOT/src. Disabling cgo keeps packages like net
// checkable from pure Go sources. A file whose name or build constraint
// excludes it from build.Default's platform is skipped, as go build skips it.

func init() {
	build.Default.CgoEnabled = false
}

var moduleRe = regexp.MustCompile(`(?m)^module\s+(\S+)`)

// FindModuleRoot walks up from dir to the directory containing go.mod.
func FindModuleRoot(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("analysis: no go.mod found above %s", dir)
		}
		dir = parent
	}
}

// modImporter resolves imports during type checking: module-internal
// packages come from the already-checked set, everything else from the
// stdlib source importer.
type modImporter struct {
	modPath string
	std     types.ImporterFrom
	local   map[string]*types.Package
}

func (m *modImporter) Import(path string) (*types.Package, error) {
	return m.ImportFrom(path, "", 0)
}

func (m *modImporter) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if p, ok := m.local[path]; ok {
		return p, nil
	}
	if m.modPath != "" && (path == m.modPath || strings.HasPrefix(path, m.modPath+"/")) {
		return nil, fmt.Errorf("analysis: module package %s not loaded (dependency cycle or walk gap)", path)
	}
	return m.std.ImportFrom(path, dir, mode)
}

// pkgSrc is one parsed-but-not-yet-checked package directory.
type pkgSrc struct {
	path    string
	dir     string
	files   []*ast.File
	imports []string // module-internal imports only
}

// LoadModule loads and type-checks every non-test package of the Go
// module rooted at root, in dependency order.
func LoadModule(root string) ([]*Package, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	modBytes, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, fmt.Errorf("analysis: %w", err)
	}
	m := moduleRe.FindSubmatch(modBytes)
	if m == nil {
		return nil, fmt.Errorf("analysis: no module directive in %s/go.mod", root)
	}
	modPath := string(m[1])

	fset := token.NewFileSet()
	srcs := map[string]*pkgSrc{}
	err = filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != root && (name == "testdata" || name == "vendor" ||
				strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		dir := filepath.Dir(path)
		if ok, err := build.Default.MatchFile(dir, d.Name()); err != nil || !ok {
			return err // another platform's file, or an unreadable one
		}
		rel, err := filepath.Rel(root, dir)
		if err != nil {
			return err
		}
		importPath := modPath
		if rel != "." {
			importPath = modPath + "/" + filepath.ToSlash(rel)
		}
		src := srcs[importPath]
		if src == nil {
			src = &pkgSrc{path: importPath, dir: dir}
			srcs[importPath] = src
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return fmt.Errorf("analysis: %w", err)
		}
		src.files = append(src.files, f)
		for _, imp := range f.Imports {
			ip, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				continue
			}
			if ip == modPath || strings.HasPrefix(ip, modPath+"/") {
				src.imports = append(src.imports, ip)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	order, err := topoSort(srcs)
	if err != nil {
		return nil, err
	}

	imp := &modImporter{
		modPath: modPath,
		std:     importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
		local:   map[string]*types.Package{},
	}
	var out []*Package
	for _, src := range order {
		pkg, err := check(fset, src, imp)
		if err != nil {
			return nil, err
		}
		imp.local[src.path] = pkg.Types
		out = append(out, pkg)
	}
	return out, nil
}

// LoadDir loads a single directory as one standalone package under the
// given import path (used by the analyzer corpus tests). The package may
// import only the standard library.
func LoadDir(dir, path string) (*Package, error) {
	fset := token.NewFileSet()
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	src := &pkgSrc{path: path, dir: dir}
	for _, e := range ents {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") || strings.HasSuffix(e.Name(), "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		src.files = append(src.files, f)
	}
	if len(src.files) == 0 {
		return nil, fmt.Errorf("analysis: no Go files in %s", dir)
	}
	imp := &modImporter{
		std:   importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
		local: map[string]*types.Package{},
	}
	return check(fset, src, imp)
}

// topoSort orders packages so every module-internal import precedes its
// importer.
func topoSort(srcs map[string]*pkgSrc) ([]*pkgSrc, error) {
	paths := make([]string, 0, len(srcs))
	for p := range srcs {
		paths = append(paths, p)
	}
	sort.Strings(paths)

	const (
		white = 0 // unvisited
		gray  = 1 // on the current DFS path
		black = 2 // done
	)
	state := map[string]int{}
	var order []*pkgSrc
	var visit func(path string, trail []string) error
	visit = func(path string, trail []string) error {
		src := srcs[path]
		if src == nil {
			return nil // import of a module path with no Go files; let the type checker complain
		}
		switch state[path] {
		case black:
			return nil
		case gray:
			return fmt.Errorf("analysis: import cycle: %s -> %s", strings.Join(trail, " -> "), path)
		}
		state[path] = gray
		deps := append([]string(nil), src.imports...)
		sort.Strings(deps)
		for _, dep := range deps {
			if err := visit(dep, append(trail, path)); err != nil {
				return err
			}
		}
		state[path] = black
		order = append(order, src)
		return nil
	}
	for _, p := range paths {
		if err := visit(p, nil); err != nil {
			return nil, err
		}
	}
	return order, nil
}

// check type-checks one package and bundles the result.
func check(fset *token.FileSet, src *pkgSrc, imp types.Importer) (*Package, error) {
	// Files must be checked in a stable order or positions of
	// redeclaration errors would jump around between runs.
	sort.Slice(src.files, func(i, j int) bool {
		return fset.Position(src.files[i].Pos()).Filename < fset.Position(src.files[j].Pos()).Filename
	})
	var errs []error
	conf := types.Config{
		Importer: imp,
		Error:    func(err error) { errs = append(errs, err) },
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
		Instances:  map[*ast.Ident]types.Instance{},
	}
	tpkg, err := conf.Check(src.path, fset, src.files, info)
	if len(errs) > 0 {
		msgs := make([]string, 0, len(errs))
		for i, e := range errs {
			if i == 8 {
				msgs = append(msgs, fmt.Sprintf("... and %d more errors", len(errs)-i))
				break
			}
			msgs = append(msgs, e.Error())
		}
		return nil, fmt.Errorf("analysis: type errors in %s:\n\t%s", src.path, strings.Join(msgs, "\n\t"))
	}
	if err != nil {
		return nil, fmt.Errorf("analysis: %s: %w", src.path, err)
	}
	return &Package{
		Path:  src.path,
		Dir:   src.dir,
		Fset:  fset,
		Files: src.files,
		Types: tpkg,
		Info:  info,
	}, nil
}
