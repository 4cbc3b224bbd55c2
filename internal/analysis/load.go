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
	"sort"
	"strconv"
	"strings"
)

// Unit is one loaded, type-checked package.
type Unit struct {
	// Path is the import path ("morc/internal/sim"). Fixture packages
	// under testdata keep their full path.
	Path string
	// Dir is the package directory on disk.
	Dir string
	// Lint marks units matched by a load pattern; dependency-closure
	// units are loaded and type-checked but not analyzed.
	Lint bool
	// Files are the type-checked (non-test) package files.
	Files []*ast.File
	// TestFiles are the directory's *_test.go files (both in-package and
	// external test packages), parsed but not type-checked. Passes that
	// audit test coverage (invariants) scan these syntactically.
	TestFiles []*ast.File
	// Pkg and Info hold type-checking results for Files.
	Pkg  *types.Package
	Info *types.Info
}

// Fixture returns the pass name a testdata fixture package belongs to
// ("" for regular packages): its fixtureDir with any "_variant" suffix
// stripped, so "testdata/src/dettaint_core_ignore" exercises the
// dettaint pass.
func (u *Unit) Fixture() string {
	pass, _, _ := strings.Cut(u.fixtureDir(), "_")
	return pass
}

// fixtureDir returns the first path segment after "testdata/src/" (""
// for regular packages).
func (u *Unit) fixtureDir() string {
	_, rest, ok := strings.Cut(u.Path, "/testdata/src/")
	if !ok {
		return ""
	}
	dir, _, _ := strings.Cut(rest, "/")
	return dir
}

// InPaths reports whether the unit's import path is one of the given
// module-relative package paths or lies under one of them.
func (u *Unit) InPaths(prog *Program, paths ...string) bool {
	for _, p := range paths {
		full := prog.ModPath + "/" + p
		if u.Path == full || strings.HasPrefix(u.Path, full+"/") {
			return true
		}
	}
	return false
}

// Program is a loaded module: all units plus the shared FileSet.
type Program struct {
	Fset    *token.FileSet
	ModPath string
	ModRoot string
	Units   []*Unit
	// TypeErrors collects type-checking failures. Analysis proceeds on a
	// best-effort basis, but cmd/morclint reports them and exits nonzero.
	TypeErrors []error

	byPath   map[string]*Unit
	cg       *CallGraph                     // built lazily by CallGraph(), shared by all passes
	findings map[string]map[*Unit][]Finding // whole-program results, by pass (analyzeOnce)
}

// UnitFor returns the unit with the given import path, if loaded.
func (prog *Program) UnitFor(path string) (*Unit, bool) {
	u, ok := prog.byPath[path]
	return u, ok
}

// Load parses and type-checks the packages matched by patterns (plus
// their module-internal dependency closure). Patterns are directories
// relative to dir, with the go-tool "..." suffix for recursive walks;
// walks skip testdata directories, but a testdata package named
// explicitly (or walked from inside testdata) is loaded normally.
func Load(dir string, patterns ...string) (*Program, error) {
	root, err := findModRoot(dir)
	if err != nil {
		return nil, err
	}
	modPath, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	prog := &Program{
		Fset:    token.NewFileSet(),
		ModPath: modPath,
		ModRoot: root,
		byPath:  map[string]*Unit{},
	}

	dirs, err := expandPatterns(dir, patterns)
	if err != nil {
		return nil, err
	}
	for _, d := range dirs {
		if _, err := prog.load(d, true); err != nil {
			return nil, err
		}
	}
	if err := prog.typecheck(); err != nil {
		return nil, err
	}
	sort.Slice(prog.Units, func(i, j int) bool { return prog.Units[i].Path < prog.Units[j].Path })
	return prog, nil
}

// findModRoot walks up from dir to the directory containing go.mod.
func findModRoot(dir string) (string, error) {
	d, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(d, "go.mod")); err == nil {
			return d, nil
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", fmt.Errorf("analysis: no go.mod found above %s", dir)
		}
		d = parent
	}
}

// modulePath reads the module directive from a go.mod file.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			rest = strings.TrimSpace(rest)
			if p, err := strconv.Unquote(rest); err == nil {
				return p, nil
			}
			return rest, nil
		}
	}
	return "", fmt.Errorf("analysis: no module directive in %s", gomod)
}

// expandPatterns resolves load patterns to package directories.
func expandPatterns(base string, patterns []string) ([]string, error) {
	seen := map[string]bool{}
	var out []string
	add := func(d string) {
		if !seen[d] {
			seen[d] = true
			out = append(out, d)
		}
	}
	for _, pat := range patterns {
		if rest, ok := strings.CutSuffix(pat, "..."); ok {
			rest = strings.TrimSuffix(rest, "/")
			start := filepath.FromSlash(rest)
			if !filepath.IsAbs(start) {
				start = filepath.Join(base, start)
			}
			err := filepath.WalkDir(start, func(path string, de os.DirEntry, err error) error {
				if err != nil {
					return err
				}
				if !de.IsDir() {
					return nil
				}
				name := de.Name()
				if path != start && (name == "testdata" || name == "vendor" ||
					strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
					return filepath.SkipDir
				}
				if hasGoFiles(path) {
					add(path)
				}
				return nil
			})
			if err != nil {
				return nil, err
			}
			continue
		}
		d := filepath.FromSlash(pat)
		if !filepath.IsAbs(d) {
			d = filepath.Join(base, d)
		}
		if !hasGoFiles(d) {
			return nil, fmt.Errorf("analysis: no Go files in %s", d)
		}
		add(d)
	}
	return out, nil
}

func hasGoFiles(dir string) bool {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range ents {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			return true
		}
	}
	return false
}

// load parses the package in dir (once), registering it under its
// module-relative import path, and recursively loads module-internal
// imports as non-lint dependency units.
func (prog *Program) load(dir string, lint bool) (*Unit, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	rel, err := filepath.Rel(prog.ModRoot, abs)
	if err != nil || strings.HasPrefix(rel, "..") {
		return nil, fmt.Errorf("analysis: %s is outside module %s", dir, prog.ModRoot)
	}
	path := prog.ModPath
	if rel != "." {
		path = prog.ModPath + "/" + filepath.ToSlash(rel)
	}
	if u, ok := prog.byPath[path]; ok {
		u.Lint = u.Lint || lint
		return u, nil
	}

	u := &Unit{Path: path, Dir: abs, Lint: lint}
	prog.byPath[path] = u
	prog.Units = append(prog.Units, u)

	ents, err := os.ReadDir(abs)
	if err != nil {
		return nil, err
	}
	pkgNames := map[string]bool{}
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
			continue
		}
		// Only the files the go command builds on this host: a file
		// and its other-architecture twin (internal/rng's lanes_amd64.go
		// and lanes_other.go) declare the same names.
		if ok, err := build.Default.MatchFile(abs, name); err != nil {
			return nil, fmt.Errorf("analysis: %w", err)
		} else if !ok {
			continue
		}
		f, err := parser.ParseFile(prog.Fset, filepath.Join(abs, name), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("analysis: %w", err)
		}
		if strings.HasSuffix(name, "_test.go") {
			u.TestFiles = append(u.TestFiles, f)
			continue
		}
		pkgNames[f.Name.Name] = true
		u.Files = append(u.Files, f)
	}
	if len(u.Files) == 0 {
		return nil, fmt.Errorf("analysis: no non-test Go files in %s", abs)
	}
	if len(pkgNames) > 1 {
		return nil, fmt.Errorf("analysis: multiple packages in %s", abs)
	}

	// Dependency closure over module-internal imports.
	for _, f := range u.Files {
		for _, imp := range f.Imports {
			ipath, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				continue
			}
			if ipath == prog.ModPath || strings.HasPrefix(ipath, prog.ModPath+"/") {
				depDir := filepath.Join(prog.ModRoot, filepath.FromSlash(strings.TrimPrefix(strings.TrimPrefix(ipath, prog.ModPath), "/")))
				if _, err := prog.load(depDir, false); err != nil {
					return nil, err
				}
			}
		}
	}
	return u, nil
}

// typecheck type-checks all units in dependency order. Standard-library
// imports are resolved by the stdlib source importer (go/importer with
// compiler "source"), which works offline against $GOROOT/src; module
// packages resolve against each other.
func (prog *Program) typecheck() error {
	// The source importer consults go/build's default context; disable
	// cgo so packages like net type-check from pure-Go source files.
	build.Default.CgoEnabled = false
	std := importer.ForCompiler(prog.Fset, "source", nil)

	order, err := prog.depOrder()
	if err != nil {
		return err
	}
	imp := &progImporter{prog: prog, std: std}
	for _, u := range order {
		cfg := types.Config{
			Importer: imp,
			Error: func(err error) {
				prog.TypeErrors = append(prog.TypeErrors, err)
			},
		}
		info := &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
			Implicits:  map[ast.Node]types.Object{},
		}
		pkg, _ := cfg.Check(u.Path, prog.Fset, u.Files, info)
		u.Pkg = pkg
		u.Info = info
	}
	return nil
}

// depOrder topologically sorts units by their module-internal imports.
func (prog *Program) depOrder() ([]*Unit, error) {
	const (
		white = iota
		grey
		black
	)
	state := map[*Unit]int{}
	var order []*Unit
	var visit func(u *Unit) error
	visit = func(u *Unit) error {
		switch state[u] {
		case black:
			return nil
		case grey:
			return fmt.Errorf("analysis: import cycle through %s", u.Path)
		}
		state[u] = grey
		// Deterministic order: walk imports sorted.
		deps := map[string]bool{}
		for _, f := range u.Files {
			for _, imp := range f.Imports {
				if p, err := strconv.Unquote(imp.Path.Value); err == nil {
					deps[p] = true
				}
			}
		}
		sorted := make([]string, 0, len(deps))
		for d := range deps {
			sorted = append(sorted, d)
		}
		sort.Strings(sorted)
		for _, d := range sorted {
			if dep, ok := prog.byPath[d]; ok {
				if err := visit(dep); err != nil {
					return err
				}
			}
		}
		state[u] = black
		order = append(order, u)
		return nil
	}
	us := append([]*Unit(nil), prog.Units...)
	sort.Slice(us, func(i, j int) bool { return us[i].Path < us[j].Path })
	for _, u := range us {
		if err := visit(u); err != nil {
			return nil, err
		}
	}
	return order, nil
}

// progImporter resolves module-internal packages from the program and
// everything else through the stdlib source importer.
type progImporter struct {
	prog *Program
	std  types.Importer
}

func (pi *progImporter) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if u, ok := pi.prog.byPath[path]; ok {
		if u.Pkg == nil {
			return nil, fmt.Errorf("analysis: %s not yet type-checked (import cycle?)", path)
		}
		return u.Pkg, nil
	}
	return pi.std.Import(path)
}
