package lint

import (
	"fmt"
	"go/ast"
	"go/build/constraint"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// Module is the type-checked module under analysis. Loading is
// stdlib-only: module-internal imports are resolved by mapping the
// import path onto a directory under Root and recursing; standard
// library imports are type-checked from GOROOT source via
// go/importer's source importer, so truthlint needs no build cache
// and no external modules (the project's go.mod stays empty).
type Module struct {
	Root      string // absolute path of the directory holding go.mod
	Path      string // module path from the go.mod "module" line
	GoVersion string // language version from the go.mod "go" line
	Fset      *token.FileSet

	std      types.Importer
	pkgs     map[string]*Package // keyed by root-relative dir ("." for root)
	loading  map[string]bool     // import-cycle detection
	testDirs map[string]bool     // dirs whose in-package _test.go files load too
	escapes  map[string][]escapeDiag
	live     *liveIndex // testonly's reference index, built on first use
}

// TestScanDirs lists the packages whose in-package _test.go files are
// loaded alongside the package proper, so the determinism analyzer
// covers them: these are the oracle and differential planes, where a
// wall-clock read or global RNG draw in a test can mask — or fake —
// exactly the replica divergence the tests exist to catch.
var TestScanDirs = []string{"internal/dist", "internal/oracle", "internal/serve"}

// IncludeTests marks root-relative package dirs whose in-package test
// files should be parsed and type-checked with the package.
func (m *Module) IncludeTests(dirs ...string) {
	if m.testDirs == nil {
		m.testDirs = map[string]bool{}
	}
	for _, d := range dirs {
		m.testDirs[filepath.ToSlash(filepath.Clean(d))] = true
	}
}

// Package is one parsed and type-checked package.
type Package struct {
	Dir        string // module-root-relative directory, "/"-separated
	ImportPath string
	Name       string
	Files      []*ast.File // non-test files, sorted by file name
	Types      *types.Package
	Info       *types.Info
}

// FindModuleRoot walks up from dir to the nearest directory
// containing a go.mod.
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
			return "", fmt.Errorf("lint: no go.mod found above %s", dir)
		}
		dir = parent
	}
}

// LoadModule prepares a loader for the module rooted at root. No
// packages are parsed until Load is called.
func LoadModule(root string) (*Module, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, fmt.Errorf("lint: %w", err)
	}
	m := &Module{
		Root:    root,
		Fset:    token.NewFileSet(),
		pkgs:    map[string]*Package{},
		loading: map[string]bool{},
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			m.Path = strings.TrimSpace(rest)
		} else if rest, ok := strings.CutPrefix(line, "go "); ok {
			m.GoVersion = "go" + strings.TrimSpace(rest)
		}
	}
	if m.Path == "" {
		return nil, fmt.Errorf("lint: go.mod in %s has no module line", root)
	}
	m.std = importer.ForCompiler(m.Fset, "source", nil)
	return m, nil
}

// Load resolves package patterns to type-checked packages. Patterns
// are module-root-relative: "./..." (or a prefix like "./internal/...")
// walks a subtree, anything else names one package directory.
// Walked patterns skip testdata, vendor, and hidden directories;
// naming a testdata package directly still works, which is how the
// known-bad fixture smoke test runs.
func (m *Module) Load(patterns ...string) ([]*Package, error) {
	var dirs []string
	seen := map[string]bool{}
	add := func(d string) {
		d = filepath.ToSlash(filepath.Clean(d))
		if !seen[d] {
			seen[d] = true
			dirs = append(dirs, d)
		}
	}
	for _, pat := range patterns {
		pat = filepath.ToSlash(filepath.Clean(pat))
		if base, ok := strings.CutSuffix(pat, "/..."); ok || pat == "..." {
			if pat == "..." {
				base = "."
			}
			walked, err := m.walk(base)
			if err != nil {
				return nil, err
			}
			for _, d := range walked {
				add(d)
			}
			continue
		}
		if abs := filepath.Join(m.Root, pat); !isDir(abs) {
			return nil, fmt.Errorf("lint: no such package directory: %s", pat)
		}
		add(pat)
	}
	var pkgs []*Package
	for _, d := range dirs {
		p, err := m.load(d)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

func isDir(path string) bool {
	fi, err := os.Stat(path)
	return err == nil && fi.IsDir()
}

// walk lists the package directories under base (root-relative) that
// contain at least one non-test Go file.
func (m *Module) walk(base string) ([]string, error) {
	start := filepath.Join(m.Root, base)
	if !isDir(start) {
		return nil, fmt.Errorf("lint: no such package directory: %s", base)
	}
	var dirs []string
	err := filepath.WalkDir(start, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != start && (name == "testdata" || name == "vendor" ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		if len(goFiles(path)) > 0 {
			rel, err := filepath.Rel(m.Root, path)
			if err != nil {
				return err
			}
			dirs = append(dirs, filepath.ToSlash(rel))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(dirs)
	return dirs, nil
}

// goFiles lists the non-test .go files in dir, sorted.
func goFiles(dir string) []string {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil
	}
	var out []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") ||
			strings.HasSuffix(name, "_test.go") || strings.HasPrefix(name, ".") {
			continue
		}
		out = append(out, filepath.Join(dir, name))
	}
	sort.Strings(out)
	return out
}

// testGoFiles lists the _test.go files in dir whose build constraints
// hold under the default build configuration, sorted. Constraint
// evaluation matters here: the serve package pairs race_on_test.go
// (//go:build race) with race_off_test.go (//go:build !race), and
// loading both would redeclare their shared helpers.
func testGoFiles(dir string) []string {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil
	}
	var out []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, "_test.go") || strings.HasPrefix(name, ".") {
			continue
		}
		path := filepath.Join(dir, name)
		if buildConstraintOK(path) {
			out = append(out, path)
		}
	}
	sort.Strings(out)
	return out
}

// buildConstraintOK evaluates the file's //go:build line (if any)
// under the default configuration: GOOS, GOARCH, and the gc compiler
// are the only true tags, so "race", "integration", and friends are
// false.
func buildConstraintOK(path string) bool {
	data, err := os.ReadFile(path)
	if err != nil {
		return false
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if strings.HasPrefix(line, "package ") {
			break
		}
		if !constraint.IsGoBuild(line) {
			continue
		}
		expr, err := constraint.Parse(line)
		if err != nil {
			return false
		}
		return expr.Eval(func(tag string) bool {
			return tag == runtime.GOOS || tag == runtime.GOARCH || tag == "gc"
		})
	}
	return true
}

// load parses and type-checks the package in root-relative dir rel,
// memoized per directory.
func (m *Module) load(rel string) (*Package, error) {
	if p, ok := m.pkgs[rel]; ok {
		return p, nil
	}
	if m.loading[rel] {
		return nil, fmt.Errorf("lint: import cycle through %s", rel)
	}
	m.loading[rel] = true
	defer delete(m.loading, rel)

	files := goFiles(filepath.Join(m.Root, rel))
	if len(files) == 0 {
		return nil, fmt.Errorf("lint: no Go files in %s", rel)
	}
	var asts []*ast.File
	for _, f := range files {
		af, err := parser.ParseFile(m.Fset, f, nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("lint: %w", err)
		}
		asts = append(asts, af)
	}
	if m.testDirs[rel] {
		pkgName := asts[0].Name.Name
		for _, f := range testGoFiles(filepath.Join(m.Root, rel)) {
			af, err := parser.ParseFile(m.Fset, f, nil, parser.ParseComments)
			if err != nil {
				return nil, fmt.Errorf("lint: %w", err)
			}
			// External test packages (package foo_test) type-check
			// separately; only in-package tests join the unit.
			if af.Name.Name != pkgName {
				continue
			}
			asts = append(asts, af)
		}
	}
	importPath := m.Path
	if rel != "." {
		importPath = m.Path + "/" + rel
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	cfg := types.Config{Importer: m, GoVersion: m.GoVersion}
	tpkg, err := cfg.Check(importPath, m.Fset, asts, info)
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %w", rel, err)
	}
	p := &Package{
		Dir:        rel,
		ImportPath: importPath,
		Name:       tpkg.Name(),
		Files:      asts,
		Types:      tpkg,
		Info:       info,
	}
	m.pkgs[rel] = p
	return p, nil
}

// Import implements types.Importer: module-internal paths load from
// the module tree, everything else from GOROOT source.
func (m *Module) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if path == m.Path {
		p, err := m.load(".")
		if err != nil {
			return nil, err
		}
		return p.Types, nil
	}
	if rest, ok := strings.CutPrefix(path, m.Path+"/"); ok {
		p, err := m.load(rest)
		if err != nil {
			return nil, err
		}
		return p.Types, nil
	}
	return m.std.Import(path)
}
