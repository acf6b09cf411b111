package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// Testonly flags an exported package-level function or method,
// declared in a non-test file under internal/, that no non-test file
// of the module references. Such an export is either dead, a second
// copy of a live path, or a test fixture living in production code;
// the remedies are to delete it, move it into the _test.go that uses
// it, or give it a caller. An export that several packages' tests
// share, or that a fuzzer or an out-of-module harness drives, stays
// with a reasoned //lint:allow testonly.
//
// References count module-wide, whatever patterns truthlint was
// given: every package under the module root (commands and examples
// included) plus the subtree of the package being linted, so a
// testdata fixture brings its own callers. Uses from _test.go files
// (loaded for TestScanDirs) do not count. A method that implements
// an interface is live, since dynamic dispatch reaches it without
// naming it.
var Testonly = &Analyzer{
	Name: "testonly",
	Doc:  "exported functions and methods under internal/ need a non-test reference somewhere in the module",
	Run:  runTestonly,
}

func runTestonly(p *Pass) {
	if p.Pkg.Name == "main" || !strings.HasPrefix(p.Pkg.Dir, "internal/") {
		return
	}
	// Every other analyzer's fixture is a library nothing calls, by
	// construction, so inside a testdata tree only testonly's own
	// fixture is checked.
	if _, fixture, ok := strings.Cut(p.Pkg.Dir, "/testdata/"); ok && strings.Split(fixture, "/")[0] != p.Analyzer.Name {
		return
	}
	live, err := p.Mod.liveIndex(p.Pkg.Dir)
	if err != nil {
		p.Reportf(p.Pkg.Files[0].Package, "cannot index module references: %v", err)
		return
	}
	for _, f := range p.Pkg.Files {
		if strings.HasSuffix(p.Mod.Fset.File(f.Pos()).Name(), "_test.go") {
			continue
		}
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || !fd.Name.IsExported() {
				continue
			}
			fn, ok := p.Pkg.Info.Defs[fd.Name].(*types.Func)
			if !ok || live.used[fn] {
				continue
			}
			kind := "function"
			if fd.Recv != nil {
				if live.implements(fn) {
					continue
				}
				kind = "method"
			}
			p.Reportf(fd.Name.Pos(), "exported %s %s has no non-test reference in the module: delete it, move it into the _test.go that uses it, or give it a caller", kind, fd.Name.Name)
		}
	}
}

// liveIndex is the module-wide reference index behind testonly. It
// grows package by package: each package's uses and interface types
// are folded in once per Module, however many packages are linted.
type liveIndex struct {
	folded  map[string]bool               // package dirs already indexed
	used    map[*types.Func]bool          // functions referenced from a non-test file
	scanned map[*types.Package]bool       // packages whose scope interfaces are indexed
	ifaces  map[string][]*types.Interface // interface types by method name
}

// liveIndex returns the module's reference index, first folding in
// every package under the module root (on the first call) and under
// dir. The index is kept only once the whole root has folded.
func (m *Module) liveIndex(dir string) (*liveIndex, error) {
	ix := m.live
	var dirs []string
	if ix == nil {
		root, err := m.walk(".")
		if err != nil {
			return nil, err
		}
		ix = &liveIndex{
			folded:  map[string]bool{},
			used:    map[*types.Func]bool{},
			scanned: map[*types.Package]bool{},
			ifaces:  map[string][]*types.Interface{},
		}
		ix.addInterface(types.Universe.Lookup("error").Type().Underlying().(*types.Interface))
		dirs = root
	}
	sub, err := m.walk(dir)
	if err != nil {
		return nil, err
	}
	for _, d := range append(dirs, sub...) {
		if ix.folded[d] {
			continue
		}
		pkg, err := m.load(d)
		if err != nil {
			return nil, err
		}
		ix.fold(m, pkg)
		ix.folded[d] = true
	}
	m.live = ix
	return ix, nil
}

// fold indexes one package: the functions its non-test files
// reference, its interface types, and the named interfaces of every
// package it imports, transitively.
func (ix *liveIndex) fold(m *Module, pkg *Package) {
	for id, obj := range pkg.Info.Uses {
		fn, ok := obj.(*types.Func)
		if !ok || strings.HasSuffix(m.Fset.File(id.Pos()).Name(), "_test.go") {
			continue
		}
		ix.used[fn.Origin()] = true
	}
	for _, tv := range pkg.Info.Types {
		if it, ok := tv.Type.(*types.Interface); ok {
			ix.addInterface(it)
		}
	}
	ix.scanScope(pkg.Types)
}

// scanScope indexes the named, non-generic interfaces declared in p
// and in everything p imports.
func (ix *liveIndex) scanScope(p *types.Package) {
	if ix.scanned[p] {
		return
	}
	ix.scanned[p] = true
	scope := p.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok {
			continue
		}
		if named, ok := tn.Type().(*types.Named); ok && named.TypeParams().Len() > 0 {
			continue
		}
		if it, ok := tn.Type().Underlying().(*types.Interface); ok {
			ix.addInterface(it)
		}
	}
	for _, imp := range p.Imports() {
		ix.scanScope(imp)
	}
}

func (ix *liveIndex) addInterface(it *types.Interface) {
	for i := 0; i < it.NumMethods(); i++ {
		name := it.Method(i).Name()
		ix.ifaces[name] = append(ix.ifaces[name], it)
	}
}

// implements reports whether method fn's receiver type, as a value or
// a pointer, implements some indexed interface that has a method of
// fn's name.
func (ix *liveIndex) implements(fn *types.Func) bool {
	recv := deref(fn.Type().(*types.Signature).Recv().Type())
	for _, it := range ix.ifaces[fn.Name()] {
		if types.Implements(recv, it) || types.Implements(types.NewPointer(recv), it) {
			return true
		}
	}
	return false
}
