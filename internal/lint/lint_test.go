package lint

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
)

// repoModule loads the enclosing module once for the whole test
// binary: the expensive part is type-checking the stdlib from GOROOT
// source, and the Module memoizes it.
var repoModule = sync.OnceValues(func() (*Module, error) {
	root, err := FindModuleRoot(".")
	if err != nil {
		return nil, err
	}
	m, err := LoadModule(root)
	if err != nil {
		return nil, err
	}
	// Mirror the CLI: the oracle and differential planes are linted
	// with their in-package tests, so TestModuleIsClean enforces the
	// same surface verify.sh does.
	m.IncludeTests(TestScanDirs...)
	// The testonly fixture's test file loads too, so its golden run
	// shows that uses from a _test.go do not count.
	m.IncludeTests(testonlyFixture)
	return m, nil
})

const testonlyFixture = "internal/lint/testdata/testonly"

func mustModule(t *testing.T) *Module {
	t.Helper()
	m, err := repoModule()
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	return m
}

// wantRE extracts the backquoted regexes from a "// want `...` `...`"
// expectation comment.
var wantRE = regexp.MustCompile("`([^`]*)`")

type wantKey struct {
	file string
	line int
}

// collectWants parses every "// want" expectation in pkgs, keyed by
// root-relative file and line.
func collectWants(t *testing.T, m *Module, pkgs []*Package) map[wantKey][]*regexp.Regexp {
	t.Helper()
	wants := map[wantKey][]*regexp.Regexp{}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					i := strings.Index(c.Text, "// want")
					if i < 0 {
						continue
					}
					pos := m.Fset.Position(c.Pos())
					file := pos.Filename
					if rel, ok := strings.CutPrefix(file, m.Root+"/"); ok {
						file = rel
					}
					k := wantKey{file: file, line: pos.Line}
					matches := wantRE.FindAllStringSubmatch(c.Text[i:], -1)
					if len(matches) == 0 {
						t.Fatalf("%s:%d: // want comment without a backquoted pattern", file, pos.Line)
					}
					for _, mt := range matches {
						re, err := regexp.Compile(mt[1])
						if err != nil {
							t.Fatalf("%s:%d: bad want pattern %q: %v", file, pos.Line, mt[1], err)
						}
						wants[k] = append(wants[k], re)
					}
				}
			}
		}
	}
	return wants
}

// runGolden lints one testdata fixture package with the given
// analyzers and checks the diagnostics 1:1 against its // want
// comments: every diagnostic must match a want on its line, and
// every want must be matched by exactly one diagnostic.
func runGolden(t *testing.T, fixture string, analyzers []*Analyzer) {
	t.Helper()
	m := mustModule(t)
	pkgs, err := m.Load("internal/lint/testdata/" + fixture)
	if err != nil {
		t.Fatalf("loading fixture: %v", err)
	}
	diags := RunAnalyzers(m, pkgs, analyzers)
	wants := collectWants(t, m, pkgs)
	for _, d := range diags {
		k := wantKey{file: d.File, line: d.Line}
		matched := false
		for i, re := range wants[k] {
			if re.MatchString(d.Message) {
				wants[k] = append(wants[k][:i], wants[k][i+1:]...)
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for k, res := range wants {
		for _, re := range res {
			t.Errorf("%s:%d: no diagnostic matching %q", k.file, k.line, re)
		}
	}
}

func TestGolden(t *testing.T) {
	cases := []struct {
		fixture   string
		analyzers []*Analyzer
	}{
		{"atomicmix", []*Analyzer{AtomicMix}},
		{"ctcompare", []*Analyzer{CTCompare}},
		{"determinism", []*Analyzer{Determinism}},
		{"errcheck", []*Analyzer{ErrCheck}},
		{"floatcmp", []*Analyzer{FloatCmp}},
		{"goroleak", []*Analyzer{GoroLeak}},
		{"noalloc", []*Analyzer{NoAlloc}},
		{"panicpolicy", []*Analyzer{PanicPolicy}},
		{"panicmain", []*Analyzer{PanicPolicy}},
		{"snapshotimmut", []*Analyzer{SnapshotImmut}},
		{"testonly", []*Analyzer{Testonly}},
		{"wireorder", []*Analyzer{WireOrder}},
		// The allow fixture tests the hygiene pseudo-analyzer, which
		// runs unconditionally; determinism supplies the suppressible
		// findings.
		{"allow", []*Analyzer{Determinism}},
	}
	for _, c := range cases {
		t.Run(c.fixture, func(t *testing.T) {
			runGolden(t, c.fixture, c.analyzers)
		})
	}
}

// TestModuleIsClean is the check verify.sh enforces: the full suite
// over the whole module reports nothing. Any intended violation must
// carry a reasoned //lint:allow, and any unintended one is a bug.
func TestModuleIsClean(t *testing.T) {
	m := mustModule(t)
	pkgs, err := m.Load("./...")
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	for _, d := range RunAnalyzers(m, pkgs, Analyzers) {
		t.Errorf("module not lint-clean: %s", d)
	}
}

func TestDiagnosticString(t *testing.T) {
	d := Diagnostic{Analyzer: "floatcmp", File: "a/b.go", Line: 3, Col: 9, Message: "m"}
	if got, want := d.String(), "a/b.go:3:9: [floatcmp] m"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

// writeModule lays out a throwaway module for loader error tests.
func writeModule(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	for name, content := range files {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

func TestLoadErrors(t *testing.T) {
	goMod := "module scratch\n\ngo 1.21\n"

	t.Run("no module line", func(t *testing.T) {
		dir := writeModule(t, map[string]string{"go.mod": "go 1.21\n"})
		if _, err := LoadModule(dir); err == nil {
			t.Error("LoadModule accepted a go.mod with no module line")
		}
	})

	t.Run("missing go.mod", func(t *testing.T) {
		dir := t.TempDir()
		if _, err := LoadModule(filepath.Join(dir, "nope")); err == nil {
			t.Error("LoadModule accepted a directory with no go.mod")
		}
	})

	t.Run("bad pattern", func(t *testing.T) {
		m := mustModule(t)
		if _, err := m.Load("no/such/dir"); err == nil {
			t.Error("Load accepted a nonexistent package directory")
		}
		if _, err := m.Load("no/such/dir/..."); err == nil {
			t.Error("Load accepted a nonexistent walk root")
		}
	})

	t.Run("no go files", func(t *testing.T) {
		dir := writeModule(t, map[string]string{"go.mod": goMod, "empty/README": ""})
		m, err := LoadModule(dir)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.Load("empty"); err == nil {
			t.Error("Load accepted a directory with no Go files")
		}
	})

	t.Run("parse error", func(t *testing.T) {
		dir := writeModule(t, map[string]string{
			"go.mod": goMod,
			"p.go":   "package p\nfunc {",
		})
		m, err := LoadModule(dir)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.Load("."); err == nil {
			t.Error("Load accepted a file that does not parse")
		}
	})

	t.Run("type error", func(t *testing.T) {
		dir := writeModule(t, map[string]string{
			"go.mod": goMod,
			"p.go":   "package p\n\nvar x int = \"not an int\"\n",
		})
		m, err := LoadModule(dir)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.Load("."); err == nil {
			t.Error("Load accepted a package that does not type-check")
		}
	})

	t.Run("import cycle", func(t *testing.T) {
		dir := writeModule(t, map[string]string{
			"go.mod":   goMod,
			"a/a.go":   "package a\n\nimport \"scratch/b\"\n\nvar X = b.X\n",
			"b/b.go":   "package b\n\nimport \"scratch/a\"\n\nvar X = a.X\n",
			"ok/ok.go": "package ok\n",
		})
		m, err := LoadModule(dir)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.Load("a"); err == nil {
			t.Error("Load accepted an import cycle")
		}
		// The walk pattern reaches the cycle too, via a different path.
		if _, err := m.Load("./..."); err == nil {
			t.Error("Load(./...) accepted an import cycle")
		}
	})
}

// TestFindModuleRoot checks the upward walk lands on this repo's root
// from a nested package directory.
func TestFindModuleRoot(t *testing.T) {
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		t.Errorf("FindModuleRoot returned %s, which has no go.mod: %v", root, err)
	}
	nested, err := FindModuleRoot("testdata/floatcmp")
	if err != nil {
		t.Fatal(err)
	}
	if nested != root {
		t.Errorf("FindModuleRoot from testdata = %s, want %s", nested, root)
	}
}

// TestReportfRelativizes checks diagnostics use module-root-relative
// paths so output is stable across checkouts.
func TestReportfRelativizes(t *testing.T) {
	m := mustModule(t)
	pkgs, err := m.Load("internal/lint/testdata/floatcmp")
	if err != nil {
		t.Fatal(err)
	}
	diags := RunAnalyzers(m, pkgs, []*Analyzer{FloatCmp})
	if len(diags) == 0 {
		t.Fatal("expected findings in the floatcmp fixture")
	}
	for _, d := range diags {
		if filepath.IsAbs(d.File) {
			t.Errorf("diagnostic file %q is absolute; want module-root-relative", d.File)
		}
		if !strings.HasPrefix(d.File, "internal/lint/testdata/floatcmp/") {
			t.Errorf("diagnostic file %q outside the fixture", d.File)
		}
	}
}

// TestRunAnalyzersSorted checks the cross-analyzer ordering contract:
// file, then line, then column, then analyzer name, then message.
func TestRunAnalyzersSorted(t *testing.T) {
	m := mustModule(t)
	pkgs, err := m.Load(
		"internal/lint/testdata/floatcmp",
		"internal/lint/testdata/determinism",
	)
	if err != nil {
		t.Fatal(err)
	}
	diags := RunAnalyzers(m, pkgs, Analyzers)
	if len(diags) < 2 {
		t.Fatal("expected several findings across the two fixtures")
	}
	key := func(d Diagnostic) string {
		return fmt.Sprintf("%s\x00%08d\x00%08d\x00%s\x00%s", d.File, d.Line, d.Col, d.Analyzer, d.Message)
	}
	for i := 1; i < len(diags); i++ {
		if key(diags[i-1]) > key(diags[i]) {
			t.Errorf("diagnostics out of order: %s before %s", diags[i-1], diags[i])
		}
	}
}

// TestImporterUnsafe covers the unsafe special case in Module.Import.
func TestImporterUnsafe(t *testing.T) {
	m := mustModule(t)
	pkg, err := m.Import("unsafe")
	if err != nil {
		t.Fatal(err)
	}
	if pkg.Path() != "unsafe" {
		t.Errorf("Import(unsafe) = %s", pkg.Path())
	}
}
