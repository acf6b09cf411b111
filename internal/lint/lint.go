// Package lint is truthlint: a project-specific static-analysis
// suite that enforces the mechanism-design invariants DESIGN.md §8
// documents. The VCG payments of Wang & Li are only strategyproof if
// every replica computes byte-identical results, so bug classes that
// silently break determinism, numeric discipline, or tamper evidence
// — wall-clock reads, global RNG state, float == on payments,
// variable-time MAC comparison, out-of-order wire serialization —
// are rejected at lint time instead of waiting for the fuzzer to
// stumble over them.
//
// The suite is stdlib-only (go/parser, go/ast, go/types, go/token)
// and is wired into verify.sh as a hard gate right after go vet.
// Genuinely intended violations are annotated in place:
//
//	//lint:allow <analyzer> <reason>
//
// on the offending line or the line above. A bare allow with no
// reason is itself a finding, as is an allow that suppresses
// nothing, so the escape hatches stay documented and live.
package lint

import (
	"fmt"
	"go/token"
	"sort"
	"strings"
)

// Diagnostic is one finding. File is module-root-relative, so output
// is stable across checkouts.
type Diagnostic struct {
	Analyzer string `json:"analyzer"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Message  string `json:"message"`
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.File, d.Line, d.Col, d.Analyzer, d.Message)
}

// Analyzer is one named check over a type-checked package.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass)
}

// Analyzers is the full suite, in reporting order.
var Analyzers = []*Analyzer{
	AtomicMix,
	CTCompare,
	Determinism,
	ErrCheck,
	FloatCmp,
	GoroLeak,
	NoAlloc,
	PanicPolicy,
	SnapshotImmut,
	Testonly,
	WireOrder,
}

// AllowName is the pseudo-analyzer that reports lint:allow hygiene
// problems (missing reason, unknown analyzer, stale directive). It
// cannot be disabled.
const AllowName = "allow"

// Pass carries one analyzer's run over one package.
type Pass struct {
	Analyzer *Analyzer
	Mod      *Module
	Pkg      *Package

	diags *[]Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Mod.Fset.Position(pos)
	file := position.Filename
	if rel, ok := strings.CutPrefix(file, p.Mod.Root+"/"); ok {
		file = rel
	}
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		File:     file,
		Line:     position.Line,
		Col:      position.Column,
		Message:  fmt.Sprintf(format, args...),
	})
}

// directive is one parsed //lint:allow comment.
type directive struct {
	file     string
	line     int
	col      int
	analyzer string
	reason   string
	hits     int
}

// collectDirectives parses every //lint:allow comment in pkg. A
// trailing "// want ..." chunk (the golden-test expectation syntax)
// is not part of the reason.
func collectDirectives(mod *Module, pkg *Package) []*directive {
	var out []*directive
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, "//lint:allow")
				if !ok {
					continue
				}
				if i := strings.Index(text, "// want"); i >= 0 {
					text = text[:i]
				}
				fields := strings.Fields(text)
				d := &directive{}
				if len(fields) > 0 {
					d.analyzer = fields[0]
					d.reason = strings.Join(fields[1:], " ")
				}
				pos := mod.Fset.Position(c.Pos())
				d.file = pos.Filename
				if rel, ok := strings.CutPrefix(d.file, mod.Root+"/"); ok {
					d.file = rel
				}
				d.line, d.col = pos.Line, pos.Column
				out = append(out, d)
			}
		}
	}
	return out
}

// suppresses reports whether directive d covers diagnostic diag: same
// file, same analyzer, and the directive sits on the diagnostic's
// line or the line above.
func (d *directive) suppresses(diag Diagnostic) bool {
	return d.analyzer == diag.Analyzer && d.file == diag.File &&
		(d.line == diag.Line || d.line == diag.Line-1)
}

// RunAnalyzers runs the given analyzers over the given packages,
// applies //lint:allow suppression, appends allow-hygiene findings,
// and returns the surviving diagnostics sorted by file, line, column,
// analyzer, message.
func RunAnalyzers(mod *Module, pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	enabled := map[string]bool{}
	for _, a := range analyzers {
		enabled[a.Name] = true
	}
	known := map[string]bool{}
	for _, a := range Analyzers {
		known[a.Name] = true
	}
	var out []Diagnostic
	for _, pkg := range pkgs {
		var raw []Diagnostic
		for _, a := range analyzers {
			a.Run(&Pass{Analyzer: a, Mod: mod, Pkg: pkg, diags: &raw})
		}
		dirs := collectDirectives(mod, pkg)
	diags:
		for _, d := range raw {
			for _, dir := range dirs {
				if dir.suppresses(d) {
					dir.hits++
					if dir.reason != "" {
						continue diags // suppressed with a stated reason
					}
				}
			}
			// Test files are loaded (for the dirs in TestScanDirs) so
			// the determinism analyzer can cover the oracle and
			// differential tests; the production-discipline analyzers
			// (alloc, goroutine, snapshot rules) do not apply to test
			// scaffolding, so their findings there are dropped after
			// suppression counting.
			if strings.HasSuffix(d.File, "_test.go") && d.Analyzer != Determinism.Name {
				continue diags
			}
			out = append(out, d)
		}
		for _, dir := range dirs {
			hd := Diagnostic{Analyzer: AllowName, File: dir.file, Line: dir.line, Col: dir.col}
			switch {
			case dir.analyzer == "":
				hd.Message = "lint:allow names no analyzer"
			case !known[dir.analyzer]:
				hd.Message = fmt.Sprintf("lint:allow names unknown analyzer %q", dir.analyzer)
			case dir.reason == "":
				hd.Message = fmt.Sprintf("lint:allow %s needs a reason", dir.analyzer)
			case dir.hits == 0 && enabled[dir.analyzer]:
				hd.Message = fmt.Sprintf("lint:allow %s suppresses nothing", dir.analyzer)
			default:
				continue
			}
			out = append(out, hd)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
	// Dedup: nested emitter calls can visit the same selector twice
	// (wi(len(m.X.Path)) reports once for wi's args and once for
	// len's), and identical findings help nobody.
	deduped := out[:0]
	for i, d := range out {
		if i == 0 || d != out[i-1] {
			deduped = append(deduped, d)
		}
	}
	return deduped
}
