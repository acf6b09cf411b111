package cli

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// benchExcluded lists every Benchmark* in the repo that DefaultBenchPattern
// deliberately does not capture, with the reason. A benchmark that is
// neither captured nor listed here fails the test — adding a
// benchmark means deciding whether BENCH_payments.json carries it.
var benchExcluded = map[string]string{
	// Figure benchmarks time whole experiment reproductions (minutes
	// at paper scale); they gate nothing and would drown the report.
	"BenchmarkFigure3a":      "end-to-end figure reproduction, not a perf contract",
	"BenchmarkFigure3b":      "end-to-end figure reproduction, not a perf contract",
	"BenchmarkFigure3c":      "end-to-end figure reproduction, not a perf contract",
	"BenchmarkFigure3d":      "end-to-end figure reproduction, not a perf contract",
	"BenchmarkFigure3e":      "end-to-end figure reproduction, not a perf contract",
	"BenchmarkFigure3f":      "end-to-end figure reproduction, not a perf contract",
	"BenchmarkFigureNode":    "end-to-end figure reproduction, not a perf contract",
	"BenchmarkFigureTopo":    "end-to-end figure reproduction, not a perf contract",
	"BenchmarkFigureLife":    "end-to-end figure reproduction, not a perf contract",
	"BenchmarkFigure2Quote":  "paper fixture smoke benchmark, duplicated by BenchmarkPayment*",
	"BenchmarkFigure4Resale": "paper fixture smoke benchmark, no perf contract",
	// Heap micro-benchmarks are subsumed by BenchmarkDijkstra*, which
	// exercises both heaps on the real workload.
	"BenchmarkBinaryHeapsort4096": "raw heap op, covered via BenchmarkDijkstra*",
	// One-off studies with no gated number.
	"BenchmarkNetsimCompensated": "packet-level study, dominated by the netsim loop",
	"BenchmarkNeighborhoodQuote": "p̃ study benchmark, O(n) Dijkstras per op by design",
}

// TestBenchReportCoversRepoBenchmarks walks every _test.go file in
// the repo and fails when a Benchmark* function is neither matched by
// DefaultBenchPattern (so benchreport records it) nor excluded above
// with a reason — and, symmetrically, when an exclusion is stale
// (function gone) or redundant (pattern matches it anyway).
func TestBenchReportCoversRepoBenchmarks(t *testing.T) {
	pattern := regexp.MustCompile(DefaultBenchPattern)
	decl := regexp.MustCompile(`(?m)^func (Benchmark\w+)\(b \*testing\.B\)`)

	found := map[string]string{} // name -> file
	root := filepath.Join("..", "..")
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); name == ".git" || name == "testdata" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		blob, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range decl.FindAllStringSubmatch(string(blob), -1) {
			rel, _ := filepath.Rel(root, path)
			found[m[1]] = rel
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(found) == 0 {
		t.Fatal("found no Benchmark* functions; is the repo layout intact?")
	}

	for name, file := range found {
		captured := pattern.MatchString(name)
		_, excluded := benchExcluded[name]
		switch {
		case captured && excluded:
			t.Errorf("%s (%s) is excluded but DefaultBenchPattern matches it; drop the stale exclusion", name, file)
		case !captured && !excluded:
			t.Errorf("%s (%s) is not captured by DefaultBenchPattern and has no exclusion reason; extend the pattern or exclude it deliberately", name, file)
		}
	}
	for name := range benchExcluded {
		if _, ok := found[name]; !ok {
			t.Errorf("exclusion for %s is stale: no such benchmark in the repo", name)
		}
	}
}
