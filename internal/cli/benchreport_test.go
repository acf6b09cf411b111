package cli

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

const sampleBenchOutput = `goos: linux
goarch: amd64
pkg: truthroute
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkPaymentFast256-4   	   46557	     54688 ns/op	    1560 B/op	       6 allocs/op
BenchmarkPaymentFastSolver256-4	   42672	     59989 ns/op	       0 B/op	       0 allocs/op
BenchmarkDijkstraBinaryHeap 	    5304	    439804.5 ns/op
PASS
ok  	truthroute	29.449s
`

func TestParseBenchOutput(t *testing.T) {
	report, err := ParseBenchOutput(strings.NewReader(sampleBenchOutput))
	if err != nil {
		t.Fatal(err)
	}
	if report.OS != "linux" || report.Arch != "amd64" || report.Package != "truthroute" {
		t.Errorf("header mismatch: %+v", report)
	}
	want := []BenchResult{
		{Name: "BenchmarkPaymentFast256", Iterations: 46557, NsPerOp: 54688, BytesPerOp: 1560, AllocsPerOp: 6},
		{Name: "BenchmarkPaymentFastSolver256", Iterations: 42672, NsPerOp: 59989, BytesPerOp: 0, AllocsPerOp: 0},
		{Name: "BenchmarkDijkstraBinaryHeap", Iterations: 5304, NsPerOp: 439804.5, BytesPerOp: -1, AllocsPerOp: -1},
	}
	if !reflect.DeepEqual(report.Benchmarks, want) {
		t.Errorf("parsed benchmarks:\n%+v\nwant:\n%+v", report.Benchmarks, want)
	}
}

// TestParseBenchOutputCollapsesRuns: `-count=3` transcripts fold to
// one entry per benchmark with the fastest run's metrics and the run
// count recorded.
func TestParseBenchOutputCollapsesRuns(t *testing.T) {
	const transcript = `goos: linux
BenchmarkDijkstraBucket-4   	    5000	    210000 ns/op	       0 B/op	       0 allocs/op
BenchmarkDijkstraBucket-4   	    5200	    201000 ns/op	       0 B/op	       0 allocs/op
BenchmarkDijkstraBucket-4   	    5100	    205000 ns/op	       0 B/op	       0 allocs/op
BenchmarkPaymentFast256-4   	   46557	     54688 ns/op	    1560 B/op	       6 allocs/op
PASS
`
	report, err := ParseBenchOutput(strings.NewReader(transcript))
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Benchmarks) != 2 {
		t.Fatalf("want 2 collapsed benchmarks, got %+v", report.Benchmarks)
	}
	b := report.Benchmarks[0]
	if b.Name != "BenchmarkDijkstraBucket" || b.NsPerOp != 201000 || b.Iterations != 5200 || b.Runs != 3 {
		t.Errorf("collapsed entry wrong: %+v", b)
	}
	if report.Benchmarks[1].Runs != 0 {
		t.Errorf("single-run entry gained a Runs count: %+v", report.Benchmarks[1])
	}
}

// TestBenchReportRegressionGate drives the -baseline ns/op gate: a
// gated benchmark beyond the bound exits 3, one within it exits 0,
// and ungated/new benchmarks never trip it.
func TestBenchReportRegressionGate(t *testing.T) {
	dir := t.TempDir()
	baseline := filepath.Join(dir, "baseline.json")
	base := BenchReport{Benchmarks: []BenchResult{
		{Name: "BenchmarkPaymentFast256", NsPerOp: 50000},
		{Name: "BenchmarkDistributedProtocol", NsPerOp: 100},
	}}
	blob, _ := json.Marshal(base)
	if err := os.WriteFile(baseline, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	write := func(name string, ns int) string {
		p := filepath.Join(dir, "bench.txt")
		line := name + "-4 100 " + strconv.Itoa(ns) + " ns/op\n"
		if err := os.WriteFile(p, []byte(line), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	run := func(in string) (int, string) {
		var stdout, stderr bytes.Buffer
		code := RunBenchReport([]string{"-input", in,
			"-out", filepath.Join(dir, "r.json"), "-baseline", baseline}, &stdout, &stderr)
		return code, stdout.String() + stderr.String()
	}

	if code, log := run(write("BenchmarkPaymentFast256", 60000)); code != 3 {
		t.Errorf("+20%% on a gated benchmark: exit %d, want 3 (%s)", code, log)
	}
	if code, log := run(write("BenchmarkPaymentFast256", 55000)); code != 0 {
		t.Errorf("+10%% within the 15%% bound: exit %d (%s)", code, log)
	} else if !strings.Contains(log, "gate ok") {
		t.Errorf("clean gate not reported: %s", log)
	}
	// 100x regression on an UNGATED benchmark: fan-out noise, not a failure.
	if code, log := run(write("BenchmarkDistributedProtocol", 10000)); code != 0 {
		t.Errorf("ungated benchmark tripped the gate: exit %d (%s)", code, log)
	}
	// A benchmark with no baseline row is a new row, not a regression.
	if code, log := run(write("BenchmarkPaymentFastNew", 999999)); code != 0 {
		t.Errorf("baseline-less benchmark tripped the gate: exit %d (%s)", code, log)
	}

	var stdout, stderr bytes.Buffer
	if code := RunBenchReport([]string{"-input", write("BenchmarkPaymentFast256", 1),
		"-out", "-", "-baseline", filepath.Join(dir, "missing.json")}, &stdout, &stderr); code != 1 {
		t.Errorf("missing baseline: exit %d, want 1", code)
	}
	stdout.Reset()
	stderr.Reset()
	if code := RunBenchReport([]string{"-input", write("BenchmarkPaymentFast256", 1),
		"-out", "-", "-baseline", baseline, "-gate", "("}, &stdout, &stderr); code != 1 {
		t.Errorf("bad -gate regexp: exit %d, want 1", code)
	}
}

// TestBenchReportHostStamp: a live run stamps the host, a transcript
// leaves the stamp empty, and the -baseline gate prints both stamps
// when the hosts differ (the commit alone does not count) without
// changing its verdict.
func TestBenchReportHostStamp(t *testing.T) {
	if live := stampHost(); live.NProc < 1 || live.GOMAXPROCS < 1 || !strings.HasPrefix(live.GoVersion, "go") {
		t.Errorf("live stamp %+v", live)
	}
	dir := t.TempDir()
	in := filepath.Join(dir, "bench.txt")
	if err := os.WriteFile(in, []byte("cpu: X\nBenchmarkPaymentFast256-4 100 50000 ns/op\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	gate := func(base BenchReport) (int, string) {
		t.Helper()
		path := filepath.Join(dir, "base.json")
		blob, _ := json.Marshal(base)
		if err := os.WriteFile(path, blob, 0o644); err != nil {
			t.Fatal(err)
		}
		var stdout, stderr bytes.Buffer
		code := RunBenchReport([]string{"-input", in, "-out", filepath.Join(dir, "r.json"), "-baseline", path}, &stdout, &stderr)
		return code, stdout.String() + stderr.String()
	}
	rows := []BenchResult{{Name: "BenchmarkPaymentFast256", NsPerOp: 50000}}
	code, log := gate(BenchReport{CPU: "X", Host: HostStamp{Commit: "abc"}, Benchmarks: rows})
	if code != 0 || strings.Contains(log, "host differs") {
		t.Errorf("same host, other commit: exit %d, log %s", code, log)
	}
	code, log = gate(BenchReport{CPU: "X", Host: HostStamp{NProc: 8, GOMAXPROCS: 8, GoVersion: "go1.22", Commit: "abc"}, Benchmarks: rows})
	if code != 0 || !strings.Contains(log, "host differs") ||
		!strings.Contains(log, "{NProc:8 GOMAXPROCS:8 GoVersion:go1.22 Commit:abc}") || !strings.Contains(log, "{NProc:0 GOMAXPROCS:0") {
		t.Errorf("other host: exit %d, log %s", code, log)
	}
	if _, log = gate(BenchReport{CPU: "Y", Benchmarks: rows}); !strings.Contains(log, `cpu="Y"`) {
		t.Errorf("other cpu model not reported: %s", log)
	}
}

func TestParseBenchOutputRejectsGarbage(t *testing.T) {
	if _, err := ParseBenchOutput(strings.NewReader("BenchmarkX-4 notanumber 12 ns/op")); err == nil {
		t.Error("bad iteration count accepted")
	}
	if _, err := ParseBenchOutput(strings.NewReader("BenchmarkX-4 12 nan.0.2 ns/op")); err == nil {
		t.Error("bad ns/op accepted")
	}
	// A Benchmark line without metrics (e.g. the bare name go test
	// prints under -v) is skipped, not an error.
	report, err := ParseBenchOutput(strings.NewReader("BenchmarkX\n"))
	if err != nil || len(report.Benchmarks) != 0 {
		t.Errorf("bare name line: report %+v, err %v", report, err)
	}
}

// TestRunBenchReportFromTranscript drives the CLI end to end in
// -input mode: transcript in, JSON artifact out.
func TestRunBenchReportFromTranscript(t *testing.T) {
	dir := t.TempDir()
	in := filepath.Join(dir, "bench.txt")
	if err := os.WriteFile(in, []byte(sampleBenchOutput), 0o644); err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(dir, "report.json")
	var stdout, stderr bytes.Buffer
	if code := RunBenchReport([]string{"-input", in, "-out", out}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
	blob, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var report BenchReport
	if err := json.Unmarshal(blob, &report); err != nil {
		t.Fatalf("artifact is not JSON: %v", err)
	}
	if len(report.Benchmarks) != 3 || report.Benchmarks[0].Name != "BenchmarkPaymentFast256" {
		t.Errorf("artifact content: %+v", report)
	}
}

func TestRunBenchReportStdout(t *testing.T) {
	var stdout, stderr bytes.Buffer
	dir := t.TempDir()
	in := filepath.Join(dir, "bench.txt")
	if err := os.WriteFile(in, []byte(sampleBenchOutput), 0o644); err != nil {
		t.Fatal(err)
	}
	if code := RunBenchReport([]string{"-input", in, "-out", "-"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
	if !json.Valid(stdout.Bytes()) {
		t.Errorf("stdout is not JSON: %s", stdout.String())
	}
}

func TestRunBenchReportMissingInput(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := RunBenchReport([]string{"-input", "/nonexistent/bench.txt"}, &stdout, &stderr); code != 1 {
		t.Errorf("missing input: exit %d, want 1", code)
	}
}

func TestRunBenchReportBadFlag(t *testing.T) {
	var out, errOut strings.Builder
	if code := RunBenchReport([]string{"-nope"}, &out, &errOut); code != 2 {
		t.Errorf("unknown flag: exit %d, want 2", code)
	}
}

func TestRunBenchReportUnwritableOut(t *testing.T) {
	in := filepath.Join(t.TempDir(), "bench.txt")
	if err := os.WriteFile(in, []byte(sampleBenchOutput), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errOut strings.Builder
	code := RunBenchReport([]string{"-input", in,
		"-out", filepath.Join(t.TempDir(), "no", "such", "dir", "b.json")}, &out, &errOut)
	if code != 1 {
		t.Errorf("unwritable -out: exit %d, want 1", code)
	}
	if !strings.Contains(errOut.String(), "benchreport:") {
		t.Errorf("stderr lacks error prefix: %q", errOut.String())
	}
}

// TestRunBenchReportExecFailure drives the go-test subprocess branch
// with a package pattern that cannot resolve, so the command fails
// fast without compiling any benchmarks.
func TestRunBenchReportExecFailure(t *testing.T) {
	var out, errOut strings.Builder
	code := RunBenchReport([]string{"-pkg", "./does/not/exist", "-benchtime", "1x"}, &out, &errOut)
	if code != 1 {
		t.Errorf("bad -pkg: exit %d, want 1", code)
	}
	if !strings.Contains(errOut.String(), "go test") {
		t.Errorf("stderr lacks subprocess error: %q", errOut.String())
	}
}
