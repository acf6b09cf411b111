package cli

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"regexp"
	"runtime"
	"strconv"
	"strings"
)

// BenchResult is one benchmark line of `go test -bench -benchmem`
// output, normalized: the -<GOMAXPROCS> suffix is stripped from the
// name and the three standard metrics are kept. Allocation metrics
// are -1 when the run did not report them.
type BenchResult struct {
	Name        string  `json:"name"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	// Runs counts the `go test -count=N` repetitions collapsed into
	// this entry (omitted when the transcript held a single run). The
	// entry carries the fastest run's metrics — min-of-runs is the
	// standard noise-floor estimator for wall-clock benchmarks.
	Runs int `json:"runs,omitempty"`
	// Extra holds custom units reported via b.ReportMetric (or the
	// quoteload BenchLine format), keyed by unit — e.g. "p99-ns",
	// "qps". Empty for plain benchmarks.
	Extra map[string]float64 `json:"extra,omitempty"`
}

// BenchReport is the BENCH_payments.json schema: the environment
// lines go test prints, the host stamp, and every benchmark in input
// order. No timestamps — two runs on the same machine with the same
// timings diff cleanly.
type BenchReport struct {
	OS         string        `json:"goos,omitempty"`
	Arch       string        `json:"goarch,omitempty"`
	CPU        string        `json:"cpu,omitempty"`
	Package    string        `json:"pkg,omitempty"`
	Host       HostStamp     `json:"host"`
	Benchmarks []BenchResult `json:"benchmarks"`
}

// HostStamp records what a report's ns/op figures depend on besides
// the code: the CPU count, GOMAXPROCS (which the go test child
// inherits), the Go toolchain, and the commit measured (git describe,
// "-dirty" for uncommitted changes). A report parsed from a
// transcript leaves it empty rather than guess at the machine that
// produced it.
type HostStamp struct {
	NProc      int    `json:"nproc,omitempty"`
	GOMAXPROCS int    `json:"gomaxprocs,omitempty"`
	GoVersion  string `json:"go_version,omitempty"`
	Commit     string `json:"commit,omitempty"`
}

func stampHost() HostStamp {
	h := HostStamp{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version()}
	if out, err := exec.Command("git", "describe", "--always", "--dirty", "--abbrev=12").Output(); err == nil {
		h.Commit = strings.TrimSpace(string(out))
	}
	return h
}

// DefaultBenchPattern is the benchmark selection regexp benchreport
// runs by default: the suites whose numbers BENCH_payments.json is
// contracted to carry. TestBenchReportCoversRepoBenchmarks fails when
// a Benchmark* function in the repo neither matches this pattern nor
// appears in its reasoned exclusion list, so additions here and there
// stay in lockstep.
const DefaultBenchPattern = "BenchmarkPayment|BenchmarkDijkstra|BenchmarkDeltaStepping|BenchmarkReplacement|BenchmarkAllSources|BenchmarkDistributedProtocol|BenchmarkProtocolUnder|BenchmarkEdgePayment|BenchmarkServe|BenchmarkServeBinaryQuote"

// DefaultGatePattern selects the benchmarks the -baseline regression
// gate holds to the -regress bound: the bucket-frontier Dijkstra, the
// fast-engine payment path, the all-sources engines on a paper-scale
// UDG, the serving memo miss on the same UDG shape, and the
// socket-free binary frame path — the hot loops this repo's
// performance contract is written against.
// Deliberately narrow — protocol, figure, and socket-bound benchmarks
// are too noisy for a hard ns/op gate (BenchmarkServeBinaryQuoteFrame
// gates the binary plane precisely because it excludes the kernel and
// goroutine handoff).
const DefaultGatePattern = "^BenchmarkDijkstraBucket$|^BenchmarkPaymentFast|^BenchmarkAllSources(Link|Node)UDG300$|^BenchmarkServeQuoteMissUDG300$|^BenchmarkServeBinaryQuoteFrame$"

// RunBenchReport runs the payment/Dijkstra/protocol benchmark suite
// under -benchmem and writes the parsed results as JSON — the harness
// verify.sh uses to record before/after allocation numbers. With
// -input it parses an existing `go test -bench` transcript (a file,
// or "-" for stdin) instead of spawning the toolchain. Repeated runs
// of one benchmark (go test -count=N) collapse to the fastest run.
// With -baseline it additionally diffs ns/op against a committed
// report and exits 3 when a gated benchmark regressed beyond
// -regress percent.
func RunBenchReport(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchreport", flag.ContinueOnError)
	fs.SetOutput(stderr)
	out := fs.String("out", "BENCH_payments.json", "output JSON file, or - for stdout")
	bench := fs.String("bench", DefaultBenchPattern,
		"benchmark selection regexp passed to go test -bench")
	benchtime := fs.String("benchtime", "1s", "per-benchmark time or iteration budget (go test -benchtime)")
	count := fs.Int("count", 1, "repetitions per benchmark (go test -count)")
	pkg := fs.String("pkg", "./...", "package pattern to benchmark")
	input := fs.String("input", "", "parse this go-test transcript instead of running benchmarks (- for stdin)")
	baseline := fs.String("baseline", "", "committed report to diff ns/op against; regressions beyond -regress fail with exit 3")
	regress := fs.Float64("regress", 15, "max tolerated ns/op regression in percent for benchmarks matching -gate")
	gate := fs.String("gate", DefaultGatePattern, "regexp of benchmark names held to the -regress bound")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	var transcript io.Reader
	switch {
	case *input == "-":
		transcript = os.Stdin
	case *input != "":
		f, err := os.Open(*input)
		if err != nil {
			fmt.Fprintln(stderr, "benchreport:", err)
			return 1
		}
		//lint:allow errcheck file is opened read-only; Close cannot lose buffered data
		defer f.Close()
		transcript = f
	default:
		cmd := exec.Command("go", "test", "-run", "^$",
			"-bench", *bench, "-benchmem",
			"-benchtime", *benchtime, "-count", strconv.Itoa(*count), *pkg)
		cmd.Stderr = stderr
		raw, err := cmd.Output()
		if err != nil {
			fmt.Fprintln(stderr, "benchreport: go test:", err)
			return 1
		}
		transcript = strings.NewReader(string(raw))
	}

	report, err := ParseBenchOutput(transcript)
	if err != nil {
		fmt.Fprintln(stderr, "benchreport:", err)
		return 1
	}
	report.Package = *pkg
	if *input != "" {
		report.Package = "" // unknown: the transcript's pkg line wins
	} else {
		report.Host = stampHost()
	}

	blob, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		fmt.Fprintln(stderr, "benchreport:", err)
		return 1
	}
	blob = append(blob, '\n')
	if *out == "-" {
		if _, err := stdout.Write(blob); err != nil {
			fmt.Fprintln(stderr, "benchreport:", err)
			return 1
		}
	} else {
		if err := os.WriteFile(*out, blob, 0o644); err != nil {
			fmt.Fprintln(stderr, "benchreport:", err)
			return 1
		}
		fmt.Fprintf(stdout, "benchreport: wrote %d benchmarks to %s\n", len(report.Benchmarks), *out)
	}
	if *baseline != "" {
		return checkRegression(report, *baseline, *gate, *regress, stdout, stderr)
	}
	return 0
}

// checkRegression compares a fresh report's ns/op against a committed
// baseline for every benchmark matching the gate regexp. Benchmarks
// absent from the baseline are new rows, not regressions; benchmarks
// absent from the fresh run are the baseline's business, not this
// gate's. Exit codes: 0 clean, 1 unusable baseline/gate, 3 regression.
func checkRegression(report *BenchReport, baselinePath, gate string, maxPct float64, stdout, stderr io.Writer) int {
	gateRE, err := regexp.Compile(gate)
	if err != nil {
		fmt.Fprintln(stderr, "benchreport: bad -gate:", err)
		return 1
	}
	blob, err := os.ReadFile(baselinePath)
	if err != nil {
		fmt.Fprintln(stderr, "benchreport:", err)
		return 1
	}
	var base BenchReport
	if err := json.Unmarshal(blob, &base); err != nil {
		fmt.Fprintf(stderr, "benchreport: baseline %s: %v\n", baselinePath, err)
		return 1
	}
	// Different hosts move ns/op on their own; say so next to the
	// verdicts rather than let a host change read as a code change.
	baseHost, runHost := base.Host, report.Host
	baseHost.Commit, runHost.Commit = "", ""
	if base.CPU != report.CPU || baseHost != runHost {
		fmt.Fprintf(stdout, "benchreport: baseline host differs:\n  baseline cpu=%q %+v\n  this run cpu=%q %+v\n",
			base.CPU, base.Host, report.CPU, report.Host)
	}
	old := make(map[string]float64, len(base.Benchmarks))
	for _, b := range base.Benchmarks {
		old[b.Name] = b.NsPerOp
	}
	failed := false
	for _, b := range report.Benchmarks {
		if !gateRE.MatchString(b.Name) {
			continue
		}
		was, ok := old[b.Name]
		if !ok || was <= 0 {
			continue
		}
		pct := (b.NsPerOp - was) / was * 100
		if pct > maxPct {
			failed = true
			fmt.Fprintf(stderr, "benchreport: REGRESSION %s: %.0f ns/op vs baseline %.0f (%+.1f%%, limit %+.1f%%)\n",
				b.Name, b.NsPerOp, was, pct, maxPct)
		} else {
			fmt.Fprintf(stdout, "benchreport: gate ok %s: %.0f ns/op vs baseline %.0f (%+.1f%%)\n",
				b.Name, b.NsPerOp, was, pct)
		}
	}
	if failed {
		return 3
	}
	return 0
}

// ParseBenchOutput parses `go test -bench` text output. Benchmark
// lines look like
//
//	BenchmarkPaymentFast256-4  46557  54688 ns/op  1560 B/op  6 allocs/op
//
// with the B/op and allocs/op columns present only under -benchmem.
// Lines that are not benchmark results (goos/pkg headers, PASS/ok
// trailers) populate the report header or are skipped.
func ParseBenchOutput(r io.Reader) (*BenchReport, error) {
	report := &BenchReport{Benchmarks: []BenchResult{}}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		for _, hdr := range []struct {
			prefix string
			dst    *string
		}{
			{"goos: ", &report.OS},
			{"goarch: ", &report.Arch},
			{"pkg: ", &report.Package},
			{"cpu: ", &report.CPU},
		} {
			if strings.HasPrefix(line, hdr.prefix) {
				*hdr.dst = strings.TrimPrefix(line, hdr.prefix)
			}
		}
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		res, ok, err := parseBenchLine(line)
		if err != nil {
			return nil, err
		}
		if ok {
			report.Benchmarks = append(report.Benchmarks, res)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("reading bench output: %w", err)
	}
	report.Benchmarks = collapseRuns(report.Benchmarks)
	return report, nil
}

// collapseRuns folds repeated lines of one benchmark — the shape
// `go test -count=N` emits — into a single entry holding the fastest
// run's metrics, in first-seen order. Min-of-runs, not mean: the
// fastest repetition is the least-interrupted measurement of the same
// deterministic code, so it is the right noise-floor estimator for a
// regression gate. Runs records how many repetitions backed the entry
// (left zero for a single run, keeping single-run reports unchanged).
func collapseRuns(in []BenchResult) []BenchResult {
	at := make(map[string]int, len(in))
	out := in[:0]
	for _, b := range in {
		i, seen := at[b.Name]
		if !seen {
			at[b.Name] = len(out)
			out = append(out, b)
			continue
		}
		if out[i].Runs == 0 {
			out[i].Runs = 1
		}
		if b.NsPerOp < out[i].NsPerOp {
			runs := out[i].Runs
			out[i] = b
			out[i].Runs = runs
		}
		out[i].Runs++
	}
	return out
}

func parseBenchLine(line string) (BenchResult, bool, error) {
	f := strings.Fields(line)
	// Shortest valid line: name, iterations, value, "ns/op".
	if len(f) < 4 || f[3] != "ns/op" {
		return BenchResult{}, false, nil
	}
	name := f[0]
	if i := strings.LastIndex(name, "-"); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i] // strip the -GOMAXPROCS suffix
		}
	}
	iters, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return BenchResult{}, false, fmt.Errorf("bad iteration count in %q: %v", line, err)
	}
	ns, err := strconv.ParseFloat(f[2], 64)
	if err != nil {
		return BenchResult{}, false, fmt.Errorf("bad ns/op in %q: %v", line, err)
	}
	res := BenchResult{Name: name, Iterations: iters, NsPerOp: ns, BytesPerOp: -1, AllocsPerOp: -1}
	for i := 4; i+1 < len(f); i += 2 {
		switch unit := f[i+1]; unit {
		case "B/op", "allocs/op":
			v, err := strconv.ParseInt(f[i], 10, 64)
			if err != nil {
				return BenchResult{}, false, fmt.Errorf("bad metric value in %q: %v", line, err)
			}
			if unit == "B/op" {
				res.BytesPerOp = v
			} else {
				res.AllocsPerOp = v
			}
		default:
			// Custom units come from b.ReportMetric or a quoteload
			// bench line; their values may be fractional (qps).
			v, err := strconv.ParseFloat(f[i], 64)
			if err != nil {
				return BenchResult{}, false, fmt.Errorf("bad metric value in %q: %v", line, err)
			}
			if res.Extra == nil {
				res.Extra = make(map[string]float64)
			}
			res.Extra[unit] = v
		}
	}
	return res, true, nil
}
