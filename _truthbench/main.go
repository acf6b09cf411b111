// Command truthbench is truthroute's end-to-end benchmark. It runs one
// workload against the code of the checkout it was built from and
// prints, as its last line, one JSON object: whether the run's
// correctness checks passed, how many operations it attempted and how
// many failed, and its metrics — the end-to-end metrics in a normal
// run, the per-layer metrics in a traced run (-trace 1).
//
// Workloads:
//
//	ap-hot         warm access-point quotes against truthrouted (memo hits)
//	churn          access-point quotes while costs drift (memo misses)
//	overpay-sweep  the Figure-3 all-sources computation, offline
//
// Run it through run.sh from the repository root, which builds
// truthrouted and this command first; README.md documents the
// workloads, metrics and the traced run.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
)

// runEnv is one invocation's configuration.
type runEnv struct {
	workload  string
	seed      uint64
	seconds   int
	trace     bool
	daemonBin string
	work      string // scratch directory for inputs, logs and spans
}

// benchSpec is what a run reads from BENCHMARK.json: its default length
// and the metrics it must print, with their units.
type benchSpec struct {
	RunSeconds int          `json:"run_seconds"`
	EndToEnd   []metricSpec `json:"end_to_end"`
	PerLayer   []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadSpec(root string) (*benchSpec, error) {
	blob, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(blob, &s); err != nil {
		return nil, fmt.Errorf("parsing BENCHMARK.json: %w", err)
	}
	return &s, nil
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("truthbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "ap-hot, churn or overpay-sweep")
	seed := fs.Uint64("seed", 1, "workload seed: the same seed generates the same inputs")
	seconds := fs.Int("seconds", 0, "measurement budget of one run (default: run_seconds of BENCHMARK.json)")
	trace := fs.Int("trace", 0, "1 = traced run printing the per-layer metrics")
	daemonBin := fs.String("daemon", "", "truthrouted binary built from this checkout")
	root := fs.String("root", ".", "repository root, holding BENCHMARK.json; scratch files go under ROOT/.bench_build")
	commit := fs.String("commit", "unknown", "commit under test, for the host stamp")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	spec, err := loadSpec(*root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "truthbench:", err)
		return 2
	}
	if *seconds == 0 {
		*seconds = spec.RunSeconds
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "truthbench: -seconds must be >= 1 and -trace 0 or 1")
		return 2
	}
	env := &runEnv{workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1, daemonBin: *daemonBin}
	env.work = filepath.Join(*root, ".bench_build", "work", fmt.Sprintf("%s-%d-trace%d", *workload, *seed, *trace))
	if err := os.MkdirAll(env.work, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "truthbench:", err)
		return 1
	}

	var out *outcome
	switch *workload {
	case "ap-hot", "churn":
		if *daemonBin == "" {
			fmt.Fprintln(os.Stderr, "truthbench: -daemon is required for serving workloads")
			return 2
		}
		out, err = serving(env, servingSpecs[*workload])
	case "overpay-sweep":
		out, err = sweep(env)
	default:
		fmt.Fprintf(os.Stderr, "truthbench: unknown -workload %q (ap-hot, churn, overpay-sweep)\n", *workload)
		return 2
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "truthbench:", err)
		return 1
	}

	stamp := hostStamp(env, *commit)
	w := bufio.NewWriter(os.Stdout)
	defer w.Flush()
	blob, _ := json.Marshal(stamp)
	fmt.Fprintf(w, "# host %s\n", blob)
	for _, n := range out.notes {
		fmt.Fprintln(w, "# "+n)
		fmt.Fprintln(os.Stderr, "truthbench: "+n)
	}
	for _, e := range out.errs {
		fmt.Fprintln(os.Stderr, "truthbench: failure:", e)
	}
	for _, s := range out.invalids {
		fmt.Fprintln(os.Stderr, "truthbench: INVALID:", s)
	}

	res := struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{
		Correct:   out.failed == 0 && len(out.invalids) == 0,
		Attempted: max(out.attempted, 1),
		Failed:    out.failed,
		Metrics:   map[string]metricValue{},
	}
	if res.Correct {
		metrics, err := pick(out, spec, env.trace)
		if err != nil {
			fmt.Fprintln(os.Stderr, "truthbench:", err)
			return 1
		}
		res.Metrics = metrics
		names := make([]string, 0, len(metrics))
		for name := range metrics {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			fmt.Fprintf(w, "# %-34s %14.4f %s\n", name, metrics[name].Value, metrics[name].Unit)
		}
	}
	blob, _ = json.Marshal(res)
	fmt.Fprintf(w, "%s\n", blob)
	if !res.Correct {
		return 1
	}
	return 0
}

// pick returns the metrics BENCHMARK.json lists for this kind of run:
// the end-to-end ones, each measured, finite and positive, or in a
// traced run the per-layer ones, where a layer the workload does not
// run reads 0. A unit that disagrees with BENCHMARK.json is an error.
func pick(out *outcome, spec *benchSpec, trace bool) (map[string]metricValue, error) {
	want, have := spec.EndToEnd, out.metrics
	if trace {
		want, have = spec.PerLayer, out.layers
	}
	picked := make(map[string]metricValue, len(want))
	for _, m := range want {
		v, ok := have[m.Name]
		if trace && !ok {
			// A figure the untraced run does not report, such as the
			// update latencies, is a per-layer diagnostic of the traced one.
			v, ok = out.metrics[m.Name]
		}
		if trace && (!ok || math.IsNaN(v.Value)) {
			v, ok = metricValue{Value: 0, Unit: m.Unit}, true
		}
		if !ok || v.Unit != m.Unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) || (!trace && v.Value <= 0) {
			return nil, fmt.Errorf("metric %s measured as %v [%s] (present: %t); BENCHMARK.json wants a finite value in %s, positive end to end", m.Name, v.Value, v.Unit, ok, m.Unit)
		}
		picked[m.Name] = v
	}
	return picked, nil
}

// hostStamp says where a result was measured. The generator and the
// daemon share this host's CPUs, which every serving figure depends on.
func hostStamp(env *runEnv, commit string) map[string]any {
	return map[string]any{
		"workload":   env.workload,
		"seed":       env.seed,
		"seconds":    env.seconds,
		"trace":      env.trace,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"cpu":        cpuModel(),
		"commit":     commit,
		"topology":   fmt.Sprintf("one generator process and the truthrouted daemon share %d CPUs over loopback; the generator uses at most 2 quote connections and 1 update connection", runtime.NumCPU()),
	}
}

func cpuModel() string {
	blob, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(blob), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// outcome accumulates one run's counts, metrics and notes.
type outcome struct {
	mu        sync.Mutex
	attempted int
	failed    int
	errs      []error
	invalids  []string
	notes     []string
	metrics   map[string]metricValue // end-to-end
	layers    map[string]metricValue // per-layer, traced runs only
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func newOutcome() *outcome { return &outcome{metrics: map[string]metricValue{}} }

func (o *outcome) metric(name string, v float64, unit string) {
	o.metrics[name] = metricValue{Value: v, Unit: unit}
}

func (o *outcome) count(attempted, failed int, errs []error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.attempted += attempted
	o.failed += failed
	o.errs = append(o.errs, errs...)
}

func (o *outcome) failPct() float64 {
	return 100 * float64(o.failed) / math.Max(float64(o.attempted), 1)
}

func (o *outcome) invalid(format string, args ...any) {
	o.invalids = append(o.invalids, fmt.Sprintf(format, args...))
}

func (o *outcome) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}
