package cli

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"truthroute/internal/graph"
)

// obsSnapshot mirrors the obs.Snapshot JSON shape for decoding.
type obsSnapshot struct {
	Counters   map[string]uint64 `json:"counters"`
	Gauges     map[string]int64  `json:"gauges"`
	Histograms map[string]struct {
		Count uint64  `json:"count"`
		Sum   float64 `json:"sum"`
	} `json:"histograms"`
}

func readSnapshot(t *testing.T, path string) obsSnapshot {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var s obsSnapshot
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatalf("bad snapshot %q: %v", data, err)
	}
	return s
}

func extractInt(t *testing.T, out, pattern string) int {
	t.Helper()
	m := regexp.MustCompile(pattern).FindStringSubmatch(out)
	if m == nil {
		t.Fatalf("output missing %q:\n%s", pattern, out)
	}
	v, err := strconv.Atoi(m[1])
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// TestDisttraceMetricsSnapshotMatchesRun is the end-to-end acceptance
// check: a lossy disttrace run with -metrics must emit a snapshot
// whose retransmission and convergence-round counters agree with the
// run's own printed report.
func TestDisttraceMetricsSnapshotMatchesRun(t *testing.T) {
	path := filepath.Join(t.TempDir(), "metrics.json")
	var out, errOut strings.Builder
	code := RunDisttrace([]string{"-fixture", "fig2", "-loss", "0.2", "-metrics", path}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	s1 := extractInt(t, out.String(), `stage 1 [^:]*: (\d+) rounds`)
	s2 := extractInt(t, out.String(), `stage 2 [^:]*: (\d+) rounds`)
	retrans := extractInt(t, out.String(), `(\d+) retransmissions`)

	s := readSnapshot(t, path)
	if got := s.Gauges["dist.stage1_rounds"]; got != int64(s1) {
		t.Errorf("dist.stage1_rounds = %d, printed %d", got, s1)
	}
	if got := s.Gauges["dist.stage2_rounds"]; got != int64(s2) {
		t.Errorf("dist.stage2_rounds = %d, printed %d", got, s2)
	}
	if got := s.Counters["dist.rounds"]; got != uint64(s1+s2) {
		t.Errorf("dist.rounds = %d, printed stages total %d", got, s1+s2)
	}
	if got := s.Counters["dist.retransmissions"]; got != uint64(retrans) {
		t.Errorf("dist.retransmissions = %d, printed %d", got, retrans)
	}
	if got := s.Gauges["dist.converged"]; got != 1 {
		t.Errorf("dist.converged = %d, want 1", got)
	}
	if s.Histograms["dist.round_latency_ns"].Count != uint64(s1+s2) {
		t.Errorf("round latency count = %d, want %d", s.Histograms["dist.round_latency_ns"].Count, s1+s2)
	}
}

// TestDisttraceMetricsToStdout checks the "-" sink: the JSON snapshot
// lands on stdout after the normal report.
func TestDisttraceMetricsToStdout(t *testing.T) {
	var out, errOut strings.Builder
	code := RunDisttrace([]string{"-fixture", "fig2", "-metrics", "-"}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	s := out.String()
	if !strings.Contains(s, "stage 1") {
		t.Errorf("normal report missing: %q", s)
	}
	idx := strings.Index(s, "{")
	if idx < 0 {
		t.Fatalf("no JSON on stdout: %q", s)
	}
	var snap obsSnapshot
	if err := json.Unmarshal([]byte(s[idx:]), &snap); err != nil {
		t.Fatalf("bad stdout snapshot: %v", err)
	}
	if snap.Counters["dist.rounds"] == 0 {
		t.Error("stdout snapshot recorded no rounds")
	}
}

// TestDisttraceTraceOutput checks -trace writes decodable JSON-lines
// events covering the protocol rounds.
func TestDisttraceTraceOutput(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	var out, errOut strings.Builder
	code := RunDisttrace([]string{"-fixture", "fig2", "-trace", path}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close() //lint:allow errcheck read-only file
	var rounds int
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var e struct {
			Seq uint64 `json:"seq"`
			Cat string `json:"cat"`
		}
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("bad trace line %q: %v", sc.Text(), err)
		}
		if e.Cat == "dist.round" {
			rounds++
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if rounds == 0 {
		t.Error("trace recorded no dist.round events")
	}
}

// TestUnicastSimMetrics checks the sim CLI feeds the snapshot: the
// figure panels run on the batch quote engine, whose solves and
// per-relay searches show up in the core.allsources_* metrics.
func TestUnicastSimMetrics(t *testing.T) {
	path := filepath.Join(t.TempDir(), "metrics.json")
	code, _, errOut := runSim(t, "-figure", "3a", "-seed", "1", "-metrics", path)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut)
	}
	s := readSnapshot(t, path)
	if s.Counters["core.allsources_solves"] == 0 {
		t.Error("sim run recorded no all-sources solves")
	}
	if s.Histograms["core.allsources_subtree_nodes"].Count == 0 {
		t.Error("no relay subtree sizes observed")
	}
}

// TestPaytoolMetrics checks paytool wiring and that metrics land in
// the named file while the payment report stays on stdout.
func TestPaytoolMetrics(t *testing.T) {
	gpath := writeGraphFile(t, graph.Figure2())
	mpath := filepath.Join(t.TempDir(), "metrics.json")
	var out, errOut strings.Builder
	code := RunPaytool([]string{"-graph", gpath, "-source", "1", "-metrics", mpath}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	if strings.Contains(out.String(), "counters") {
		t.Error("snapshot leaked onto stdout with a file sink")
	}
	s := readSnapshot(t, mpath)
	if s.Counters["core.quotes_served"] == 0 {
		t.Error("paytool served no quotes according to obs")
	}
}

// TestObsDebugAddr checks a run with -debug-addr announces the server
// on stderr and still exits cleanly, and that an unusable address is
// a startup error.
func TestObsDebugAddr(t *testing.T) {
	var out, errOut strings.Builder
	code := RunDisttrace([]string{"-fixture", "fig2", "-debug-addr", "127.0.0.1:0"}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	if !strings.Contains(errOut.String(), "obs: debug server listening on http://127.0.0.1:") {
		t.Errorf("missing server announcement: %q", errOut.String())
	}

	var out2, errOut2 strings.Builder
	if code := RunDisttrace([]string{"-fixture", "fig2", "-debug-addr", "256.256.256.256:1"}, &out2, &errOut2); code != 1 {
		t.Errorf("bad -debug-addr exit = %d, want 1", code)
	}
}

// TestObsMetricsBadPath checks an unwritable -metrics path is
// reported on stderr without failing the run itself.
func TestObsMetricsBadPath(t *testing.T) {
	var out, errOut strings.Builder
	code := RunDisttrace([]string{"-fixture", "fig2", "-metrics", t.TempDir() + "/no/such/dir/m.json"}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	if !strings.Contains(errOut.String(), "creating -metrics file") {
		t.Errorf("missing write error: %q", errOut.String())
	}
}
