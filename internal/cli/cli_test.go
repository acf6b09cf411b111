package cli

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"truthroute/internal/dist"
	"truthroute/internal/graph"
)

func runSim(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var out, errOut strings.Builder
	code := RunUnicastSim(args, &out, &errOut)
	return code, out.String(), errOut.String()
}

func TestUnicastSimSingleFigure(t *testing.T) {
	code, out, _ := runSim(t, "-figure", "3a", "-seed", "1")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	if !strings.Contains(out, "Figure 3a") || !strings.Contains(out, "IOR") {
		t.Errorf("unexpected output: %q", out)
	}
}

func TestUnicastSimCSV(t *testing.T) {
	code, out, _ := runSim(t, "-figure", "node", "-csv")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	if !strings.HasPrefix(out, "n,IOR,TOR") {
		t.Errorf("csv output = %q", out)
	}
}

func TestUnicastSimErrors(t *testing.T) {
	if code, _, _ := runSim(t, "-figure", "nope"); code != 1 {
		t.Errorf("unknown figure exit = %d, want 1", code)
	}
	if code, _, _ := runSim(t, "-bogusflag"); code != 2 {
		t.Errorf("bad flag exit = %d, want 2", code)
	}
}

func writeGraphFile(t *testing.T, g *graph.NodeGraph) string {
	t.Helper()
	data, err := json.Marshal(g)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "g.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestPaytoolNodeGraph(t *testing.T) {
	path := writeGraphFile(t, graph.Figure2())
	var out, errOut strings.Builder
	code := RunPaytool([]string{"-graph", path, "-source", "1"}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	s := out.String()
	if !strings.Contains(s, "least cost path: [1 4 3 2 0]") {
		t.Errorf("missing path: %q", s)
	}
	if !strings.Contains(s, "total payment: 6") {
		t.Errorf("missing total: %q", s)
	}
	// Figure 2 has a resale deal via v5.
	if !strings.Contains(s, "resale opportunity") {
		t.Errorf("missing resale warning: %q", s)
	}
}

func TestPaytoolNeighborhoodScheme(t *testing.T) {
	path := writeGraphFile(t, graph.Figure2())
	var out, errOut strings.Builder
	code := RunPaytool([]string{"-graph", path, "-source", "1", "-scheme", "neighborhood"}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "pay node") {
		t.Errorf("no payments printed: %q", out.String())
	}
}

func TestPaytoolLinkGraph(t *testing.T) {
	lg := graph.NewLinkGraph(3)
	lg.AddArc(1, 2, 1)
	lg.AddArc(2, 0, 1)
	lg.AddArc(1, 0, 5)
	data, err := json.Marshal(lg)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "lg.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errOut strings.Builder
	code := RunPaytool([]string{"-linkgraph", path, "-source", "1"}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "pay node 2    4") {
		t.Errorf("wrong link payment output: %q", out.String())
	}
}

func TestPaytoolErrors(t *testing.T) {
	path := writeGraphFile(t, graph.Figure2())
	cases := [][]string{
		{},               // neither graph flag
		{"-graph", path}, // no source
		{"-graph", path, "-linkgraph", path, "-source", "1"}, // both
		{"-graph", path, "-source", "1", "-scheme", "x"},     // bad scheme
		{"-graph", "/does/not/exist", "-source", "1"},        // missing file
	}
	for _, args := range cases {
		var out, errOut strings.Builder
		if code := RunPaytool(args, &out, &errOut); code == 0 {
			t.Errorf("args %v: exit 0, want failure", args)
		}
	}
}

func TestDisttraceFixtureWithAdversary(t *testing.T) {
	var out, errOut strings.Builder
	code := RunDisttrace([]string{"-fixture", "fig2", "-adversary", "hider:1:4"}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "accusations:") {
		t.Errorf("hider not reported: %q", out.String())
	}
	if !strings.Contains(out.String(), "node 1 accused") {
		t.Errorf("wrong accusation: %q", out.String())
	}
}

func TestDisttraceRandomHonest(t *testing.T) {
	var out, errOut strings.Builder
	code := RunDisttrace([]string{"-n", "12", "-seed", "3", "-delay", "3"}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "no accusations") {
		t.Errorf("honest async run accused: %q", out.String())
	}
}

func TestDisttraceEviction(t *testing.T) {
	var out, errOut strings.Builder
	code := RunDisttrace([]string{"-fixture", "fig4", "-signed",
		"-adversary", "underpay:8:0.6", "-evict", "1"}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	s := out.String()
	if !strings.Contains(s, "epochal protocol (quorum 1)") {
		t.Errorf("missing epochal summary: %q", s)
	}
	if !strings.Contains(s, "evicted node 8") {
		t.Errorf("underpayer not reported evicted: %q", s)
	}
	if !strings.Contains(s, "node 8   EVICTED") {
		t.Errorf("missing EVICTED state line: %q", s)
	}
}

func TestDisttraceErrors(t *testing.T) {
	cases := [][]string{
		{"-fixture", "nope"},
		{"-adversary", "weird:1"},
		{"-adversary", "hider:1"},
		{"-adversary", "underpay:1:7"},
		{"-adversary", "hider:99:4", "-fixture", "fig2"},
		{"-adversary", "mute:xx"},
	}
	for _, args := range cases {
		var out, errOut strings.Builder
		if code := RunDisttrace(args, &out, &errOut); code == 0 {
			t.Errorf("args %v: exit 0, want failure", args)
		}
	}
}

func TestParseAdversary(t *testing.T) {
	node, b, err := ParseAdversary("underpay:3:0.5")
	if err != nil || node != 3 {
		t.Fatalf("underpay parse: %v %v", node, err)
	}
	if u, ok := b.(*dist.Underpayer); !ok || u.Factor != 0.5 {
		t.Fatalf("underpay behavior: %#v", b)
	}
	if _, _, err := ParseAdversary("mute:2:extra"); err == nil {
		t.Error("mute with extra field accepted")
	}
	if _, _, err := ParseAdversary("hider:a:b"); err == nil {
		t.Error("non-numeric hider accepted")
	}
}

func TestParseAdversaryRoster(t *testing.T) {
	node, b, err := ParseAdversary("overpay:4:1.6")
	if err != nil || node != 4 {
		t.Fatalf("overpay parse: %v %v", node, err)
	}
	if o, ok := b.(*dist.Overpayer); !ok || o.Factor != 1.6 {
		t.Fatalf("overpay behavior: %#v", b)
	}
	if _, _, err := ParseAdversary("overpay:4:0.6"); err == nil {
		t.Error("overpay factor below 1 accepted")
	}
	if _, b, err := ParseAdversary("equivocate:2"); err != nil {
		t.Errorf("equivocate parse: %v", err)
	} else if _, ok := b.(*dist.Equivocator); !ok {
		t.Errorf("equivocate behavior: %#v", b)
	}
	if _, b, err := ParseAdversary("replay:5"); err != nil {
		t.Errorf("replay parse: %v", err)
	} else if _, ok := b.(*dist.Replayer); !ok {
		t.Errorf("replay behavior: %#v", b)
	}
	if _, b, err := ParseAdversary("tamper:3"); err != nil {
		t.Errorf("tamper parse: %v", err)
	} else if _, ok := b.(*dist.Tamperer); !ok {
		t.Errorf("tamper behavior: %#v", b)
	}
	_, b, err = ParseAdversary("drop:6:1+4")
	if err != nil {
		t.Fatalf("drop parse: %v", err)
	}
	if d, ok := b.(*dist.SelectiveDropper); !ok || len(d.Victims) != 2 || d.Victims[1] != 4 {
		t.Fatalf("drop behavior: %#v", b)
	}
	if _, _, err := ParseAdversary("drop:6"); err == nil {
		t.Error("drop without victims accepted")
	}
}

func TestParseAdversariesCollude(t *testing.T) {
	planted, err := ParseAdversaries("collude:8:1:0.5")
	if err != nil {
		t.Fatalf("collude parse: %v", err)
	}
	if len(planted) != 2 {
		t.Fatalf("collude planted %d nodes, want 2", len(planted))
	}
	if _, ok := planted[8].(*dist.ColludingLeader); !ok {
		t.Errorf("leader behavior: %#v", planted[8])
	}
	if _, ok := planted[1].(*dist.ColludingPartner); !ok {
		t.Errorf("partner behavior: %#v", planted[1])
	}
	if _, err := ParseAdversaries("collude:3:3:0.5"); err == nil {
		t.Error("self-collusion accepted")
	}
	if _, err := ParseAdversaries("collude:3:4:1.5"); err == nil {
		t.Error("collude factor above 1 accepted")
	}
	multi, err := ParseAdversaries("underpay:3:0.5,mute:4")
	if err != nil || len(multi) != 2 {
		t.Fatalf("multi-spec parse: %v %v", multi, err)
	}
	if _, err := ParseAdversaries("underpay:3:0.5,mute:3"); err == nil {
		t.Error("double-planting one node accepted")
	}
}

func TestPaytoolEdgeGraph(t *testing.T) {
	ew := graph.NewEdgeWeighted(4)
	ew.AddEdge(0, 1, 1)
	ew.AddEdge(1, 3, 1)
	ew.AddEdge(0, 2, 2)
	ew.AddEdge(2, 3, 2)
	data, err := json.Marshal(ew)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "ew.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errOut strings.Builder
	code := RunPaytool([]string{"-edgegraph", path, "-source", "3", "-dest", "0"}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	s := out.String()
	if !strings.Contains(s, "total payment: 6") {
		t.Errorf("edge quote output: %q", s)
	}
	if !strings.Contains(s, "pay edge {0,1}") || !strings.Contains(s, "pay edge {1,3}") {
		t.Errorf("edge payment lines missing: %q", s)
	}
	// Bridge warning path.
	bridge := graph.NewEdgeWeighted(2)
	bridge.AddEdge(0, 1, 1)
	data2, _ := json.Marshal(bridge)
	path2 := filepath.Join(t.TempDir(), "b.json")
	os.WriteFile(path2, data2, 0o644)
	var out2, err2 strings.Builder
	if code := RunPaytool([]string{"-edgegraph", path2, "-source", "1", "-engine", "naive"}, &out2, &err2); code != 0 {
		t.Fatalf("bridge run exit %d", code)
	}
	if !strings.Contains(out2.String(), "WARNING: bridge edges") {
		t.Errorf("missing bridge warning: %q", out2.String())
	}
}

var updateGolden = flag.Bool("update", false, "rewrite testdata/paytool_edge.golden")

// TestPaytoolEdgeJSONGolden pins `paytool -edgegraph -json` byte for
// byte, both engines, on a chain of exactly tied diamonds that ends in
// a bridge (testdata/edge_ties_bridge.json). The 0→18 total adds eight
// payments that are not exact binary fractions, so it repeats only
// while Total sums in a fixed order; each run is made 20 times. The
// 0→19 quote crosses the bridge and pins the refusal to encode its
// unbounded payment.
func TestPaytoolEdgeJSONGolden(t *testing.T) {
	run := func() string {
		var b strings.Builder
		for _, engine := range []string{"fast", "naive"} {
			for _, dest := range []string{"18", "19"} {
				args := []string{"-edgegraph", filepath.Join("testdata", "edge_ties_bridge.json"),
					"-source", "0", "-dest", dest, "-engine", engine, "-json"}
				var out, errOut strings.Builder
				code := RunPaytool(args, &out, &errOut)
				fmt.Fprintf(&b, "$ paytool %s\nexit %d\n%s%s", strings.Join(args, " "), code, out.String(), errOut.String())
			}
		}
		return b.String()
	}
	path := filepath.Join("testdata", "paytool_edge.golden")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(run()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update to create): %v", err)
	}
	for i := 0; i < 20; i++ {
		if got := run(); got != string(want) {
			t.Fatalf("run %d drifted from %s\n--- golden ---\n%s--- got ---\n%s", i, path, want, got)
		}
	}
}

// TestPaytoolUnknownEngine: a misspelled -engine is a usage error in
// both the node and the edge model, not a silent fast-engine quote.
func TestPaytoolUnknownEngine(t *testing.T) {
	nodePath := writeGraphFile(t, graph.Figure2())
	edge := graph.NewEdgeWeighted(2)
	edge.AddEdge(0, 1, 1)
	data, err := json.Marshal(edge)
	if err != nil {
		t.Fatal(err)
	}
	edgePath := filepath.Join(t.TempDir(), "e.json")
	if err := os.WriteFile(edgePath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, model := range []string{"-graph", "-edgegraph"} {
		path := nodePath
		if model == "-edgegraph" {
			path = edgePath
		}
		var out, errOut strings.Builder
		if code := RunPaytool([]string{model, path, "-source", "1", "-engine", "fsat"}, &out, &errOut); code != 2 {
			t.Errorf("%s -engine fsat: exit %d, want 2 (stdout %q)", model, code, out.String())
		}
		if !strings.Contains(errOut.String(), `unknown engine "fsat"`) {
			t.Errorf("%s -engine fsat: stderr %q does not name the engine", model, errOut.String())
		}
	}
}

func TestDisttraceSignedImpersonation(t *testing.T) {
	var out, errOut strings.Builder
	code := RunDisttrace([]string{"-fixture", "fig2", "-adversary", "impersonate:6:4", "-signed"}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "forged messages dropped") {
		t.Errorf("missing forged-drop report: %q", out.String())
	}
}

func TestParseAdversaryImpersonate(t *testing.T) {
	node, b, err := ParseAdversary("impersonate:6:4")
	if err != nil || node != 6 {
		t.Fatalf("parse: %v %v", node, err)
	}
	if im, ok := b.(*dist.Impersonator); !ok || im.Victim != 4 {
		t.Fatalf("behavior: %#v", b)
	}
	if _, _, err := ParseAdversary("impersonate:6"); err == nil {
		t.Error("short impersonate accepted")
	}
}

func TestDisttraceRoundlogFlag(t *testing.T) {
	var out, errOut strings.Builder
	code := RunDisttrace([]string{"-fixture", "fig2", "-roundlog"}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "round    1:") {
		t.Errorf("missing roundlog lines: %q", out.String()[:200])
	}
	if !strings.Contains(out.String(), "corrections") {
		t.Error("roundlog format changed")
	}
}

func TestPaytoolJSONOutput(t *testing.T) {
	path := writeGraphFile(t, graph.Figure2())
	var out, errOut strings.Builder
	code := RunPaytool([]string{"-graph", path, "-source", "1", "-json"}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	var decoded struct {
		Path     []int              `json:"path"`
		Total    float64            `json:"total"`
		Payments map[string]float64 `json:"payments"`
	}
	if err := json.Unmarshal([]byte(out.String()), &decoded); err != nil {
		t.Fatalf("bad json %q: %v", out.String(), err)
	}
	if decoded.Total != 6 || decoded.Payments["4"] != 2 {
		t.Errorf("decoded = %+v", decoded)
	}
}

func TestDisttraceLossyCrashRun(t *testing.T) {
	var out, errOut strings.Builder
	code := RunDisttrace([]string{"-n", "12", "-seed", "5",
		"-loss", "0.1", "-dup", "0.02", "-crash", "3:4:14"}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	s := out.String()
	if !strings.Contains(s, "faults:") {
		t.Errorf("fault summary missing: %q", s)
	}
	if !strings.Contains(s, "no accusations") {
		t.Errorf("honest lossy run accused: %q", s)
	}
	if strings.Contains(s, "WARNING: no quiescence") {
		t.Errorf("lossy run did not converge: %q", s)
	}
}

func TestDisttraceBurstRun(t *testing.T) {
	var out, errOut strings.Builder
	code := RunDisttrace([]string{"-fixture", "fig4", "-burst", "0.05:0.3:0.01:0.7"}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "no accusations") {
		t.Errorf("honest burst run accused: %q", out.String())
	}
}

func TestDisttraceFaultFlagErrors(t *testing.T) {
	cases := [][]string{
		{"-loss", "1.5"},                        // rate out of range (SetFaults validation)
		{"-burst", "0.1:0.2"},                   // malformed burst spec
		{"-burst", "a:b:c:d"},                   // non-numeric burst spec
		{"-crash", "3:4"},                       // malformed crash event
		{"-crash", "3:x:9"},                     // non-numeric crash field
		{"-crash", "99:4:14"},                   // node out of range
		{"-fixture", "fig2", "-crash", "0:4:9"}, // the access point may not crash
	}
	for _, args := range cases {
		var out, errOut strings.Builder
		if code := RunDisttrace(args, &out, &errOut); code != 2 {
			t.Errorf("args %v: exit %d, want 2 (%s)", args, code, errOut.String())
		}
	}
}

func TestParseFaultPlanNilWhenUnset(t *testing.T) {
	plan, err := ParseFaultPlan(0, 0, "", "", "", 0, false, 1)
	if plan != nil || err != nil {
		t.Errorf("empty flags produced %+v, %v", plan, err)
	}
	plan, err = ParseFaultPlan(0, 0, "", "4:6:20,7:9:-1", "", 0, false, 1)
	if err != nil || len(plan.Crashes) != 2 || plan.Crashes[1].Recover != -1 {
		t.Errorf("crash spec parse: %+v, %v", plan, err)
	}
}

func TestParseFaultPlanPartitionJitter(t *testing.T) {
	plan, err := ParseFaultPlan(0, 0, "", "", "5:20:1+2+3,30:40:4", 2, true, 1)
	if err != nil {
		t.Fatalf("partition spec parse: %v", err)
	}
	if len(plan.Partitions) != 2 || plan.Partitions[0].Heal != 20 ||
		len(plan.Partitions[0].Side) != 3 || plan.Partitions[1].Side[0] != 4 {
		t.Errorf("partition events: %+v", plan.Partitions)
	}
	if plan.Jitter != 2 || !plan.Reorder {
		t.Errorf("jitter/reorder: %+v", plan)
	}
	for _, bad := range []string{"5:20", "a:20:1", "5:20:x"} {
		if _, err := ParseFaultPlan(0, 0, "", "", bad, 0, false, 1); err == nil {
			t.Errorf("bad partition spec %q accepted", bad)
		}
	}
}

// TestPaytoolUsageExitCodes pins the argument-handling contract of
// cmd/paytool: usage mistakes exit 2 with the flag usage (or a
// paytool-prefixed diagnostic) on stderr, while runtime failures such
// as an unreadable graph file exit 1.
func TestPaytoolUsageExitCodes(t *testing.T) {
	path := writeGraphFile(t, graph.Figure2())

	var out, errOut strings.Builder
	if code := RunPaytool([]string{"-badflag"}, &out, &errOut); code != 2 {
		t.Errorf("bad flag exit = %d, want 2", code)
	}
	if !strings.Contains(errOut.String(), "Usage of paytool") {
		t.Errorf("bad flag stderr missing usage: %q", errOut.String())
	}

	usageCases := [][]string{
		{},               // neither graph flag
		{"-graph", path}, // no source
		{"-graph", path, "-linkgraph", path, "-source", "1"}, // both graphs
	}
	for _, args := range usageCases {
		var o, e strings.Builder
		if code := RunPaytool(args, &o, &e); code != 2 {
			t.Errorf("args %v: exit %d, want 2 (%s)", args, code, e.String())
		}
		if !strings.Contains(e.String(), "paytool:") {
			t.Errorf("args %v: stderr missing diagnostic: %q", args, e.String())
		}
	}

	var o, e strings.Builder
	if code := RunPaytool([]string{"-graph", "/does/not/exist", "-source", "1"}, &o, &e); code != 1 {
		t.Errorf("missing file exit = %d, want 1 (%s)", code, e.String())
	}
}

// TestNetgenPaytoolPipelineDeterministic: the documented workflow —
// generate an instance with netgen, quote it with paytool — is
// bit-reproducible for a fixed seed, end to end.
func TestNetgenPaytoolPipelineDeterministic(t *testing.T) {
	quote := func() string {
		var gen, genErr strings.Builder
		if code := RunNetgen([]string{"-n", "25", "-side", "700", "-range", "250", "-seed", "11"}, &gen, &genErr); code != 0 {
			t.Fatalf("netgen exit %d: %s", code, genErr.String())
		}
		path := filepath.Join(t.TempDir(), "g.json")
		if err := os.WriteFile(path, []byte(gen.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		var out, errOut strings.Builder
		if code := RunPaytool([]string{"-graph", path, "-source", "9", "-json"}, &out, &errOut); code != 0 {
			t.Fatalf("paytool exit %d: %s", code, errOut.String())
		}
		return out.String()
	}
	first := quote()
	if first != quote() {
		t.Error("fixed-seed netgen|paytool pipeline is not deterministic")
	}
	var decoded struct {
		Path  []int   `json:"path"`
		Total float64 `json:"total"`
	}
	if err := json.Unmarshal([]byte(first), &decoded); err != nil {
		t.Fatalf("pipeline quote is not JSON: %v\n%s", err, first)
	}
	if len(decoded.Path) < 2 || decoded.Total <= 0 {
		t.Errorf("degenerate pipeline quote: %+v", decoded)
	}
}

// TestUnicastSimOracleFigure smoke-runs the differential-oracle soak
// through the CLI exactly as a user would invoke it.
func TestUnicastSimOracleFigure(t *testing.T) {
	code, out, errOut := runSim(t, "-figure", "oracle", "-seed", "7")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut)
	}
	if !strings.Contains(out, "Figure oracle") || !strings.Contains(out, "violations") {
		t.Errorf("oracle figure output malformed: %q", out)
	}
	if !strings.Contains(out, "engine-fast") || !strings.Contains(out, "distributed") {
		t.Errorf("oracle figure missing invariant rows: %q", out)
	}
}
