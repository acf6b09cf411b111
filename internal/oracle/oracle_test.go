package oracle

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"truthroute/internal/core"
	"truthroute/internal/graph"
)

func TestEncodeDecodeRoundTrip(t *testing.T) {
	cases := []struct {
		name string
		g    *graph.NodeGraph
		src  int
	}{
		{"figure2", graph.Figure2(), 1},
		{"figure4", graph.Figure4(), 8},
		{"ring", graph.Ring(9), 4},
	}
	for _, tc := range cases {
		data, err := EncodeTopology(tc.g, tc.src)
		if err != nil {
			t.Fatalf("%s: encode: %v", tc.name, err)
		}
		g, src, err := DecodeTopology(data)
		if err != nil {
			t.Fatalf("%s: decode: %v", tc.name, err)
		}
		if src != tc.src || g.N() != tc.g.N() || g.M() != tc.g.M() {
			t.Fatalf("%s: round trip changed shape: src %d n %d m %d", tc.name, src, g.N(), g.M())
		}
		for v := 0; v < g.N(); v++ {
			if g.Cost(v) != tc.g.Cost(v) {
				t.Errorf("%s: node %d cost %g != %g", tc.name, v, g.Cost(v), tc.g.Cost(v))
			}
		}
		for _, e := range tc.g.Edges() {
			if !g.HasEdge(e[0], e[1]) {
				t.Errorf("%s: lost edge %v", tc.name, e)
			}
		}
	}
}

func TestDecodeTopologyErrors(t *testing.T) {
	for _, data := range [][]byte{nil, {}, {7}} {
		if _, _, err := DecodeTopology(data); err == nil {
			t.Errorf("decoded %v without error", data)
		}
	}
	// Two bytes suffice: the minimal input is a 2-node edgeless graph.
	g, src, err := DecodeTopology([]byte{0, 0})
	if err != nil || g.N() != 2 || src != 1 {
		t.Fatalf("minimal decode: g=%v src=%d err=%v", g, src, err)
	}
}

func TestEncodeTopologyRejectsUnrepresentable(t *testing.T) {
	big := graph.Ring(MaxNodes + 1)
	if _, err := EncodeTopology(big, 1); err == nil {
		t.Error("encoded a graph above MaxNodes")
	}
	costly := graph.Ring(4)
	costly.SetCost(2, 1e6)
	if _, err := EncodeTopology(costly, 1); err == nil {
		t.Error("encoded a cost above the byte range")
	}
	if _, err := EncodeTopology(graph.Ring(4), 0); err == nil {
		t.Error("encoded source 0 (the destination)")
	}
}

func TestCanonicalizeMakesGeneric(t *testing.T) {
	g := graph.Ring(8) // all costs zero, maximally tied
	c := Canonicalize(g)
	seen := map[float64]bool{}
	for v := 0; v < c.N(); v++ {
		cost := c.Cost(v)
		if cost <= 0 {
			t.Errorf("node %d: canonicalized cost %g not positive", v, cost)
		}
		if seen[cost] {
			t.Errorf("node %d: duplicate canonicalized cost %g", v, cost)
		}
		seen[cost] = true
	}
	if g.Cost(3) != 0 {
		t.Error("Canonicalize mutated its input")
	}
}

// TestAgreeInfAware pins the comparator semantics the whole oracle
// rests on: monopolist +Inf prices agree with each other and with
// nothing else (the naive math.Abs(Inf−Inf) = NaN trap).
func TestAgreeInfAware(t *testing.T) {
	inf := math.Inf(1)
	if !agree(inf, inf, 1e-9) {
		t.Error("Inf should agree with Inf")
	}
	if agree(inf, 1e308, 1e-9) || agree(3, inf, 1e-9) {
		t.Error("Inf agreed with a finite value")
	}
	if !agree(1e12, 1e12*(1+1e-13), 1e-9) {
		t.Error("relative tolerance not applied at large magnitude")
	}
	if agree(1, 1.001, 1e-9) {
		t.Error("clearly different values agreed")
	}
	if !atLeast(inf, inf, 1e-9) || !atLeast(inf, 5, 1e-9) || atLeast(5, inf, 1e-9) {
		t.Error("atLeast mishandles Inf")
	}
}

// TestCheckInstanceFixtures: the paper's own examples pass every
// invariant, including the distributed protocol.
func TestCheckInstanceFixtures(t *testing.T) {
	for name, g := range map[string]*graph.NodeGraph{
		"figure2": graph.Figure2(), "figure4": graph.Figure4(),
	} {
		res := CheckInstance(g, 0, Options{
			Truthfulness: true, Metamorphic: true, Distributed: true, Seed: 1,
		})
		for _, v := range res.Violations {
			t.Errorf("%s: %s", name, v)
		}
		for _, want := range []string{"engine-batch", "engine-set", "engine-link",
			"brute-reference", "neighborhood-brute", "individual-rationality",
			"truthfulness", "meta-scaling", "meta-relabel", "meta-monotone",
			"well-formed", "distributed"} {
			if res.Checks[want] == 0 {
				t.Errorf("%s: check %q never ran", name, want)
			}
		}
	}
}

// TestCheckInstanceFastOnFixtures: the fast engine is part of the
// default agreement family.
func TestCheckInstanceFastOnFixtures(t *testing.T) {
	g := graph.Figure4()
	res := CheckInstance(g, 0, Options{})
	for _, v := range res.Violations {
		t.Errorf("%s", v)
	}
	if res.Checks["engine-fast"] == 0 {
		t.Error("fast engine never ran")
	}
}

// TestCheckInstanceHandlesAdversarialShapes: disconnected graphs,
// zero costs, monopolist chains and 2-node graphs must produce skips
// or +Inf payments, never violations or panics.
func TestCheckInstanceHandlesAdversarialShapes(t *testing.T) {
	shapes := map[string]*graph.NodeGraph{}

	disc := graph.NewNodeGraph(6)
	disc.AddEdge(1, 2)
	disc.AddEdge(4, 5) // destination 0 unreachable from everywhere
	shapes["disconnected"] = disc

	zero := graph.Ring(5) // all costs zero: every path ties
	shapes["zero-cost"] = zero

	line := graph.NewNodeGraph(5) // 0-1-2-3-4: all relays monopolists
	for v := 0; v+1 < 5; v++ {
		line.AddEdge(v, v+1)
		line.SetCost(v, float64(v))
	}
	shapes["single-path"] = line

	pair := graph.NewNodeGraph(2)
	pair.AddEdge(0, 1)
	shapes["two-node"] = pair

	for name, g := range shapes {
		res := CheckInstance(g, 0, Options{Truthfulness: true, Metamorphic: true, Seed: 2})
		for _, v := range res.Violations {
			t.Errorf("%s: %s", name, v)
		}
		if name == "zero-cost" && res.Checks["engine-fast"] == 0 {
			t.Error("zero-cost: the fast engine never ran")
		}
	}
	if res := CheckInstance(graph.NewNodeGraph(1), 0, Options{}); !res.OK() || res.Skips["degenerate"] == 0 {
		t.Error("1-node graph not skipped as degenerate")
	}
}

// TestMonopolistPricedAtInf: on a pure chain every relay's payment is
// +Inf in every engine, and the oracle agrees rather than tripping on
// Inf arithmetic.
func TestMonopolistPricedAtInf(t *testing.T) {
	line := graph.NewNodeGraph(4)
	line.AddEdge(0, 1)
	line.AddEdge(1, 2)
	line.AddEdge(2, 3)
	line.SetCost(1, 2)
	line.SetCost(2, 3)
	q, err := core.UnicastQuote(line, 3, 0, core.EngineNaive)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Monopolists()) != 2 {
		t.Fatalf("want 2 monopolists, got %v", q.Monopolists())
	}
	res := CheckInstance(line, 0, Options{})
	for _, v := range res.Violations {
		t.Errorf("%s", v)
	}
}

// TestLinkEmbedEquivalence pins the cross-model identity the oracle
// exploits: on the tail-weighted embedding, §III.F link payments are
// the node-model VCG payments exactly.
func TestLinkEmbedEquivalence(t *testing.T) {
	g := graph.Figure4()
	lg := LinkEmbed(g)
	for s := 1; s < g.N(); s++ {
		nodeQ, err := core.UnicastQuote(g, s, 0, core.EngineNaive)
		if err != nil {
			t.Fatal(err)
		}
		linkQ, err := core.LinkQuote(lg, s, 0)
		if err != nil {
			t.Fatal(err)
		}
		if linkQ.Cost != nodeQ.Cost+g.Cost(s) {
			t.Errorf("s=%d: link cost %g != node cost %g + c_s %g", s, linkQ.Cost, nodeQ.Cost, g.Cost(s))
		}
		if k, ok := paymentsAgree(nodeQ.Payments, linkQ.Payments, 1e-9); !ok {
			t.Errorf("s=%d: payments differ at node %d", s, k)
		}
	}
}

// TestCompareQuoteDetectsTampering: the oracle must actually fire —
// feed it a doctored quote and expect a violation, not silence.
func TestCompareQuoteDetectsTampering(t *testing.T) {
	g := graph.Figure2()
	q, err := core.UnicastQuote(g, 1, 0, core.EngineNaive)
	if err != nil {
		t.Fatal(err)
	}
	bad := &core.Quote{Source: q.Source, Target: q.Target, Path: q.Path,
		Cost: q.Cost, Payments: map[int]float64{}}
	for k, p := range q.Payments {
		bad.Payments[k] = p
	}
	relay := q.Relays()[0]
	bad.Payments[relay] += 0.5
	res := newResult()
	compareQuote(res, "engine-test", q, bad, 0, 1e-9)
	if len(res.Violations) != 1 || res.Violations[0].Node != relay {
		t.Fatalf("tampered payment not flagged: %v", res.Violations)
	}
	bad.Payments[relay] -= 0.5
	bad.Cost += 1
	res = newResult()
	compareQuote(res, "engine-test", q, bad, 0, 1e-9)
	if len(res.Violations) != 1 {
		t.Fatalf("tampered cost not flagged: %v", res.Violations)
	}
}

func TestPickSources(t *testing.T) {
	if got := pickSources(5, 2, 0); len(got) != 4 {
		t.Errorf("want all 4 sources, got %v", got)
	}
	got := pickSources(100, 0, 8)
	if len(got) != 8 {
		t.Fatalf("want 8 sampled sources, got %d", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i] <= got[i-1] {
			t.Errorf("sampled sources not strictly increasing: %v", got)
		}
	}
}

// TestMinimizeShrinksCounterexample drives the minimizer with an
// impossible tolerance — every comparison fails, so any graph is a
// counterexample — and checks it shrinks a 3×3 grid to a single edge
// while the failure keeps reproducing. The costs are off the dyadic
// grid: on quantized costs engine-batch is compared bitwise, where no
// tolerance applies.
func TestMinimizeShrinksCounterexample(t *testing.T) {
	g := graph.Grid(3, 3)
	for v := 0; v < g.N(); v++ {
		g.SetCost(v, float64(v%5)+1.1)
	}
	opt := Options{Tol: -1} // nothing agrees with anything
	min, v, ok := Minimize(g, 0, opt, "engine-batch")
	if !ok {
		t.Fatal("failure did not reproduce")
	}
	if v.Check != "engine-batch" {
		t.Fatalf("minimized violation has check %q", v.Check)
	}
	if min.M() >= g.M() {
		t.Fatalf("no edges removed: %d -> %d", g.M(), min.M())
	}
	if min.M() != 1 {
		t.Errorf("expected a single surviving edge, got %d", min.M())
	}
}

// TestMinimizeRejectsNonFailure: a healthy graph yields ok=false and
// the untouched input.
func TestMinimizeRejectsNonFailure(t *testing.T) {
	g := graph.Figure2()
	min, _, ok := Minimize(g, 0, Options{}, "engine-batch")
	if ok {
		t.Fatal("healthy graph reported as reproducing a failure")
	}
	if min.M() != g.M() {
		t.Fatal("non-failure input was modified")
	}
}

// TestSoakCampaignClean: a down-scaled soak (the full ≥500-topology
// campaign runs via `unicast-sim -figure oracle`; see EXPERIMENTS.md)
// must come back violation-free with every family and check hit.
func TestSoakCampaignClean(t *testing.T) {
	rep := Soak(SoakOptions{Topologies: 36, MaxN: 40, Seed: 2004, DistEvery: 6, FaultEvery: 2})
	for _, v := range rep.Result.Violations {
		t.Errorf("%s", v)
	}
	if len(rep.Counterexamples) != 0 {
		t.Errorf("clean run produced %d counterexamples", len(rep.Counterexamples))
	}
	for _, want := range []string{"engine-fast", "engine-batch", "engine-link",
		"distributed", "distributed-faulted", "truthfulness", "brute-reference"} {
		if rep.Result.Checks[want] == 0 {
			t.Errorf("soak never ran check %q", want)
		}
	}
}

// TestSoakDeterministic: same seed, same counters — the parallel
// schedule must not leak into results.
func TestSoakDeterministic(t *testing.T) {
	a := Soak(SoakOptions{Topologies: 12, MaxN: 24, Seed: 42, DistEvery: 5})
	b := Soak(SoakOptions{Topologies: 12, MaxN: 24, Seed: 42, DistEvery: 5})
	if len(a.Result.Checks) != len(b.Result.Checks) {
		t.Fatal("check sets differ across identical runs")
	}
	for k, av := range a.Result.Checks {
		if b.Result.Checks[k] != av {
			t.Errorf("check %q: %d vs %d", k, av, b.Result.Checks[k])
		}
	}
	for k, av := range a.Result.Skips {
		if b.Result.Skips[k] != av {
			t.Errorf("skip %q: %d vs %d", k, av, b.Result.Skips[k])
		}
	}
}

// DecodeTopology parses the compact byte-string topology encoding
// used by the FuzzOracle* targets. The format is chosen so that
// *every* byte string of length ≥ 2 is valid — the fuzzer explores
// topology space, not parser error paths:
//
//	byte 0:        n    = 2 + b₀ mod 63   (2 ≤ n ≤ 64 nodes)
//	byte 1:        src  = 1 + b₁ mod (n−1); the destination is node 0
//	bytes 2..n+1:  per-node costs, c_v = b/8 (missing bytes mean 0,
//	               so zero-cost nodes are reachable by truncation)
//	rest, pairs:   edges {bᵢ mod n, bᵢ₊₁ mod n}; self-loops and
//	               duplicates are skipped, an odd trailing byte is
//	               ignored
//
// Disconnected graphs, isolated sources and zero-cost relays are all
// expressible — CheckInstance must handle them, not the decoder.
func DecodeTopology(data []byte) (*graph.NodeGraph, int, error) {
	if len(data) < 2 {
		return nil, 0, ErrShortInput
	}
	n := 2 + int(data[0])%(MaxNodes-1)
	src := 1 + int(data[1])%(n-1)
	g := graph.NewNodeGraph(n)
	for v := 0; v < n; v++ {
		if 2+v < len(data) {
			g.SetCost(v, float64(data[2+v])/8)
		}
	}
	for i := 2 + n; i+1 < len(data); i += 2 {
		u, v := int(data[i])%n, int(data[i+1])%n
		if u == v || g.HasEdge(u, v) {
			continue
		}
		g.AddEdge(u, v)
	}
	return g, src, nil
}

// EncodeTopology is the inverse of DecodeTopology, used to seed fuzz
// corpora from named fixtures. Costs are quantized to eighths and
// clamped to [0, 255/8]; it errors on graphs the encoding cannot
// represent rather than silently truncating.
func EncodeTopology(g *graph.NodeGraph, src int) ([]byte, error) {
	n := g.N()
	if n < 2 || n > MaxNodes {
		return nil, fmt.Errorf("oracle: %d nodes outside encodable range [2,%d]", n, MaxNodes)
	}
	if src < 1 || src >= n {
		return nil, fmt.Errorf("oracle: source %d not in [1,%d]", src, n-1)
	}
	data := make([]byte, 0, 2+n+2*g.M())
	data = append(data, byte(n-2), byte(src-1))
	for v := 0; v < n; v++ {
		q := math.Round(g.Cost(v) * 8)
		if q > 255 {
			return nil, fmt.Errorf("oracle: cost %g of node %d exceeds encodable max %g", g.Cost(v), v, 255.0/8)
		}
		data = append(data, byte(q))
	}
	for _, e := range g.Edges() {
		data = append(data, byte(e[0]), byte(e[1]))
	}
	return data, nil
}

// Canonicalize returns a copy of g with costs made strictly positive
// and generically tie-free: every cost is floored at 1/8 and nudged
// by a node-indexed golden-ratio fraction scaled to 2⁻¹⁰, so distinct
// node subsets essentially never sum to equal path costs. The strict
// cross-engine fuzz target runs the fast engine (which assumes unique
// shortest paths) on canonicalized instances only; CheckInstance
// still detects and skips any tie that survives.
func Canonicalize(g *graph.NodeGraph) *graph.NodeGraph {
	const phi = 0.6180339887498949
	costs := g.Costs()
	for v := range costs {
		_, frac := math.Modf(float64(v+1) * phi)
		costs[v] = math.Max(costs[v], 0.125) + frac/1024
	}
	return g.WithCosts(costs)
}

// MaxNodes bounds the decoder: a fuzz input can request at most this
// many nodes, keeping one CheckInstance call cheap enough to run tens
// of thousands of times per second.
const MaxNodes = 64

// ErrShortInput is returned for inputs too short to carry the node
// count and source bytes.
var ErrShortInput = errors.New("oracle: topology encoding needs at least 2 bytes")
