package dist

import (
	"math"
	"math/rand/v2"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"truthroute/internal/core"
	"truthroute/internal/graph"
	"truthroute/internal/sp"
)

func almostEqual(a, b float64) bool {
	if math.IsInf(a, 1) || math.IsInf(b, 1) {
		return math.IsInf(a, 1) && math.IsInf(b, 1)
	}
	diff := math.Abs(a - b)
	scale := math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
	return diff <= 1e-6*scale
}

func TestStage1BuildsSPTFigure2(t *testing.T) {
	g := graph.Figure2()
	net := NewNetwork(g, 0, nil)
	rounds, converged := net.Run(100)
	if !converged {
		t.Fatalf("stage 1 did not quiesce in %d rounds", rounds)
	}
	want := sp.NodeDijkstra(g, 0, nil)
	for i, st := range net.States() {
		if !almostEqual(st.D, want.Dist[i]) {
			t.Errorf("node %d: D = %v, want %v", i, st.D, want.Dist[i])
		}
	}
	// v1's route must be the cheap chain via v4.
	p1 := net.States()[1].Path
	wantPath := []int{1, 4, 3, 2, 0}
	if len(p1) != len(wantPath) {
		t.Fatalf("path of v1 = %v, want %v", p1, wantPath)
	}
	for i := range wantPath {
		if p1[i] != wantPath[i] {
			t.Fatalf("path of v1 = %v, want %v", p1, wantPath)
		}
	}
	if len(net.Log) != 0 {
		t.Errorf("honest run produced accusations: %v", net.Log)
	}
}

func runProtocol(t *testing.T, g *graph.NodeGraph, behaviors []Behavior) *Network {
	t.Helper()
	net := NewNetwork(g, 0, behaviors)
	s1, s2, converged := net.RunProtocol(40 * g.N())
	if !converged {
		t.Fatalf("protocol did not quiesce (stage1=%d stage2=%d)", s1, s2)
	}
	return net
}

// checkPricesMatchCentralized compares every node's converged
// distributed prices with the centralized VCG quote.
func checkPricesMatchCentralized(t *testing.T, g *graph.NodeGraph, net *Network) {
	t.Helper()
	for i := 1; i < g.N(); i++ {
		st := net.States()[i].Prices
		q, err := core.UnicastQuote(g, i, 0, core.EngineNaive)
		if err != nil {
			t.Fatalf("centralized quote for %d: %v", i, err)
		}
		if len(st) != len(q.Payments) {
			t.Errorf("node %d: %d entries, centralized %d (%v vs %v)", i, len(st), len(q.Payments), st, q.Payments)
			continue
		}
		for k, want := range q.Payments {
			if got, ok := st[k]; !ok || !almostEqual(got, want) {
				t.Errorf("node %d: p^%d = %v, centralized %v", i, k, got, want)
			}
		}
	}
}

func TestStage2PricesMatchCentralizedFigures(t *testing.T) {
	for name, g := range map[string]*graph.NodeGraph{"fig2": graph.Figure2(), "fig4": graph.Figure4()} {
		t.Run(name, func(t *testing.T) {
			net := runProtocol(t, g, nil)
			checkPricesMatchCentralized(t, g, net)
			if len(net.Log) != 0 {
				t.Errorf("honest run produced accusations: %v", net.Log)
			}
		})
	}
}

// TestQuickDistributedMatchesCentralized is the paper's §III.C
// convergence claim, property-tested on random biconnected graphs:
// the distributed relaxation reaches exactly the centralized VCG
// payments, with no accusations among honest nodes.
func TestQuickDistributedMatchesCentralized(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 40))
		n := 4 + rng.IntN(14)
		g := graph.RandomBiconnected(n, 0.25, rng)
		g.RandomizeCosts(0.5, 4, rng)
		net := NewNetwork(g, 0, nil)
		s1, s2, converged := net.RunProtocol(50 * n)
		if !converged {
			t.Logf("seed %d: no quiescence (stage1=%d stage2=%d)", seed, s1, s2)
			return false
		}
		if len(net.Log) != 0 {
			t.Logf("seed %d: honest accusations %v", seed, net.Log)
			return false
		}
		for i := 1; i < n; i++ {
			q, err := core.UnicastQuote(g, i, 0, core.EngineNaive)
			if err != nil {
				t.Logf("seed %d: %v", seed, err)
				return false
			}
			st := net.States()[i].Prices
			if len(st) != len(q.Payments) {
				t.Logf("seed %d node %d: entries %v vs %v", seed, i, st, q.Payments)
				return false
			}
			for k, want := range q.Payments {
				if got, ok := st[k]; !ok || !almostEqual(got, want) {
					t.Logf("seed %d node %d: p^%d = %v want %v", seed, i, k, got, want)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestConvergenceWithinLinearRounds checks the paper's "at most n
// rounds" bound for stage 2 (we allow a small constant factor for
// the one-round message latency of the simulator).
func TestConvergenceWithinLinearRounds(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 41))
	for trial := 0; trial < 10; trial++ {
		n := 10 + rng.IntN(30)
		g := graph.RandomBiconnected(n, 0.15, rng)
		g.RandomizeCosts(0.5, 4, rng)
		net := NewNetwork(g, 0, nil)
		s1, s2, _ := net.RunProtocol(50 * n)
		if s1 > 3*n || s2 > 3*n {
			t.Errorf("n=%d: stage1=%d stage2=%d rounds (> 3n)", n, s1, s2)
		}
	}
}

// TestEdgeHiderDetected replays the Figure-2 attack end to end: the
// source v1 pretends its link to v4 does not exist, routes via v5,
// and is publicly accused by v4 under Algorithm 2's stage-1 mutual
// correction.
func TestEdgeHiderDetected(t *testing.T) {
	g := graph.Figure2()
	behaviors := make([]Behavior, g.N())
	behaviors[1] = &EdgeHider{Hidden: 4}
	net := NewNetwork(g, 0, behaviors)
	net.RunProtocol(500)
	st1 := net.States()[1]
	if st1.FH == 4 {
		t.Fatal("the hider adopted the hidden route; attack not exercised")
	}
	if !almostEqual(st1.D, 4) {
		t.Errorf("hider's lied distance = %v, want 4 (via v5)", st1.D)
	}
	if !net.AccusedSet()[1] {
		t.Fatalf("the edge hider was not accused; log: %v", net.Log)
	}
	// And the accusation came from the hidden neighbour.
	fromHidden := false
	for _, st := range net.States() {
		for _, a := range st.Accusations {
			if a.Offender == 1 {
				fromHidden = true
			}
		}
	}
	if !fromHidden {
		t.Error("no node holds a local accusation against the hider")
	}
}

// TestUnderpayerDetected replays the §III.D payment manipulation:
// a node announces prices scaled by 0.6 and is accused by a trigger
// neighbour during stage-2 verification.
func TestUnderpayerDetected(t *testing.T) {
	g := graph.Figure4()
	behaviors := make([]Behavior, g.N())
	behaviors[8] = &Underpayer{Factor: 0.6}
	net := NewNetwork(g, 0, behaviors)
	net.RunProtocol(500)
	if !net.AccusedSet()[8] {
		t.Fatalf("the underpayer was not accused; log: %v", net.Log)
	}
	// The cheat would have saved it money had it gone unnoticed.
	u := behaviors[8].(*Underpayer)
	honest := sortedSum(u.State().Prices, 1)
	if !(u.CheatedTotal() < honest) {
		t.Errorf("cheated total %v not below honest %v", u.CheatedTotal(), honest)
	}
}

// TestHonestRunsNeverAccuse fuzzes honest networks: no false
// positives from the correction timeouts or trigger verification.
func TestHonestRunsNeverAccuse(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 42))
		n := 4 + rng.IntN(20)
		g := graph.ErdosRenyi(n, 0.3, rng)
		g.RandomizeCosts(0.5, 4, rng)
		net := NewNetwork(g, 0, nil)
		net.RunProtocol(60 * n)
		if len(net.Log) != 0 {
			t.Logf("seed %d: %v", seed, net.Log)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestMuteNodeRoutedAround: a silent node neither breaks stage 1 nor
// stage 2; the rest of the network converges to the prices of the
// topology without it.
func TestMuteNodeRoutedAround(t *testing.T) {
	g := threeRoutes()
	behaviors := make([]Behavior, g.N())
	behaviors[1] = &Mute{} // cheapest relay goes silent
	net := NewNetwork(g, 0, behaviors)
	net.RunProtocol(500)
	// Node 4's view: route via 1 is invisible; it must go direct.
	// Here node 4 = the target-side hub; check source node 5 routes
	// around node 1.
	reduced := g.Clone()
	for _, nb := range append([]int(nil), reduced.Neighbors(1)...) {
		reduced.RemoveEdge(1, nb)
	}
	want := sp.NodeDijkstra(reduced, 0, nil)
	for i := 2; i < g.N(); i++ {
		st := net.States()[i]
		if !almostEqual(st.D, want.Dist[i]) {
			t.Errorf("node %d: D = %v, want %v (mute removed)", i, st.D, want.Dist[i])
		}
	}
}

// threeRoutes is a 6-node graph with three 0↔5 routes through relays
// 1 (cost 1), 2 (cost 2) and 3 (cost 5), plus hub 4 joining 5.
func threeRoutes() *graph.NodeGraph {
	g := graph.NewNodeGraph(6)
	for _, e := range [][2]int{{0, 1}, {1, 4}, {0, 2}, {2, 4}, {0, 3}, {3, 4}, {4, 5}, {5, 1}} {
		g.AddEdge(e[0], e[1])
	}
	g.SetCosts([]float64{0, 1, 2, 5, 1, 0})
	return g
}

func TestAccusationStringAndHelpers(t *testing.T) {
	a := Accusation{Offender: 3, Kind: "testing"}
	if a.String() == "" {
		t.Error("empty accusation string")
	}
	g := graph.Figure2()
	net := NewNetwork(g, 0, nil)
	if got := net.Cost(5); got != 4 {
		t.Errorf("Cost(5) = %v, want 4", got)
	}
	if len(net.Neighbors(1)) != 3 {
		t.Errorf("Neighbors(1) = %v", net.Neighbors(1))
	}
}

// TestMultipleAdversariesDetectedTogether: an edge hider and an
// underpayer operating in the same run are both accused.
func TestMultipleAdversariesDetectedTogether(t *testing.T) {
	g := graph.Figure4()
	behaviors := make([]Behavior, g.N())
	behaviors[8] = &Underpayer{Factor: 0.5}
	behaviors[4] = &EdgeHider{Hidden: 3} // v4 hides its cheap route via v3
	net := NewNetwork(g, 0, behaviors)
	net.RunProtocol(2000)
	accused := net.AccusedSet()
	if !accused[8] {
		t.Errorf("underpayer not accused; log %v", net.Log)
	}
	if !accused[4] {
		t.Errorf("edge hider not accused; log %v", net.Log)
	}
	// Honest nodes may also appear in the log: the underpayer's
	// fake-low announcements poison its neighbours' entries, and the
	// *cheater itself* then reports the discrepancy it manufactured.
	// The paper resolves exactly this with signed-message audits
	// ("all nodes must keep a record of messages ... so that an audit
	// can be performed later"): a poisoned node's entry is provably
	// derived from the cheater's signed announcement. What the
	// protocol guarantees — and we assert — is that every accusation
	// chain terminates at a real cheater.
	for offender := range accused {
		if offender == 8 || offender == 4 {
			continue
		}
		// Any other accusation must have been raised by the cheater
		// itself (the manufactured discrepancy), never by an honest
		// node.
		for i, st := range net.States() {
			if i == 8 || i == 4 {
				continue
			}
			for _, a := range st.Accusations {
				if a.Offender == offender {
					t.Errorf("honest node %d accused honest node %d", i, offender)
				}
			}
		}
	}
}

func TestSetTraceEmitsRoundSummaries(t *testing.T) {
	var sb strings.Builder
	net := NewNetwork(graph.Figure2(), 0, nil)
	net.SetTrace(&sb)
	net.RunProtocol(500)
	out := sb.String()
	if !strings.Contains(out, "round") || !strings.Contains(out, "spt") {
		t.Errorf("trace output malformed: %q", out[:min(len(out), 120)])
	}
	if !strings.Contains(out, "price") {
		t.Error("stage-2 traffic missing from trace")
	}
}

// TestMessageComplexity: the protocol's total message count stays
// within a modest polynomial of the network size — each node
// broadcasts O(1) times per state change and states change O(n)
// times, so O(n·m) deliveries bound the whole run.
func TestMessageComplexity(t *testing.T) {
	rng := rand.New(rand.NewPCG(13, 44))
	for trial := 0; trial < 6; trial++ {
		n := 10 + rng.IntN(30)
		g := graph.RandomBiconnected(n, 0.15, rng)
		g.RandomizeCosts(0.5, 4, rng)
		net := NewNetwork(g, 0, nil)
		net.RunProtocol(100 * n)
		bound := 4 * n * g.M()
		if net.Messages > bound {
			t.Errorf("n=%d m=%d: %d messages (> %d)", n, g.M(), net.Messages, bound)
		}
		if net.Messages == 0 {
			t.Error("no messages counted")
		}
	}
}

// CheatedTotal returns what the underpayer would actually pay: its
// honest entries scaled by Factor.
func (u *Underpayer) CheatedTotal() float64 {
	return sortedSum(u.State().Prices, u.Factor)
}

// sortedSum returns Σ scale·m[k] accumulated in increasing key order,
// so its rounding does not follow map order.
func sortedSum(m map[int]float64, scale float64) float64 {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	t := 0.0
	for _, k := range keys {
		t += m[k] * scale
	}
	return t
}

// AccusedSet returns the distinct accused node ids.
func (n *Network) AccusedSet() map[int]bool {
	out := map[int]bool{}
	for _, a := range n.Log {
		out[a.Offender] = true
	}
	return out
}
