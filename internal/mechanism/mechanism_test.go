package mechanism

import (
	"math/rand/v2"
	"testing"
	"testing/quick"

	"truthroute/internal/core"
	"truthroute/internal/graph"
)

func TestUtilityOnAndOffPath(t *testing.T) {
	g := graph.Figure2()
	q, err := core.UnicastQuote(g, 1, 0, core.EngineFast)
	if err != nil {
		t.Fatal(err)
	}
	// Relay v4: paid 2, true cost 1 → utility 1.
	if u := Utility(q, 4, g.Cost(4)); u != 1 {
		t.Errorf("utility of relay 4 = %v, want 1", u)
	}
	// Off-path v5: paid nothing, relays nothing → utility 0.
	if u := Utility(q, 5, g.Cost(5)); u != 0 {
		t.Errorf("utility of off-path 5 = %v, want 0", u)
	}
}

func TestDeviationGrid(t *testing.T) {
	for _, c := range []float64{0, 1, 3.7} {
		devs := DeviationGrid(c)
		if len(devs) == 0 {
			t.Fatalf("empty grid for c=%v", c)
		}
		seen := map[float64]bool{}
		for _, d := range devs {
			if d == c {
				t.Errorf("grid for c=%v contains the truth", c)
			}
			if d < 0 {
				t.Errorf("grid for c=%v contains negative %v", c, d)
			}
			if seen[d] {
				t.Errorf("grid for c=%v contains duplicate %v", c, d)
			}
			seen[d] = true
		}
	}
}

// TestQuickVCGIsStrategyproof empirically confirms the paper's core
// theorem on random biconnected networks: no node can profit from
// any deviation in the grid, and truthful utilities are never
// negative.
func TestQuickVCGIsStrategyproof(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 20))
		n := 4 + rng.IntN(16)
		g := graph.RandomBiconnected(n, 0.2, rng)
		g.RandomizeCosts(0.1, 5, rng)
		s := 1 + rng.IntN(n-1)
		m := VCG(s, 0, core.EngineFast)
		viol, err := VerifyStrategyproof(g, s, 0, m)
		if err != nil {
			t.Log(err)
			return false
		}
		if len(viol) > 0 {
			t.Logf("seed %d: %v", seed, viol[0])
			return false
		}
		ir, err := VerifyIndividualRationality(g, s, 0, m)
		if err != nil || len(ir) > 0 {
			t.Logf("seed %d: IR violations %v err %v", seed, ir, err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// collusionExample builds the §III.E vulnerability scenario: three
// disjoint 0→2 routes through nodes 1 (cost 1), 3 (cost 2) and 4
// (cost 10), plus the chord 1-3 making the on-path relay 1 a
// neighbour of its own replacement relay 3.
func collusionExample() *graph.NodeGraph {
	g := graph.NewNodeGraph(5)
	for _, e := range [][2]int{{0, 1}, {1, 2}, {0, 3}, {3, 2}, {0, 4}, {4, 2}, {1, 3}} {
		g.AddEdge(e[0], e[1])
	}
	g.SetCosts([]float64{0, 1, 0, 2, 10})
	return g
}

// TestPlainVCGVulnerableToNeighborCollusion realizes the paper's
// observation that p (plain VCG) does not resist neighbour
// collusion: v3 lies its cost up, inflating v1's replacement-path
// bonus, and the pair's joint utility rises.
func TestPlainVCGVulnerableToNeighborCollusion(t *testing.T) {
	g := collusionExample()
	m := VCG(0, 2, core.EngineNaive)
	viol, err := VerifyPairCollusion(g, 0, 2, m, [][2]int{{1, 3}})
	if err != nil {
		t.Fatal(err)
	}
	if len(viol) == 0 {
		t.Fatal("expected a profitable neighbour collusion under plain VCG")
	}
	found := false
	for _, v := range viol {
		if v.DeclA == g.Cost(1) && v.DeclB > g.Cost(3) {
			found = true // the canonical attack: only v3 lies, upward
		}
	}
	if !found {
		t.Errorf("no upward-lie-by-v3 violation among %d found: %v", len(viol), viol)
	}
}

// TestNeighborhoodVCGResistsNeighborCollusion shows p̃ closing the
// hole on the same graph (Theorem 8, over-reporting deviations —
// the attack class the paper motivates the scheme with).
func TestNeighborhoodVCGResistsNeighborCollusion(t *testing.T) {
	g := collusionExample()
	m := NeighborhoodVCG(0, 2)
	viol, err := VerifyPairCollusionGrid(g, 0, 2, m, NeighborPairs(g), OverreportGrid)
	if err != nil {
		t.Fatal(err)
	}
	if len(viol) > 0 {
		t.Fatalf("p̃ admits over-reporting neighbour collusion: %v", viol[0])
	}
	// And p̃ remains individually strategyproof and IR.
	v1, err := VerifyStrategyproof(g, 0, 2, m)
	if err != nil || len(v1) > 0 {
		t.Fatalf("p̃ unilateral violations %v err %v", v1, err)
	}
	ir, err := VerifyIndividualRationality(g, 0, 2, m)
	if err != nil || len(ir) > 0 {
		t.Fatalf("p̃ IR violations %v err %v", ir, err)
	}
}

// TestQuickNeighborhoodVCGOnRandomGraphs property-tests p̃ against
// over-reporting neighbour-pair collusion on random graphs that
// satisfy its connectivity assumption.
func TestQuickNeighborhoodVCGOnRandomGraphs(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 21))
		n := 5 + rng.IntN(10)
		g := graph.RandomBiconnected(n, 0.5, rng)
		g.RandomizeCosts(0.1, 5, rng)
		s := 1 + rng.IntN(n-1)
		if !g.NeighborhoodConnected(s, 0) {
			return true // assumption violated; skip
		}
		m := NeighborhoodVCG(s, 0)
		viol, err := VerifyPairCollusionGrid(g, s, 0, m, NeighborPairs(g), OverreportGrid)
		if err != nil {
			t.Log(err)
			return false
		}
		if len(viol) > 0 {
			t.Logf("seed %d: %v", seed, viol[0])
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

// TestTheorem8CaveatUnderreporting documents a genuine caveat in the
// paper's Theorem 8 discovered by this reproduction: under the *full*
// Definition-1 deviation class, an on-path relay can under-report
// (keeping its own utility fixed, since its payment contains
// −||P(d)|| + d_k) while raising its off-path neighbour's payment,
// whose −||P(d)|| term shrinks with the lie. The joint gain equals
// the under-report, so p̃ is not 2-agent strategyproof against
// under-reporting coalitions. Theorem 8's proof evaluates both
// colluders' welfare terms at true costs, which only covers
// deviations that leave each other's valuation terms truthful —
// over-reporting by off-path members, the attack the paper set out
// to stop. See EXPERIMENTS.md.
func TestTheorem8CaveatUnderreporting(t *testing.T) {
	g := collusionExample()
	m := NeighborhoodVCG(0, 2)
	viol, err := VerifyPairCollusion(g, 0, 2, m, [][2]int{{1, 3}})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, v := range viol {
		if v.DeclA < g.Cost(1) {
			found = true
		}
	}
	if !found {
		t.Fatal("expected the under-reporting counterexample to Theorem 8 to appear")
	}
}

// TestTheorem7AnyLCPMechanismFailsSomePair illustrates Theorem 7: on
// a graph with a two-node cut, even p̃ cannot stop the cut pair from
// jointly overcharging — no LCP mechanism can.
func TestTheorem7AnyLCPMechanismFailsSomePair(t *testing.T) {
	// Two routes 0→3: via 1 (cost 1) and via 2 (cost 2). Nodes 1 and
	// 2 together form a vertex cut: colluding, they can raise both
	// costs and the route must still use one of them.
	g := graph.NewNodeGraph(4)
	for _, e := range [][2]int{{0, 1}, {1, 3}, {0, 2}, {2, 3}} {
		g.AddEdge(e[0], e[1])
	}
	g.SetCosts([]float64{0, 1, 2, 0})
	m := VCG(0, 3, core.EngineNaive)
	viol, err := VerifyPairCollusion(g, 0, 3, m, [][2]int{{1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	if len(viol) == 0 {
		t.Fatal("a two-node cut pair must be able to collude against any LCP mechanism")
	}
}

func TestVerifyErrorsPropagate(t *testing.T) {
	g := graph.NewNodeGraph(3)
	g.AddEdge(0, 1) // node 2 unreachable
	m := VCG(0, 2, core.EngineFast)
	if _, err := VerifyStrategyproof(g, 0, 2, m); err == nil {
		t.Error("unreachable truthful run should error")
	}
	if _, err := VerifyPairCollusion(g, 0, 2, m, [][2]int{{1, 2}}); err == nil {
		t.Error("unreachable truthful run should error")
	}
}

func TestStringersAndAllPairs(t *testing.T) {
	v := Violation{Node: 1, TrueCost: 2, DeclaredCost: 3, TruthUtility: 0, LieUtility: 1}
	if v.String() == "" {
		t.Error("Violation stringer empty")
	}
	pv := PairViolation{A: 1, B: 2, DeclA: 3, DeclB: 4, TruthJoint: 0, LieJoint: 1}
	if pv.String() == "" {
		t.Error("PairViolation stringer empty")
	}
	cv := CoalitionViolation{Members: []int{1, 2}, Decls: []float64{3, 4}}
	if cv.String() == "" {
		t.Error("CoalitionViolation stringer empty")
	}
	lv := LinkViolation{Node: 1, Description: "x"}
	if lv.String() == "" {
		t.Error("LinkViolation stringer empty")
	}
	pairs := AllPairs(4)
	if len(pairs) != 6 {
		t.Errorf("AllPairs(4) = %d pairs, want 6", len(pairs))
	}
}

func TestVerifyIRPropagatesError(t *testing.T) {
	g := graph.NewNodeGraph(3)
	g.AddEdge(0, 1)
	if _, err := VerifyIndividualRationality(g, 0, 2, VCG(0, 2, core.EngineFast)); err == nil {
		t.Error("unreachable truthful run should error")
	}
}

// VerifyIndividualRationality checks that under truthful declaration
// every node's utility is ≥ 0, returning offending nodes.
func VerifyIndividualRationality(trueG *graph.NodeGraph, s, t int, m Mechanism) ([]int, error) {
	q, err := m(trueG)
	if err != nil {
		return nil, err
	}
	var bad []int
	for k := 0; k < trueG.N(); k++ {
		if k == s || k == t {
			continue
		}
		if Utility(q, k, trueG.Cost(k)) < -epsilon {
			bad = append(bad, k)
		}
	}
	return bad, nil
}

// VerifyPairCollusion tries every joint deviation from DeviationGrid
// on the given pairs (including one-sided ones) and reports
// profitable collusions.
func VerifyPairCollusion(trueG *graph.NodeGraph, s, t int, m Mechanism, pairs [][2]int) ([]PairViolation, error) {
	return VerifyPairCollusionGrid(trueG, s, t, m, pairs, DeviationGrid)
}

// AllPairs enumerates every unordered node pair — the structure
// Theorem 7 proves *no* LCP mechanism can defend against.
func AllPairs(n int) [][2]int {
	var out [][2]int
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			out = append(out, [2]int{u, v})
		}
	}
	return out
}
