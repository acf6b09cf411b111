package mechanism

import (
	"fmt"
	"testing"

	"truthroute/internal/core"
	"truthroute/internal/graph"
)

// nDisjointPaths builds k internally-disjoint s→t routes, each with
// one relay of the given costs; s = 0, t = k+1... the relays are
// 1..k, the target is k+1.
func nDisjointPaths(costs ...float64) (*graph.NodeGraph, int) {
	k := len(costs)
	g := graph.NewNodeGraph(k + 2)
	t := k + 1
	all := make([]float64, k+2)
	for i, c := range costs {
		relay := i + 1
		g.AddEdge(0, relay)
		g.AddEdge(relay, t)
		all[relay] = c
	}
	g.SetCosts(all)
	return g, t
}

// TestCoalitionGridMatchesPairVerifier: on a two-route graph, the
// size-2 coalition search finds violations iff the pair verifier
// does.
func TestCoalitionGridMatchesPairVerifier(t *testing.T) {
	g, tgt := nDisjointPaths(1, 2)
	m := VCG(0, tgt, core.EngineNaive)
	pair, err := VerifyPairCollusion(g, 0, tgt, m, [][2]int{{1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	coal, err := VerifyCoalitionGrid(g, 0, tgt, m, []int{1, 2}, DeviationGrid)
	if err != nil {
		t.Fatal(err)
	}
	if (len(pair) == 0) != (len(coal) == 0) {
		t.Fatalf("pair found %d, coalition found %d", len(pair), len(coal))
	}
	if len(coal) == 0 {
		t.Fatal("the two relays form a vertex cut; collusion must be profitable (Theorem 7)")
	}
}

// TestTripleCutCoalition: three relays forming the full vertex cut
// can jointly overcharge any LCP mechanism, extending Theorem 7
// beyond pairs.
func TestTripleCutCoalition(t *testing.T) {
	g, tgt := nDisjointPaths(1, 2, 3)
	small := func(c float64) []float64 { return []float64{c * 3, c + 50} }
	for name, m := range map[string]Mechanism{
		"plain":  VCG(0, tgt, core.EngineNaive),
		"ptilde": NeighborhoodVCG(0, tgt),
	} {
		viol, err := VerifyCoalitionGrid(g, 0, tgt, m, []int{1, 2, 3}, small)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(viol) == 0 {
			t.Errorf("%s: a full-cut triple must be able to collude", name)
		}
	}
}

// TestKHopSetQuoteResistsTwoHopOverreporting: the generalized Q(v_k)
// scheme with 2-hop sets resists over-reporting coalitions of nodes
// within two hops of each other, on a graph where G∖Q(v_k) stays
// connected.
func TestKHopSetQuoteResistsTwoHopOverreporting(t *testing.T) {
	// Five disjoint two-relay routes 0 → 11; relays on route r are
	// 1+2r and 2+2r. Plus chords making route 0's relays 2-hop
	// reachable from route 1's.
	g := graph.NewNodeGraph(12)
	for r := 0; r < 5; r++ {
		a, b := 1+2*r, 2+2*r
		g.AddEdge(0, a)
		g.AddEdge(a, b)
		g.AddEdge(b, 11)
	}
	g.AddEdge(1, 3) // chord: route-0 relay adjacent to route-1 relay
	costs := make([]float64, 12)
	for r := 0; r < 5; r++ {
		costs[1+2*r] = float64(r + 1)
		costs[2+2*r] = float64(r + 1)
	}
	g.SetCosts(costs)

	m := SetVCG(0, 11, func(k int) []int { return g.KHopNeighborhood(k, 2) })
	// Coalition: the two cheapest-route relays (1, 2) plus the
	// adjacent route-1 relay 3 — all within two hops.
	viol, err := VerifyCoalitionGrid(g, 0, 11, m, []int{1, 2, 3}, OverreportGrid)
	if err != nil {
		t.Fatal(err)
	}
	if len(viol) > 0 {
		t.Fatalf("2-hop Q-set scheme admits over-reporting coalition: %v", viol[0])
	}
	// Control: plain VCG falls to the same coalition.
	plainViol, err := VerifyCoalitionGrid(g, 0, 11, VCG(0, 11, core.EngineNaive), []int{1, 2, 3}, OverreportGrid)
	if err != nil {
		t.Fatal(err)
	}
	if len(plainViol) == 0 {
		t.Fatal("plain VCG should be vulnerable to the 2-hop coalition")
	}
}

func TestCoalitionGridRejectsEndpoints(t *testing.T) {
	g, tgt := nDisjointPaths(1, 2)
	m := VCG(0, tgt, core.EngineNaive)
	if _, err := VerifyCoalitionGrid(g, 0, tgt, m, []int{0, 1}, DeviationGrid); err == nil {
		t.Error("endpoint member accepted")
	}
}

// VerifyCoalitionGrid tries every combination of per-member
// deviations from grid (plus each member's truth) for one coalition
// and reports the profitable joint lies. The search is exhaustive
// over the grid, so it is exponential in the coalition size; callers
// should keep coalitions small (≤ 4 with the default grids) — enough
// to exhibit Theorem 7's impossibility and to validate p̃ beyond
// pairs.
func VerifyCoalitionGrid(trueG *graph.NodeGraph, s, t int, m Mechanism, members []int, grid func(c float64) []float64) ([]CoalitionViolation, error) {
	truthQ, err := m(trueG)
	if err != nil {
		return nil, fmt.Errorf("mechanism: truthful run: %w", err)
	}
	for _, k := range members {
		if k == s || k == t {
			return nil, fmt.Errorf("mechanism: coalition member %d is an endpoint", k)
		}
	}
	truthJoint := 0.0
	options := make([][]float64, len(members))
	for i, k := range members {
		ck := trueG.Cost(k)
		truthJoint += Utility(truthQ, k, ck)
		options[i] = append(grid(ck), ck)
	}
	var out []CoalitionViolation
	decls := make([]float64, len(members))
	var walk func(i int, anyLie bool)
	walk = func(i int, anyLie bool) {
		if i == len(members) {
			if !anyLie {
				return
			}
			g := trueG.WithCosts(trueG.Costs())
			for j, k := range members {
				g.SetCost(k, decls[j])
			}
			lieQ, err := m(g)
			lieJoint := 0.0
			if err == nil {
				for _, k := range members {
					lieJoint += Utility(lieQ, k, trueG.Cost(k))
				}
			}
			if lieJoint > truthJoint+epsilon {
				out = append(out, CoalitionViolation{
					Members:    append([]int(nil), members...),
					Decls:      append([]float64(nil), decls...),
					TruthJoint: truthJoint,
					LieJoint:   lieJoint,
				})
			}
			return
		}
		for _, d := range options[i] {
			decls[i] = d
			// The declaration grid includes the true cost verbatim, so
			// an exact match identifies the truthful cell.
			walk(i+1, anyLie || d != trueG.Cost(members[i]))
		}
	}
	walk(0, false)
	return out, nil
}

// SetVCG returns the generalized Q(v_k)-avoiding mechanism.
func SetVCG(s, t int, avoid func(k int) []int) Mechanism {
	return func(declared *graph.NodeGraph) (*core.Quote, error) {
		return core.SetQuote(declared, s, t, avoid)
	}
}
