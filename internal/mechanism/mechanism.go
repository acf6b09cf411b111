// Package mechanism provides the algorithmic-mechanism-design
// vocabulary of §II.A — types, profiles, utilities — together with
// empirical verifiers for the properties the paper proves:
//
//   - Incentive compatibility (IC): declaring the true cost is a
//     dominant strategy.
//   - Individual rationality (IR): truthful participants never end
//     up with negative utility.
//   - k-agent strategyproofness (Definition 1): a colluding set
//     cannot raise its *total* utility by jointly misreporting.
//
// The verifiers exhaustively try deviation grids on concrete
// networks. They cannot prove a mechanism truthful (that is the VCG
// theorem's job) but they mechanically falsify untruthful ones —
// which is exactly what the test suite does to the fixed-price
// baselines, to plain VCG under neighbour collusion, and (as a
// sanity check) never to the paper's mechanisms.
package mechanism

import (
	"fmt"
	"math"

	"truthroute/internal/core"
	"truthroute/internal/graph"
)

// Mechanism maps a declared cost profile (carried by the graph) to a
// routing decision and payments for one unicast request. The two
// mechanisms of the paper are adapted in adapter.go; baselines
// provide their own.
type Mechanism func(declared *graph.NodeGraph) (*core.Quote, error)

// Utility returns node k's quasi-linear utility under a quote: its
// payment minus its *true* cost if it is a relay on the chosen path
// (u^k = p^k − x_k·c_k, §II.C).
func Utility(q *core.Quote, k int, trueCost float64) float64 {
	u := q.Payments[k]
	for _, r := range q.Relays() {
		if r == k {
			u -= trueCost
			break
		}
	}
	return u
}

// Violation records a profitable unilateral lie found by
// VerifyStrategyproof.
type Violation struct {
	Node         int
	TrueCost     float64
	DeclaredCost float64
	TruthUtility float64
	LieUtility   float64
}

func (v Violation) String() string {
	return fmt.Sprintf("node %d: declaring %g instead of %g raises utility %g -> %g",
		v.Node, v.DeclaredCost, v.TrueCost, v.TruthUtility, v.LieUtility)
}

// DeviationGrid returns candidate lies for a node with true cost c:
// multiplicative distortions plus a few absolute probes (including
// 0, the "relay for free to get picked" strategy). Duplicates and
// the truth itself are removed.
func DeviationGrid(c float64) []float64 {
	cands := []float64{
		0, c / 4, c / 2, c * 0.8, c * 0.95, c * 1.05, c * 1.25, c * 2, c * 5, c * 20,
		c + 0.1, c + 1, math.Max(0, c-0.1), math.Max(0, c-1),
	}
	seen := map[float64]bool{c: true}
	var out []float64
	for _, d := range cands {
		if d < 0 || seen[d] {
			continue
		}
		seen[d] = true
		out = append(out, d)
	}
	return out
}

// epsilon tolerates float noise when comparing utilities.
const epsilon = 1e-9

// VerifyStrategyproof tries, for every node, every deviation in
// DeviationGrid (holding all other declarations truthful) and
// returns the profitable lies it finds. trueG carries the true
// profile c; s and t are the unicast endpoints. Mechanism errors on
// a deviated profile (e.g. the lie disconnects the route) are
// treated as "node drops out": the liar's utility is 0.
func VerifyStrategyproof(trueG *graph.NodeGraph, s, t int, m Mechanism) ([]Violation, error) {
	truthQ, err := m(trueG)
	if err != nil {
		return nil, fmt.Errorf("mechanism: truthful run: %w", err)
	}
	var out []Violation
	for k := 0; k < trueG.N(); k++ {
		if k == s || k == t {
			continue // endpoints are not paid agents for this request
		}
		ck := trueG.Cost(k)
		truthU := Utility(truthQ, k, ck)
		for _, d := range DeviationGrid(ck) {
			lieQ, err := m(trueG.WithCost(k, d))
			var lieU float64
			if err != nil {
				lieU = 0
			} else {
				lieU = Utility(lieQ, k, ck)
			}
			if lieU > truthU+epsilon {
				out = append(out, Violation{Node: k, TrueCost: ck, DeclaredCost: d, TruthUtility: truthU, LieUtility: lieU})
			}
		}
	}
	return out, nil
}

// PairViolation records a profitable joint lie by two colluders:
// their summed utility rises, which is what Definition 1's 2-agent
// strategyproofness forbids (side payments let them share the gain).
type PairViolation struct {
	A, B                 int
	DeclA, DeclB         float64
	TruthJoint, LieJoint float64
}

func (v PairViolation) String() string {
	return fmt.Sprintf("pair (%d,%d): declaring (%g,%g) raises joint utility %g -> %g",
		v.A, v.B, v.DeclA, v.DeclB, v.TruthJoint, v.LieJoint)
}

// OverreportGrid returns candidate lies strictly above the true
// cost. This is the deviation class the paper's Theorem 8 defends
// against (a neighbour inflating its cost to boost a relay's
// replacement-path bonus). Under-reporting collusions are a distinct
// channel: an on-path colluder declaring below cost keeps its own
// utility constant while raising any payment containing a −||P(d)||
// term, so *no* VCG-family payment — p or p̃ — is 2-agent
// strategyproof against them in the full Definition-1 sense; see
// TestTheorem8CaveatUnderreporting and EXPERIMENTS.md.
func OverreportGrid(c float64) []float64 {
	return []float64{c * 1.05, c * 1.25, c * 2, c * 5, c * 20, c + 0.1, c + 1, c + 100}
}

// VerifyPairCollusionGrid is VerifyPairCollusion with a custom
// deviation grid (e.g. OverreportGrid to test the paper's Theorem 8
// under the over-reporting deviation class).
func VerifyPairCollusionGrid(trueG *graph.NodeGraph, s, t int, m Mechanism, pairs [][2]int, grid func(c float64) []float64) ([]PairViolation, error) {
	truthQ, err := m(trueG)
	if err != nil {
		return nil, fmt.Errorf("mechanism: truthful run: %w", err)
	}
	var out []PairViolation
	for _, pr := range pairs {
		a, b := pr[0], pr[1]
		if a == s || a == t || b == s || b == t || a == b {
			continue
		}
		ca, cb := trueG.Cost(a), trueG.Cost(b)
		truthJoint := Utility(truthQ, a, ca) + Utility(truthQ, b, cb)
		dasWith := append(grid(ca), ca)
		dbsWith := append(grid(cb), cb)
		for _, da := range dasWith {
			for _, db := range dbsWith {
				//lint:allow floatcmp the declaration grid includes the true costs verbatim, so exact match skips the truthful cell
				if da == ca && db == cb {
					continue
				}
				g := trueG.WithCost(a, da)
				g.SetCost(b, db)
				lieQ, err := m(g)
				var lieJoint float64
				if err != nil {
					lieJoint = 0
				} else {
					lieJoint = Utility(lieQ, a, ca) + Utility(lieQ, b, cb)
				}
				if lieJoint > truthJoint+epsilon {
					out = append(out, PairViolation{A: a, B: b, DeclA: da, DeclB: db, TruthJoint: truthJoint, LieJoint: lieJoint})
				}
			}
		}
	}
	return out, nil
}

// NeighborPairs enumerates all unordered pairs of adjacent nodes,
// the collusion structure the p̃ mechanism defends against.
func NeighborPairs(g *graph.NodeGraph) [][2]int {
	var out [][2]int
	for u := 0; u < g.N(); u++ {
		for _, v := range g.Neighbors(u) {
			if u < v {
				out = append(out, [2]int{u, v})
			}
		}
	}
	return out
}
