// Package collusion provides the analysis tools behind §III.E and
// §III.H: finding node pairs that jointly hold a monopoly (the
// motivation for Definition 1 and Theorem 7), measuring coalition
// utilities, and detecting the "resale the path" arbitrage of
// Figure 4 — a source whose total VCG payment exceeds what a
// neighbour would pay to route the same traffic plus that
// neighbour's own compensation.
package collusion

import (
	"fmt"
	"math"
	"sort"

	"truthroute/internal/core"
	"truthroute/internal/graph"
)

// TwoNodeCuts returns all unordered pairs {a, b} (endpoints excluded)
// whose joint removal disconnects s from t. Such a pair "can collude
// to declare arbitrarily large costs and charge a monopoly price
// together" (§III.E); the paper's impossibility theorem (Theorem 7)
// is rooted in their existence.
func TwoNodeCuts(g *graph.NodeGraph, s, t int) [][2]int {
	var out [][2]int
	for a := 0; a < g.N(); a++ {
		if a == s || a == t {
			continue
		}
		// Quick filter: if removing a alone keeps s-t connected via
		// nodes never touching b, we still must test each b; but if
		// removing a alone already disconnects, {a, x} is a cut for
		// every x — report only minimal pairs to keep output useful.
		aAlone := !g.ConnectedWithout(s, t, []int{a})
		for b := a + 1; b < g.N(); b++ {
			if b == s || b == t {
				continue
			}
			if aAlone || !g.ConnectedWithout(s, t, []int{b}) {
				continue // dominated by a singleton monopoly
			}
			if !g.ConnectedWithout(s, t, []int{a, b}) {
				out = append(out, [2]int{a, b})
			}
		}
	}
	return out
}

// Resale describes one profitable §III.H resale deal: Source's
// direct total payment exceeds routing through neighbour Via.
type Resale struct {
	Source, Via int
	// DirectTotal is p_i, what Source pays sending directly.
	DirectTotal float64
	// ViaObligation is p_via + max(p_i^via, c_via): Via's own total
	// payment plus the compensation Via forgoes by fronting the
	// traffic.
	ViaObligation float64
	// Savings = DirectTotal − ViaObligation, split between the two.
	Savings float64
}

// SourcePays returns what Source ends up paying under the paper's
// even split: ViaObligation + Savings/2.
func (r Resale) SourcePays() float64 { return r.ViaObligation + r.Savings/2 }

// ViaGains returns the neighbour's profit: Savings/2.
func (r Resale) ViaGains() float64 { return r.Savings / 2 }

func (r Resale) String() string {
	return fmt.Sprintf("resale %d->%d: direct %g, via %g, savings %g",
		r.Source, r.Via, r.DirectTotal, r.ViaObligation, r.Savings)
}

// FindResale scans a source's neighbours for profitable resale deals
// towards dest, most profitable first. quotes are computed with the
// given engine on the declared profile carried by g.
func FindResale(g *graph.NodeGraph, source, dest int, engine core.Engine) ([]Resale, error) {
	qi, err := core.UnicastQuote(g, source, dest, engine)
	if err != nil {
		return nil, err
	}
	pi := qi.Total()
	if math.IsInf(pi, 1) {
		return nil, fmt.Errorf("collusion: source %d faces a monopoly; resale analysis undefined", source)
	}
	var out []Resale
	for _, j := range g.Neighbors(source) {
		if j == dest {
			continue // a neighbour of the AP has nothing to resell through
		}
		qj, err := core.UnicastQuote(g, j, dest, engine)
		if err != nil {
			continue // j cannot reach dest at all
		}
		pj := qj.Total()
		if math.IsInf(pj, 1) {
			continue
		}
		// max(p_i^j, c_j) = x_j p_i^j + (1-x_j) c_j (§III.H): if j is
		// on Source's LCP it forgoes its payment, otherwise it must
		// at least recoup its relaying cost.
		forgo := math.Max(qi.Payments[j], g.Cost(j))
		obligation := pj + forgo
		if pi > obligation {
			out = append(out, Resale{
				Source: source, Via: j,
				DirectTotal: pi, ViaObligation: obligation, Savings: pi - obligation,
			})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		//lint:allow floatcmp exact tie-break keeps the comparator a transitive total order; an epsilon here would not
		if out[i].Savings != out[j].Savings {
			return out[i].Savings > out[j].Savings
		}
		return out[i].Via < out[j].Via
	})
	return out, nil
}
