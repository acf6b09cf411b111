package graph

// This file holds the worked-example networks the paper uses in the
// text. The figures in the published PDF give only partial topology,
// so the graphs below are reconstructions verified (in
// fixtures_test.go and in internal/core's tests) to reproduce every
// number the paper states about them.

// Figure2 returns the §III.D example network showing that a source
// can profit by lying about its *neighbourhood* even when payments
// themselves are computed correctly:
//
//   - True LCP from v1 to v0 is v1-v4-v3-v2-v0 (relay cost 3); the
//     payment to each of v2, v3, v4 is 2, so v1 pays 6 in total.
//   - If v1 pretends the link v1-v4 does not exist, the LCP becomes
//     v1-v5-v0 and v1 pays v5 only 5.
//
// Nodes: 0 = access point, 1 = source, 2..4 = cheap relay chain,
// 5 and 6 = direct but pricier relays.
func Figure2() *NodeGraph {
	g := NewNodeGraph(7)
	for _, e := range [][2]int{{1, 4}, {4, 3}, {3, 2}, {2, 0}, {1, 5}, {5, 0}, {1, 6}, {6, 0}} {
		g.AddEdge(e[0], e[1])
	}
	g.SetCosts([]float64{0, 0, 1, 1, 1, 4, 5})
	return g
}

// Figure4 returns the §III.H "resale the path" example, scaled by a
// factor of 3 so every quantity stays integral. In the paper's
// units the example has p_8 = 20, p_4 = 6, p_8^4 = 0 and c_4 = 5;
// here (×3) the same graph yields p_8 = 60, p_4 = 18, p_8^4 = 0 and
// c_4 = 15, so the resale condition
//
//	p_8 > p_4 + max(p_8^4, c_4)   (60 > 18 + 15)
//
// holds and the colluders split savings of 27 (= 3 × 9; the paper
// splits 9 into 4.5 + 4.5 and ends with v8 paying 15.5 = 46.5/3).
//
// Topology: v8 reaches v0 via a 4-relay chain (nodes 1,5,6,7, cost 4
// each, LCP cost 16); its neighbour v4 (cost 15) reaches v0 via v3
// (cost 12) with v2 (cost 18) as v3's replacement; every chain
// relay's replacement path detours through v4 at cost 27.
func Figure4() *NodeGraph {
	g := NewNodeGraph(9)
	for _, e := range [][2]int{
		{8, 1}, {1, 5}, {5, 6}, {6, 7}, {7, 0}, // the cheap chain
		{8, 4}, {4, 3}, {3, 0}, {4, 2}, {2, 0}, // the v4 side
	} {
		g.AddEdge(e[0], e[1])
	}
	//              v0 v1  v2  v3  v4 v5 v6 v7 v8
	g.SetCosts([]float64{0, 4, 18, 12, 15, 4, 4, 4, 20})
	return g
}

// Figure4Scale is the factor by which Figure4 scales the paper's
// quantities.
const Figure4Scale = 3.0
