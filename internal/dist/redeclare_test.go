package dist

import (
	"math/rand/v2"
	"testing"
	"testing/quick"

	"truthroute/internal/core"
	"truthroute/internal/graph"
	"truthroute/internal/sp"
)

// TestReDeclareRaiseConverges: raising a relay's declared cost
// mid-run must propagate through the case-2 corrections (a parent is
// authoritative for its children's distances) and reconverge both
// stages to the centralized answer on the new profile.
func TestReDeclareRaiseConverges(t *testing.T) {
	g := graph.Figure2()
	net := NewNetwork(g, 0, nil)
	net.RunProtocol(1000)

	// v3 (on the cheap chain) raises its declared cost from 1 to 10:
	// the LCP for v1 flips to the v5 route.
	net.ReDeclare(3, 10)
	net.RunProtocol(5000)
	if len(net.Log) != 0 {
		t.Fatalf("re-declaration caused accusations: %v", net.Log)
	}
	want := sp.NodeDijkstra(g, 0, nil)
	for i, st := range net.States() {
		if !almostEqual(st.D, want.Dist[i]) {
			t.Errorf("node %d: D = %v, want %v after raise", i, st.D, want.Dist[i])
		}
	}
	checkPricesMatchCentralized(t, g, net)
	if p := net.States()[1].Path; len(p) != 3 || p[1] != 5 {
		t.Errorf("v1's repaired path = %v, want [1 5 0]", p)
	}
}

// TestReDeclareLowerConverges: lowering a cost repairs through plain
// relaxation.
func TestReDeclareLowerConverges(t *testing.T) {
	g := graph.Figure2()
	net := NewNetwork(g, 0, nil)
	net.RunProtocol(1000)

	net.ReDeclare(5, 0.5) // v5's route becomes the cheapest for v1
	net.RunProtocol(5000)
	if len(net.Log) != 0 {
		t.Fatalf("re-declaration caused accusations: %v", net.Log)
	}
	want := sp.NodeDijkstra(g, 0, nil)
	for i, st := range net.States() {
		if !almostEqual(st.D, want.Dist[i]) {
			t.Errorf("node %d: D = %v, want %v after lower", i, st.D, want.Dist[i])
		}
	}
	checkPricesMatchCentralized(t, g, net)
}

// TestQuickReDeclareRandom fuzzes mid-run cost changes on random
// biconnected networks: after every change the protocol reconverges
// to the centralized quotes with no accusations.
func TestQuickReDeclareRandom(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 85))
		n := 5 + rng.IntN(10)
		g := graph.RandomBiconnected(n, 0.3, rng)
		g.RandomizeCosts(0.5, 4, rng)
		net := NewNetwork(g, 0, nil)
		net.RunProtocol(200 * n)
		for change := 0; change < 2; change++ {
			v := 1 + rng.IntN(n-1)
			net.ReDeclare(v, 0.5+4*rng.Float64())
			net.RunProtocol(400 * n)
		}
		if len(net.Log) != 0 {
			t.Logf("seed %d: accusations %v", seed, net.Log)
			return false
		}
		want := sp.NodeDijkstra(g, 0, nil)
		for i, st := range net.States() {
			if !almostEqual(st.D, want.Dist[i]) {
				t.Logf("seed %d node %d: D %v want %v", seed, i, st.D, want.Dist[i])
				return false
			}
		}
		for i := 1; i < n; i++ {
			q, err := core.UnicastQuote(g, i, 0, core.EngineNaive)
			if err != nil {
				return false
			}
			st := net.States()[i].Prices
			if len(st) != len(q.Payments) {
				t.Logf("seed %d node %d: %v vs %v", seed, i, st, q.Payments)
				return false
			}
			for k, w := range q.Payments {
				if got, ok := st[k]; !ok || !almostEqual(got, w) {
					t.Logf("seed %d node %d: p^%d %v want %v", seed, i, k, got, w)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// ReDeclare changes node v's declared cost mid-run and drops every
// node back to stage 1. Distance *increases* propagate through
// Algorithm 2's case-2 corrections (a first hop is authoritative for
// its children), decreases through ordinary relaxation; rerun
// RunProtocol afterwards to reconverge both stages. Stage-2 prices
// are reset because the relaxation is monotone and cannot track a
// cost increase in place.
func (n *Network) ReDeclare(v int, cost float64) {
	n.G.SetCost(v, cost)
	for _, b := range n.Nodes {
		b.Refresh()
	}
}
