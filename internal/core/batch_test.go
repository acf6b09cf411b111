package core

import (
	"math/rand/v2"
	"testing"
	"testing/quick"

	"truthroute/internal/graph"
)

func TestAllUnicastQuotesFigures(t *testing.T) {
	for name, g := range map[string]*graph.NodeGraph{"fig2": graph.Figure2(), "fig4": graph.Figure4()} {
		t.Run(name, func(t *testing.T) {
			all := AllUnicastQuotes(g, 0)
			if all[0] != nil {
				t.Error("destination entry should be nil")
			}
			for i := 1; i < g.N(); i++ {
				want, err := UnicastQuote(g, i, 0, EngineNaive)
				if err != nil {
					t.Fatal(err)
				}
				got := all[i]
				if got == nil {
					t.Fatalf("no quote for %d", i)
				}
				if !almostEqual(got.Cost, want.Cost) {
					t.Errorf("node %d: cost %v, want %v", i, got.Cost, want.Cost)
				}
				if len(got.Payments) != len(want.Payments) {
					t.Fatalf("node %d: payments %v vs %v", i, got.Payments, want.Payments)
				}
				for k, w := range want.Payments {
					if !almostEqual(got.Payments[k], w) {
						t.Errorf("node %d: p^%d = %v, want %v", i, k, got.Payments[k], w)
					}
				}
			}
		})
	}
}

func TestQuickAllUnicastQuotesMatchPerSource(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 60))
		n := 4 + rng.IntN(30)
		g := graph.ErdosRenyi(n, 0.25, rng)
		g.RandomizeCosts(0.1, 5, rng)
		all := AllUnicastQuotes(g, 0)
		for i := 1; i < n; i++ {
			want, err := UnicastQuote(g, i, 0, EngineNaive)
			if err != nil {
				if all[i] != nil {
					t.Logf("seed %d: quote for unreachable %d", seed, i)
					return false
				}
				continue
			}
			got := all[i]
			if got == nil || !almostEqual(got.Cost, want.Cost) || len(got.Payments) != len(want.Payments) {
				t.Logf("seed %d node %d: %v vs %v", seed, i, got, want)
				return false
			}
			for k, w := range want.Payments {
				if !almostEqual(got.Payments[k], w) {
					t.Logf("seed %d node %d: p^%d = %v want %v", seed, i, k, got.Payments[k], w)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickAllLinkQuotesMatchPerSource(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 61))
		n := 4 + rng.IntN(25)
		g := graph.RandomLinkGraph(n, 0.3, 0.1, 5, rng)
		all := AllLinkQuotes(g, 0)
		for i := 1; i < n; i++ {
			want, err := LinkQuote(g, i, 0)
			if err != nil {
				if all[i] != nil {
					t.Logf("seed %d: quote for unreachable %d", seed, i)
					return false
				}
				continue
			}
			got := all[i]
			if got == nil || !almostEqual(got.Cost, want.Cost) || len(got.Payments) != len(want.Payments) {
				t.Logf("seed %d node %d: %v vs %v", seed, i, got, want)
				return false
			}
			for k, w := range want.Payments {
				if !almostEqual(got.Payments[k], w) {
					t.Logf("seed %d node %d: p^%d = %v want %v", seed, i, k, got.Payments[k], w)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

func TestAllQuotesMonopoly(t *testing.T) {
	// 0-1-2 path: node 2's only route transits the monopolist 1.
	g := graph.NewNodeGraph(3)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.SetCosts([]float64{0, 7, 0})
	all := AllUnicastQuotes(g, 0)
	if got := all[2].Monopolists(); len(got) != 1 || got[0] != 1 {
		t.Errorf("monopolists = %v, want [1]", got)
	}
}

// TestAllSourcesOutOfRangeDest pins the input contract of both batch
// entry points: a destination outside the graph, or a graph too small
// to route in, yields g.N() nil entries rather than a panic.
func TestAllSourcesOutOfRangeDest(t *testing.T) {
	ring := graph.Ring(5)
	lg := graph.NewLinkGraph(3)
	lg.AddArc(0, 1, 1)
	lg.AddArc(1, 2, 1)
	single := graph.NewNodeGraph(1)
	for _, c := range []struct {
		name string
		out  []*Quote
		n    int
	}{
		{"node dest=-1", AllUnicastQuotes(ring, -1), 5},
		{"node dest=n", AllUnicastQuotes(ring, 5), 5},
		{"node n=1", AllUnicastQuotes(single, 0), 1},
		{"link dest=-1", AllLinkQuotes(lg, -1), 3},
		{"link dest=n", AllLinkQuotes(lg, 3), 3},
	} {
		if len(c.out) != c.n {
			t.Errorf("%s: %d entries, want %d", c.name, len(c.out), c.n)
		}
		for s, q := range c.out {
			if q != nil {
				t.Errorf("%s: entry %d = %v, want nil", c.name, s, q)
			}
		}
	}
}
