package core

// Heavy randomized soak of the two fast replacement-path engines —
// the most intricate algorithms in the repository — against their
// one-Dijkstra-per-agent baselines, across three topology families
// and thousands of instances per run (fresh master seeds would make
// it flaky-hunting; fixed seeds keep CI deterministic while the
// quick.Check suites explore new seeds every run).

import (
	"math/rand/v2"
	"testing"

	"truthroute/internal/graph"
	"truthroute/internal/sp"
)

func TestSoakFastEngines(t *testing.T) {
	master := rand.New(rand.NewPCG(999, 999))
	for trial := 0; trial < 4000; trial++ {
		seed := master.Uint64()
		rng := rand.New(rand.NewPCG(seed, 0))
		n := 4 + rng.IntN(80)
		var g *graph.NodeGraph
		switch rng.IntN(3) {
		case 0:
			g = graph.RandomBiconnected(n, 0.05+0.3*rng.Float64(), rng)
		case 1:
			g = graph.ErdosRenyi(n, 2.5/float64(n), rng)
		default:
			r := 2 + rng.IntN(8)
			c := 2 + rng.IntN(8)
			g = graph.Grid(r, c)
			n = r * c
		}
		g.RandomizeCosts(0.05, 9, rng)
		s := rng.IntN(n)
		tgt := (s + 1 + rng.IntN(n-1)) % n
		if !fastVsNaive(t, g, s, tgt) {
			t.Fatalf("seed %d: fast and naive quotes for %d->%d differ", seed, s, tgt)
		}
	}
}

func TestSoakEdgeEngine(t *testing.T) {
	master := rand.New(rand.NewPCG(777, 777))
	for trial := 0; trial < 3000; trial++ {
		seed := master.Uint64()
		rng := rand.New(rand.NewPCG(seed, 0))
		n := 4 + rng.IntN(60)
		g := graph.NewEdgeWeighted(n)
		for i := 0; i < n; i++ {
			g.AddEdge(i, (i+1)%n, 0.05+6*rng.Float64())
		}
		for i := 0; i < n; i++ {
			for j := i + 2; j < n; j++ {
				if (i+1)%n == j || (j+1)%n == i || g.HasEdge(i, j) {
					continue
				}
				if rng.Float64() < 0.08 {
					g.AddEdge(i, j, 0.05+6*rng.Float64())
				}
			}
		}
		s := rng.IntN(n)
		tgt := (s + 1 + rng.IntN(n-1)) % n
		tree := sp.EdgeDijkstra(g, s, nil)
		path := tree.PathTo(tgt)
		fast := edgeReplacementCostsFast(g, s, tgt, tree)
		naive := sp.EdgeReplacementCostsNaive(g, s, tgt, path)
		for k, want := range naive {
			if got, ok := fast[k]; !ok || !almostEqual(got, want) {
				t.Fatalf("seed %d edge %v: fast %v naive %v", seed, k, got, want)
			}
		}
	}
}
