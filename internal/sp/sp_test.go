package sp

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"truthroute/internal/graph"
)

func TestNodeDijkstraFigure2(t *testing.T) {
	g := graph.Figure2()
	tree := NodeDijkstra(g, 1, nil)
	// LCP v1->v0 is v1-v4-v3-v2-v0 with interior cost 3.
	if tree.Dist[0] != 3 {
		t.Fatalf("Dist[0] = %v, want 3", tree.Dist[0])
	}
	want := []int{1, 4, 3, 2, 0}
	got := tree.PathTo(0)
	if len(got) != len(want) {
		t.Fatalf("PathTo(0) = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("PathTo(0) = %v, want %v", got, want)
		}
	}
	// Adjacent nodes are at distance 0 (endpoints excluded).
	if tree.Dist[4] != 0 || tree.Dist[5] != 0 {
		t.Errorf("neighbor distances = %v, %v; want 0, 0", tree.Dist[4], tree.Dist[5])
	}
	// Source's own cost never counts.
	g2 := g.WithCost(1, 1e9)
	tree2 := NodeDijkstra(g2, 1, nil)
	if tree2.Dist[0] != 3 {
		t.Errorf("source cost leaked into distances: %v", tree2.Dist[0])
	}
}

func TestNodeDijkstraBanned(t *testing.T) {
	g := graph.Figure2()
	banned := make([]bool, g.N())
	banned[4] = true
	tree := NodeDijkstra(g, 1, banned)
	// Without v4 the best is v1-v5-v0 at cost 4.
	if tree.Dist[0] != 4 {
		t.Fatalf("Dist[0] without v4 = %v, want 4", tree.Dist[0])
	}
	if tree.Reachable(4) {
		t.Error("banned node is reachable")
	}
	if tree.PathTo(4) != nil {
		t.Error("PathTo(banned) != nil")
	}
}

func TestNodeDijkstraUnreachable(t *testing.T) {
	g := graph.NewNodeGraph(3)
	g.AddEdge(0, 1)
	tree := NodeDijkstra(g, 0, nil)
	if tree.Reachable(2) {
		t.Error("isolated node reachable")
	}
	if !math.IsInf(tree.Dist[2], 1) {
		t.Errorf("Dist to isolated = %v, want +Inf", tree.Dist[2])
	}
	if p := tree.PathTo(2); p != nil {
		t.Errorf("PathTo(2) = %v, want nil", p)
	}
	if p, c := NodePath(g, 0, 2); p != nil || !math.IsInf(c, 1) {
		t.Errorf("NodePath = %v, %v", p, c)
	}
}

func TestTreeOrderIsSorted(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 0))
	g := graph.RandomBiconnected(40, 0.1, rng)
	g.RandomizeCosts(0, 10, rng)
	tree := NodeDijkstra(g, 0, nil)
	if len(tree.Order) != g.N() {
		t.Fatalf("settled %d nodes, want %d", len(tree.Order), g.N())
	}
	if tree.Order[0] != 0 {
		t.Fatalf("Order[0] = %d, want src", tree.Order[0])
	}
	for i := 1; i < len(tree.Order); i++ {
		if tree.Dist[tree.Order[i]] < tree.Dist[tree.Order[i-1]] {
			t.Fatal("settle order not by non-decreasing distance")
		}
	}
}

// bruteNodeDist is a Bellman-Ford-style reference for the
// interior-cost metric.
func bruteNodeDist(g *graph.NodeGraph, src int) []float64 {
	n := g.N()
	d := make([]float64, n)
	for i := range d {
		d[i] = Inf
	}
	d[src] = 0
	for iter := 0; iter < n; iter++ {
		changed := false
		for u := 0; u < n; u++ {
			if math.IsInf(d[u], 1) {
				continue
			}
			w := g.Cost(u)
			if u == src {
				w = 0
			}
			for _, v := range g.Neighbors(u) {
				if d[u]+w < d[v] {
					d[v] = d[u] + w
					changed = true
				}
			}
		}
		if !changed {
			break
		}
	}
	return d
}

func TestQuickNodeDijkstraMatchesBellmanFord(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 2))
		n := 2 + rng.IntN(25)
		g := graph.ErdosRenyi(n, 0.3, rng)
		g.RandomizeCosts(0, 5, rng)
		src := rng.IntN(n)
		tree := NodeDijkstra(g, src, nil)
		want := bruteNodeDist(g, src)
		for v := 0; v < n; v++ {
			if tree.Dist[v] != want[v] {
				t.Logf("seed %d: Dist[%d] = %v, want %v", seed, v, tree.Dist[v], want[v])
				return false
			}
			// The reported path must realize the reported distance.
			if tree.Reachable(v) && v != src {
				c, err := g.PathCost(tree.PathTo(v))
				if err != nil || c != tree.Dist[v] {
					t.Logf("seed %d: path cost %v err %v vs dist %v", seed, c, err, tree.Dist[v])
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestLinkDijkstraDirected(t *testing.T) {
	g := graph.NewLinkGraph(4)
	g.AddArc(0, 1, 1)
	g.AddArc(1, 2, 2)
	g.AddArc(2, 3, 3)
	g.AddArc(0, 3, 10)
	fwd := LinkDijkstra(g, 0, nil)
	if fwd.Dist[3] != 6 {
		t.Fatalf("forward Dist[3] = %v, want 6", fwd.Dist[3])
	}
	p := fwd.PathTo(3)
	want := []int{0, 1, 2, 3}
	for i := range want {
		if p[i] != want[i] {
			t.Fatalf("path = %v, want %v", p, want)
		}
	}
	// Asymmetry: no arcs back, so forward from 3 reaches nothing.
	f3 := LinkDijkstra(g, 3, nil)
	if f3.Reachable(0) {
		t.Error("directed graph should not be symmetric")
	}
}

func TestLinkDijkstraSkipsInfArcs(t *testing.T) {
	g := graph.NewLinkGraph(3)
	g.AddArc(0, 1, graph.Inf)
	g.AddArc(0, 2, 1)
	g.AddArc(2, 1, 1)
	tree := LinkDijkstra(g, 0, nil)
	if tree.Dist[1] != 2 {
		t.Fatalf("Dist[1] = %v, want 2 (Inf arc must be ignored)", tree.Dist[1])
	}
}

func TestReplacementCostsNaiveFigure2(t *testing.T) {
	g := graph.Figure2()
	path, cost := NodePath(g, 1, 0)
	if cost != 3 {
		t.Fatalf("LCP cost = %v, want 3", cost)
	}
	rep := ReplacementCostsNaive(g, 1, 0, path)
	// Removing any of v2, v3, v4 leaves v1-v5-v0 at cost 4.
	for _, k := range []int{2, 3, 4} {
		if rep[k] != 4 {
			t.Errorf("replacement cost avoiding %d = %v, want 4", k, rep[k])
		}
	}
	if len(rep) != 3 {
		t.Errorf("replacement map has %d entries, want 3", len(rep))
	}
}

func TestReplacementCostsMonopoly(t *testing.T) {
	// Path graph: the middle node is a monopoly.
	g := graph.NewNodeGraph(3)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.SetCosts([]float64{0, 5, 0})
	path, _ := NodePath(g, 0, 2)
	rep := ReplacementCostsNaive(g, 0, 2, path)
	if !math.IsInf(rep[1], 1) {
		t.Fatalf("monopoly replacement cost = %v, want +Inf", rep[1])
	}
}

// TestReplacementCostsAvoidingSets: banning a relay's whole set Q(v_k)
// (§III.E) prices the least cost path avoiding all of it.
func TestReplacementCostsAvoidingSets(t *testing.T) {
	// Three disjoint s-t paths with interior costs 1, 2, 3; if node 2
	// colludes with relay 1, the avoiding cost jumps to 3.
	g := graph.NewNodeGraph(5)
	g.AddEdge(0, 1)
	g.AddEdge(1, 4)
	g.AddEdge(0, 2)
	g.AddEdge(2, 4)
	g.AddEdge(0, 3)
	g.AddEdge(3, 4)
	g.SetCosts([]float64{0, 1, 2, 3, 0})
	path, cost := NodePath(g, 0, 4)
	if cost != 1 || len(path) != 3 || path[1] != 1 {
		t.Fatalf("LCP = %v cost %v, want via node 1 at cost 1", path, cost)
	}
	banned := make([]bool, g.N())
	banned[1], banned[2] = true, true
	if d := NodeDijkstra(g, 0, banned).Dist[4]; d != 3 {
		t.Fatalf("avoiding-set cost = %v, want 3", d)
	}
}

func TestLinkReplacementCostsNaive(t *testing.T) {
	g := graph.NewLinkGraph(4)
	g.AddArc(0, 1, 1)
	g.AddArc(1, 3, 1)
	g.AddArc(0, 2, 2)
	g.AddArc(2, 3, 2)
	path, cost := LinkPath(g, 0, 3)
	if cost != 2 || path[1] != 1 {
		t.Fatalf("LCP = %v cost %v", path, cost)
	}
	rep := LinkReplacementCostsNaive(g, 0, 3, path)
	if rep[1] != 4 {
		t.Fatalf("replacement avoiding 1 = %v, want 4", rep[1])
	}
}

func TestHopDistances(t *testing.T) {
	g := graph.Figure2()
	hops := HopDistances(g, 0)
	want := map[int]int{0: 0, 2: 1, 5: 1, 6: 1, 3: 2, 1: 2, 4: 3}
	for v, h := range want {
		if hops[v] != h {
			t.Errorf("hops[%d] = %d, want %d", v, hops[v], h)
		}
	}
	iso := graph.NewNodeGraph(2)
	if h := HopDistances(iso, 0); h[1] != -1 {
		t.Errorf("unreachable hop = %d, want -1", h[1])
	}
}
