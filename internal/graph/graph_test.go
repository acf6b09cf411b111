package graph

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func TestNodeGraphBasics(t *testing.T) {
	g := NewNodeGraph(4)
	if g.N() != 4 || g.M() != 0 {
		t.Fatalf("N=%d M=%d, want 4 0", g.N(), g.M())
	}
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(3, 1)
	if g.M() != 3 {
		t.Fatalf("M = %d, want 3", g.M())
	}
	if !g.HasEdge(1, 0) || !g.HasEdge(0, 1) {
		t.Error("edge {0,1} missing in one direction")
	}
	if g.HasEdge(0, 2) {
		t.Error("phantom edge {0,2}")
	}
	want := []int{0, 2, 3}
	got := g.Neighbors(1)
	if len(got) != len(want) {
		t.Fatalf("Neighbors(1) = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Neighbors(1) = %v, want %v (sorted)", got, want)
		}
	}
	if g.Degree(1) != 3 || g.Degree(0) != 1 {
		t.Errorf("degrees wrong: deg(1)=%d deg(0)=%d", g.Degree(1), g.Degree(0))
	}
}

func TestNodeGraphRemoveEdge(t *testing.T) {
	g := NewNodeGraph(3)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	if !g.RemoveEdge(0, 1) {
		t.Fatal("RemoveEdge(0,1) = false")
	}
	if g.HasEdge(0, 1) || g.HasEdge(1, 0) {
		t.Fatal("edge {0,1} survived removal")
	}
	if g.RemoveEdge(0, 1) {
		t.Fatal("second RemoveEdge(0,1) = true")
	}
	if g.M() != 1 {
		t.Fatalf("M = %d, want 1", g.M())
	}
}

// TestAddOrderIndependent: edges and arcs added in increasing order
// (the O(1) append path) and in a shuffled order (the sorted insert)
// give identical, sorted rows.
func TestAddOrderIndependent(t *testing.T) {
	rng := rand.New(rand.NewPCG(8, 8))
	var es [][2]int
	for u := 0; u < 40; u++ {
		for v := u + 1; v < 40; v++ {
			if rng.IntN(4) == 0 {
				es = append(es, [2]int{u, v})
			}
		}
	}
	inOrder, shuffled := NewNodeGraph(40), NewNodeGraph(40)
	lIn, lShuf := NewLinkGraph(40), NewLinkGraph(40)
	for _, e := range es {
		inOrder.AddEdge(e[0], e[1])
		lIn.AddArc(e[0], e[1], float64(e[1]))
	}
	rng.Shuffle(len(es), func(i, j int) { es[i], es[j] = es[j], es[i] })
	for _, e := range es {
		shuffled.AddEdge(e[1], e[0])
		lShuf.AddArc(e[0], e[1], float64(e[1]))
	}
	for v := 0; v < 40; v++ {
		a, b := inOrder.Neighbors(v), shuffled.Neighbors(v)
		if len(a) != len(b) {
			t.Fatalf("node %d: %v vs %v", v, a, b)
		}
		for k := range a {
			if a[k] != b[k] || (k > 0 && a[k] <= a[k-1]) {
				t.Fatalf("node %d: %v vs %v", v, a, b)
			}
		}
		x, y := lIn.Out(v), lShuf.Out(v)
		if len(x) != len(y) {
			t.Fatalf("arcs of %d: %v vs %v", v, x, y)
		}
		for k := range x {
			if x[k] != y[k] || (k > 0 && x[k].To <= x[k-1].To) {
				t.Fatalf("arcs of %d: %v vs %v", v, x, y)
			}
		}
	}
}

func TestNodeGraphPanics(t *testing.T) {
	mustPanic := func(desc string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", desc)
			}
		}()
		f()
	}
	g := NewNodeGraph(3)
	g.AddEdge(0, 1)
	mustPanic("self loop", func() { g.AddEdge(2, 2) })
	mustPanic("duplicate edge", func() { g.AddEdge(1, 0) })
	mustPanic("duplicate edge on the append path", func() { g.AddEdge(0, 1) })
	mustPanic("negative cost", func() { g.SetCost(0, -1) })
	mustPanic("NaN cost", func() { g.SetCost(0, math.NaN()) })
	mustPanic("SetCosts length", func() { g.SetCosts([]float64{1}) })
}

func TestWithCostDoesNotMutate(t *testing.T) {
	g := NewNodeGraph(3)
	g.SetCosts([]float64{1, 2, 3})
	h := g.WithCost(1, 99)
	if g.Cost(1) != 2 {
		t.Fatalf("original mutated: Cost(1) = %v", g.Cost(1))
	}
	if h.Cost(1) != 99 || h.Cost(0) != 1 || h.Cost(2) != 3 {
		t.Fatalf("view costs = %v, want [1 99 3]", h.Costs())
	}
}

func TestPathCost(t *testing.T) {
	g := NewNodeGraph(4)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(2, 3)
	g.SetCosts([]float64{10, 1, 2, 10})
	c, err := g.PathCost([]int{0, 1, 2, 3})
	if err != nil || c != 3 {
		t.Fatalf("PathCost = %v, %v; want 3, nil", c, err)
	}
	// Endpoints excluded: the direct edge path has zero relay cost.
	c, err = g.PathCost([]int{0, 1})
	if err != nil || c != 0 {
		t.Fatalf("PathCost(direct) = %v, %v; want 0, nil", c, err)
	}
	if _, err = g.PathCost([]int{0, 2}); err == nil {
		t.Error("PathCost accepted a non-edge hop")
	}
	if _, err = g.PathCost([]int{0}); err == nil {
		t.Error("PathCost accepted a one-node path")
	}
}

func TestConnectivity(t *testing.T) {
	g := NewNodeGraph(5)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	if g.Connected() {
		t.Error("disconnected graph reported connected")
	}
	g.AddEdge(2, 3)
	g.AddEdge(3, 4)
	if !g.Connected() {
		t.Error("path graph reported disconnected")
	}
	if g.ConnectedWithout(0, 4, []int{2}) {
		t.Error("removing the middle of a path should disconnect the ends")
	}
	g.AddEdge(0, 4)
	if !g.ConnectedWithout(0, 4, []int{2}) {
		t.Error("cycle should survive one removal")
	}
	// Endpoints in the cut set are ignored.
	if !g.ConnectedWithout(0, 4, []int{0, 4}) {
		t.Error("cut containing endpoints must not remove them")
	}
}

func TestArticulationPoints(t *testing.T) {
	// Path 0-1-2-3: internal nodes are articulation points.
	g := NewNodeGraph(4)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(2, 3)
	got := g.ArticulationPoints()
	want := []int{1, 2}
	if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("ArticulationPoints = %v, want %v", got, want)
	}
	if g.IsBiconnected() {
		t.Error("path graph reported biconnected")
	}
	// Ring: biconnected, no articulation points.
	r := Ring(6)
	if pts := r.ArticulationPoints(); len(pts) != 0 {
		t.Errorf("ring has articulation points %v", pts)
	}
	if !r.IsBiconnected() {
		t.Error("ring reported not biconnected")
	}
	// Two triangles sharing node 2 ("bowtie"): node 2 is the cut.
	b := NewNodeGraph(5)
	for _, e := range [][2]int{{0, 1}, {1, 2}, {2, 0}, {2, 3}, {3, 4}, {4, 2}} {
		b.AddEdge(e[0], e[1])
	}
	if pts := b.ArticulationPoints(); len(pts) != 1 || pts[0] != 2 {
		t.Errorf("bowtie articulation points = %v, want [2]", pts)
	}
	// Root-child case: star graph center.
	s := NewNodeGraph(4)
	s.AddEdge(0, 1)
	s.AddEdge(0, 2)
	s.AddEdge(0, 3)
	if pts := s.ArticulationPoints(); len(pts) != 1 || pts[0] != 0 {
		t.Errorf("star articulation points = %v, want [0]", pts)
	}
}

// TestQuickArticulationMatchesBruteForce cross-checks Tarjan against
// the definition: v is an articulation point iff removing it
// increases the number of connected components among the rest.
func TestQuickArticulationMatchesBruteForce(t *testing.T) {
	brute := func(g *NodeGraph) map[int]bool {
		out := make(map[int]bool)
		n := g.N()
		components := func(banned []bool) int {
			seen := make([]bool, n)
			comps := 0
			for s := 0; s < n; s++ {
				if seen[s] || (banned != nil && banned[s]) {
					continue
				}
				comps++
				reach := g.ReachableFrom(s, banned)
				for v, r := range reach {
					if r {
						seen[v] = true
					}
				}
			}
			return comps
		}
		base := components(nil)
		for v := 0; v < n; v++ {
			banned := make([]bool, n)
			banned[v] = true
			// v is an articulation point iff removing it strictly
			// increases the component count among the other nodes.
			if components(banned) > base {
				out[v] = true
			}
		}
		return out
	}
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 1))
		n := 3 + rng.IntN(12)
		g := ErdosRenyi(n, 0.25, rng)
		want := brute(g)
		got := make(map[int]bool)
		for _, v := range g.ArticulationPoints() {
			got[v] = true
		}
		if len(got) != len(want) {
			t.Logf("seed %d: got %v want %v", seed, got, want)
			return false
		}
		for v := range want {
			if !got[v] {
				t.Logf("seed %d: missing %d", seed, v)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestGenerators(t *testing.T) {
	if got := Complete(5).M(); got != 10 {
		t.Errorf("K5 has %d edges, want 10", got)
	}
	if got := Grid(3, 4).M(); got != 17 {
		t.Errorf("3x4 grid has %d edges, want 17", got)
	}
	if !Grid(3, 4).IsBiconnected() {
		t.Error("grid not biconnected")
	}
	rng := rand.New(rand.NewPCG(7, 0))
	for trial := 0; trial < 20; trial++ {
		g := RandomBiconnected(3+rng.IntN(30), 0.1, rng)
		if !g.IsBiconnected() {
			t.Fatalf("RandomBiconnected produced a non-biconnected graph (trial %d)", trial)
		}
	}
	g := ErdosRenyi(50, 0.2, rng)
	g.RandomizeCosts(2, 9, rng)
	for v := 0; v < g.N(); v++ {
		if c := g.Cost(v); c < 2 || c >= 9 {
			t.Fatalf("cost %v outside [2,9)", c)
		}
	}
	for trial := 0; trial < 10; trial++ {
		n := 20 + rng.IntN(400)
		sp := RandomSparse(n, 4, rng)
		if !sp.IsBiconnected() {
			t.Fatalf("RandomSparse produced a non-biconnected graph (trial %d)", trial)
		}
		// Density: the ring contributes n edges, the chord loop at
		// most n more; duplicates only subtract.
		if m := sp.M(); m < n || m > 2*n {
			t.Fatalf("RandomSparse(%d, 4) has %d edges, want within [n, 2n]", n, m)
		}
	}
}

func TestRandomSparsePanicsOnLowDegree(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("RandomSparse(10, 1.5) did not panic")
		}
	}()
	RandomSparse(10, 1.5, rand.New(rand.NewPCG(1, 1)))
}

func TestRingPanicsOnSmallN(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Ring(2) did not panic")
		}
	}()
	Ring(2)
}

func TestNeighborhoodConnected(t *testing.T) {
	// A 3x3 grid: removing the closed neighbourhood of the center
	// disconnects the corners, so the p̃ assumption fails...
	g := Grid(3, 3)
	if g.NeighborhoodConnected(0, 8) {
		t.Error("3x3 grid should fail the N(v_k) connectivity assumption")
	}
	// ...while a complete graph satisfies it: the s-t edge itself
	// survives any neighbourhood removal (endpoints are never cut).
	if !Complete(5).NeighborhoodConnected(0, 4) {
		t.Error("K5 should satisfy the N(v_k) assumption via the direct edge")
	}
	// Two long disjoint paths plus a third: removing any interior
	// node's closed neighbourhood leaves another full path intact.
	h := NewNodeGraph(11)
	// paths 0-1-2-3-10, 0-4-5-6-10, 0-7-8-9-10
	for _, e := range [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 10}, {0, 4}, {4, 5}, {5, 6}, {6, 10}, {0, 7}, {7, 8}, {8, 9}, {9, 10}} {
		h.AddEdge(e[0], e[1])
	}
	if !h.NeighborhoodConnected(0, 10) {
		t.Error("three disjoint paths should satisfy the N(v_k) assumption")
	}
}
