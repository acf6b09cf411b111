package graph

import (
	"math/rand/v2"
	"testing"
)

// csrMatches checks that the CSR view agrees with the [][]int
// adjacency node by node, in the same neighbour order.
func csrMatches(t *testing.T, g *NodeGraph) {
	t.Helper()
	c := g.CSR()
	if got, want := len(c.Offsets), g.N()+1; got != want {
		t.Fatalf("len(Offsets) = %d, want %d", got, want)
	}
	if got, want := len(c.Targets), 2*g.M(); got != want {
		t.Fatalf("len(Targets) = %d, want %d", got, want)
	}
	for v := 0; v < g.N(); v++ {
		adj := g.Neighbors(v)
		row := c.Neighbors(v)
		if len(row) != len(adj) || c.Degree(v) != len(adj) {
			t.Fatalf("node %d: CSR row %v vs adjacency %v", v, row, adj)
		}
		for i, u := range adj {
			if int(row[i]) != u {
				t.Fatalf("node %d neighbour %d: CSR %d vs adjacency %d", v, i, row[i], u)
			}
		}
	}
}

func TestCSRMatchesAdjacency(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 1))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.IntN(40)
		g := ErdosRenyi(n, 0.2, rng)
		csrMatches(t, g)
	}
	csrMatches(t, NewNodeGraph(0))
	csrMatches(t, NewNodeGraph(5)) // isolated nodes: empty rows
}

func TestCSRInvalidation(t *testing.T) {
	g := Ring(6)
	csrMatches(t, g)
	g.AddEdge(0, 3)
	csrMatches(t, g) // stale cache would miss the chord
	if !g.RemoveEdge(0, 3) {
		t.Fatal("RemoveEdge reported the chord absent")
	}
	csrMatches(t, g)
}

// TestCSRSharedWithCostViews: WithCost/WithCosts share topology, so
// they must share the cached CSR — both ways: a view must see a CSR
// built on the base graph without rebuilding, and a mutation on the
// base must invalidate the view's.
func TestCSRSharedWithCostViews(t *testing.T) {
	g := Grid(3, 3)
	base := g.CSR()
	view := g.WithCost(4, 17)
	if view.CSR() != base {
		t.Error("cost view rebuilt the CSR instead of sharing the cache")
	}
	g.AddEdge(0, 8)
	csrMatches(t, view)
	if view.CSR() == base {
		t.Error("cost view kept a stale CSR after a base mutation")
	}
	view2 := g.WithCosts(make([]float64, g.N()))
	if view2.CSR() != g.CSR() {
		t.Error("WithCosts view does not share the CSR cache")
	}
}

func TestCSRCloneIsolated(t *testing.T) {
	g := Ring(5)
	c := g.Clone()
	_ = g.CSR()
	c.AddEdge(0, 2)
	csrMatches(t, g) // clone's mutation must not disturb the original
	csrMatches(t, c)
	if g.HasEdge(0, 2) {
		t.Fatal("clone shares adjacency with the original")
	}
}

// Degree reports the number of neighbours of v.
func (c *CSR) Degree(v int) int {
	return int(c.Offsets[v+1] - c.Offsets[v])
}
