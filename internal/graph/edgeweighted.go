package graph

import (
	"fmt"
	"math"
	"sort"
)

// EdgeWeighted is an undirected graph whose *edges* carry costs —
// the Nisan–Ronen model the paper builds on (§II.D), where each edge
// is a selfish agent with a private transmission cost. It complements
// NodeGraph (§II.B, node agents) and LinkGraph (§III.F, vector-typed
// node agents).
type EdgeWeighted struct {
	adj [][]Arc // Arc.W is the undirected edge weight, mirrored
}

// NewEdgeWeighted returns a graph with n isolated nodes.
func NewEdgeWeighted(n int) *EdgeWeighted {
	return &EdgeWeighted{adj: make([][]Arc, n)}
}

// N reports the number of nodes.
func (g *EdgeWeighted) N() int { return len(g.adj) }

// M reports the number of undirected edges.
//
//lint:allow testonly edge-count fixture for the graph, core and cli tests
func (g *EdgeWeighted) M() int {
	total := 0
	for _, a := range g.adj {
		total += len(a)
	}
	return total / 2
}

// AddEdge inserts the undirected edge {u,v} with weight w.
func (g *EdgeWeighted) AddEdge(u, v int, w float64) {
	if u == v {
		panic(fmt.Sprintf("graph: self-loop at %d", u))
	}
	if w < 0 || math.IsNaN(w) {
		panic(fmt.Sprintf("graph: invalid edge weight %v on {%d,%d}", w, u, v))
	}
	if g.HasEdge(u, v) {
		panic(fmt.Sprintf("graph: duplicate edge {%d,%d}", u, v))
	}
	g.insert(u, v, w)
	g.insert(v, u, w)
}

func (g *EdgeWeighted) insert(u, v int, w float64) {
	a := g.adj[u]
	i := sort.Search(len(a), func(i int) bool { return a[i].To >= v })
	a = append(a, Arc{})
	copy(a[i+1:], a[i:])
	a[i] = Arc{To: v, W: w}
	g.adj[u] = a
}

// HasEdge reports whether {u,v} is an edge.
func (g *EdgeWeighted) HasEdge(u, v int) bool {
	a := g.adj[u]
	i := sort.Search(len(a), func(i int) bool { return a[i].To >= v })
	return i < len(a) && a[i].To == v
}

// Weight returns the weight of {u,v}, or +Inf when absent.
func (g *EdgeWeighted) Weight(u, v int) float64 {
	a := g.adj[u]
	i := sort.Search(len(a), func(i int) bool { return a[i].To >= v })
	if i < len(a) && a[i].To == v {
		return a[i].W
	}
	return Inf
}

// SetWeight updates an existing edge's weight (both directions) and
// reports whether the edge was present.
func (g *EdgeWeighted) SetWeight(u, v int, w float64) bool {
	if w < 0 || math.IsNaN(w) {
		panic(fmt.Sprintf("graph: invalid edge weight %v on {%d,%d}", w, u, v))
	}
	if !g.HasEdge(u, v) {
		return false
	}
	g.set(u, v, w)
	g.set(v, u, w)
	return true
}

func (g *EdgeWeighted) set(u, v int, w float64) {
	a := g.adj[u]
	i := sort.Search(len(a), func(i int) bool { return a[i].To >= v })
	a[i].W = w
}

// Out returns u's incident edges in increasing neighbour order. The
// slice is owned by the graph and must not be modified.
func (g *EdgeWeighted) Out(u int) []Arc { return g.adj[u] }

// Edges returns all undirected edges as (u, v, w) with u < v.
func (g *EdgeWeighted) Edges() []WeightedEdge {
	var out []WeightedEdge
	for u, arcs := range g.adj {
		for _, a := range arcs {
			if u < a.To {
				out = append(out, WeightedEdge{U: u, V: a.To, W: a.W})
			}
		}
	}
	return out
}

// WeightedEdge is one undirected weighted edge, U < V.
type WeightedEdge struct {
	U, V int
	W    float64
}

// Clone returns a deep copy.
func (g *EdgeWeighted) Clone() *EdgeWeighted {
	c := NewEdgeWeighted(g.N())
	for u, a := range g.adj {
		c.adj[u] = append([]Arc(nil), a...)
	}
	return c
}

// WithWeight returns a copy in which {u,v} has weight w — how the
// edge-agent mechanism evaluates counterfactual declarations.
//
//lint:allow testonly counterfactual fixture for core's edge-agent strategyproofness test; a method cannot move there
func (g *EdgeWeighted) WithWeight(u, v int, w float64) *EdgeWeighted {
	c := g.Clone()
	if !c.SetWeight(u, v, w) {
		panic(fmt.Sprintf("graph: WithWeight on absent edge {%d,%d}", u, v))
	}
	return c
}
