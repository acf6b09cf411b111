package graph

import "fmt"

// EdgeWeighted is an undirected graph whose *edges* carry costs —
// the Nisan–Ronen model the paper builds on (§II.D), where each edge
// is a selfish agent with a private transmission cost. It complements
// NodeGraph (§II.B, node agents) and LinkGraph (§III.F, vector-typed
// node agents).
//
// It stores each edge {u,v} as the two arcs u→v and v→u of one
// LinkGraph, always added and reweighted together, so the link
// model's adjacency code and its Dijkstra serve this model too.
type EdgeWeighted struct {
	arcs LinkGraph
}

// NewEdgeWeighted returns a graph with n isolated nodes.
func NewEdgeWeighted(n int) *EdgeWeighted {
	return &EdgeWeighted{arcs: *NewLinkGraph(n)}
}

// N reports the number of nodes.
func (g *EdgeWeighted) N() int { return g.arcs.N() }

// M reports the number of undirected edges.
//
//lint:allow testonly edge-count fixture for the graph, core and cli tests
func (g *EdgeWeighted) M() int { return g.arcs.M() / 2 }

// AddEdge inserts the undirected edge {u,v} with weight w. AddArc
// rejects a self-loop, a negative or NaN weight and a duplicate on
// the first arc, before anything is stored; the arcs come and go in
// pairs, so the second arc cannot already exist.
func (g *EdgeWeighted) AddEdge(u, v int, w float64) {
	g.arcs.AddArc(u, v, w)
	g.arcs.AddArc(v, u, w)
}

// HasEdge reports whether {u,v} is an edge.
func (g *EdgeWeighted) HasEdge(u, v int) bool { return g.arcs.HasArc(u, v) }

// Weight returns the weight of {u,v}, or +Inf when absent.
func (g *EdgeWeighted) Weight(u, v int) float64 { return g.arcs.Weight(u, v) }

// SetWeight updates an existing edge's weight (both directions) and
// reports whether the edge was present.
func (g *EdgeWeighted) SetWeight(u, v int, w float64) bool {
	if !g.arcs.SetWeight(u, v, w) {
		return false
	}
	g.arcs.SetWeight(v, u, w)
	return true
}

// Out returns u's incident edges in increasing neighbour order. The
// slice is owned by the graph and must not be modified.
func (g *EdgeWeighted) Out(u int) []Arc { return g.arcs.Out(u) }

// Arcs returns the directed view the graph is stored as: edge {u,v}
// of weight w is the arcs u→v and v→u, both of weight w. Link-model
// code such as sp.LinkDijkstra runs on it unchanged. Like Out, the
// view is owned by the graph and must not be modified.
func (g *EdgeWeighted) Arcs() *LinkGraph { return &g.arcs }

// Edges returns all undirected edges as (u, v, w) with u < v.
func (g *EdgeWeighted) Edges() []WeightedEdge {
	var out []WeightedEdge
	for u := 0; u < g.N(); u++ {
		for _, a := range g.Out(u) {
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
	return &EdgeWeighted{arcs: *g.arcs.Clone()}
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
