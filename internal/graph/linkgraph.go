package graph

import (
	"fmt"
	"math"
	"sort"
)

// Arc is a directed, weighted link. In the §III.F model the weight is
// the *tail* node's declared power cost to reach the head, so the
// tail node is the agent that owns (and may lie about) the weight.
type Arc struct {
	To int
	W  float64
}

// LinkGraph is a directed graph with per-arc weights. It models the
// paper's link-cost network (§III.F): node v_i's private type is the
// vector (c_{i,0}, ..., c_{i,n-1}) of its out-link costs.
type LinkGraph struct {
	out [][]Arc
}

// NewLinkGraph returns a directed graph with n isolated nodes.
func NewLinkGraph(n int) *LinkGraph {
	return &LinkGraph{out: make([][]Arc, n)}
}

// N reports the number of nodes.
func (g *LinkGraph) N() int { return len(g.out) }

// M reports the number of arcs.
func (g *LinkGraph) M() int {
	total := 0
	for _, a := range g.out {
		total += len(a)
	}
	return total
}

// AddArc inserts the directed arc u→v with weight w. Duplicate arcs
// and self-loops are rejected; weights must be non-negative (they are
// power costs) but may be +Inf to mean "out of range". Adding a node's
// arcs in increasing head order appends in O(1), with no search.
func (g *LinkGraph) AddArc(u, v int, w float64) {
	if u == v {
		panic(fmt.Sprintf("graph: self-arc at %d", u))
	}
	if w < 0 || math.IsNaN(w) {
		panic(fmt.Sprintf("graph: invalid arc weight %v on %d->%d", w, u, v))
	}
	a := g.out[u]
	if len(a) == 0 || a[len(a)-1].To < v {
		g.out[u] = append(a, Arc{To: v, W: w})
		return
	}
	i := sort.Search(len(a), func(i int) bool { return a[i].To >= v })
	if i < len(a) && a[i].To == v {
		panic(fmt.Sprintf("graph: duplicate arc %d->%d", u, v))
	}
	a = append(a, Arc{})
	copy(a[i+1:], a[i:])
	a[i] = Arc{To: v, W: w}
	g.out[u] = a
}

// SetWeight updates the weight of an existing arc u→v and reports
// whether the arc was present.
func (g *LinkGraph) SetWeight(u, v int, w float64) bool {
	if w < 0 || math.IsNaN(w) {
		panic(fmt.Sprintf("graph: invalid arc weight %v on %d->%d", w, u, v))
	}
	a := g.out[u]
	i := sort.Search(len(a), func(i int) bool { return a[i].To >= v })
	if i < len(a) && a[i].To == v {
		a[i].W = w
		return true
	}
	return false
}

// Weight returns the weight of arc u→v, or +Inf if absent.
func (g *LinkGraph) Weight(u, v int) float64 {
	a := g.out[u]
	i := sort.Search(len(a), func(i int) bool { return a[i].To >= v })
	if i < len(a) && a[i].To == v {
		return a[i].W
	}
	return Inf
}

// HasArc reports whether u→v is an arc.
func (g *LinkGraph) HasArc(u, v int) bool {
	a := g.out[u]
	i := sort.Search(len(a), func(i int) bool { return a[i].To >= v })
	return i < len(a) && a[i].To == v
}

// Out returns u's out-arcs in increasing head order. The returned
// slice is owned by the graph and must not be modified.
func (g *LinkGraph) Out(u int) []Arc { return g.out[u] }

// OutWeights returns a copy of u's declared out-cost vector as a map
// from head to weight; this is the agent's declared type d_u.
func (g *LinkGraph) OutWeights(u int) map[int]float64 {
	m := make(map[int]float64, len(g.out[u]))
	for _, a := range g.out[u] {
		m[a.To] = a.W
	}
	return m
}

// Clone returns a deep copy.
func (g *LinkGraph) Clone() *LinkGraph {
	c := NewLinkGraph(g.N())
	for u, a := range g.out {
		c.out[u] = append([]Arc(nil), a...)
	}
	return c
}

// WithNodeSilenced returns a copy of the graph in which node v's
// *out*-arcs all have weight +Inf. This is how §III.F computes the
// v-avoiding least cost path: "to calculate the least cost
// v_k-avoiding-path, we set d_{k,j} = ∞ for each node v_j". Arcs
// *into* v keep their weights but lead nowhere useful, which is
// equivalent to removing the node for s→t paths that would have to
// leave v again.
func (g *LinkGraph) WithNodeSilenced(v int) *LinkGraph {
	c := &LinkGraph{out: make([][]Arc, g.N())}
	copy(c.out, g.out)
	silenced := append([]Arc(nil), g.out[v]...)
	for i := range silenced {
		silenced[i].W = Inf
	}
	c.out[v] = silenced
	return c
}

// PathCost returns the total arc weight of a directed node path, or
// an error if some hop is not an arc.
func (g *LinkGraph) PathCost(path []int) (float64, error) {
	if len(path) < 2 {
		return 0, fmt.Errorf("graph: path %v too short", path)
	}
	total := 0.0
	for i := 0; i+1 < len(path); i++ {
		w := g.Weight(path[i], path[i+1])
		if math.IsInf(w, 1) {
			return 0, fmt.Errorf("graph: %d->%d is not an arc", path[i], path[i+1])
		}
		total += w
	}
	return total, nil
}
