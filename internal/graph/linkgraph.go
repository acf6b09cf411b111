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

// NewLinkGraphFromRows returns a directed graph of len(start)-1 nodes
// in which node u's out-arcs are arcs[start[u]:start[u+1]], so every
// row shares arcs as its backing array. Each row is capped at its own
// end: a later AddArc, or a caller's append to a row, reallocates that
// row alone. The rows are checked in O(len(arcs)): start must run from
// 0 to len(arcs) without decreasing, and every row must have strictly
// increasing heads in range, no self-arc and no weight that is
// negative or NaN. It panics otherwise, as AddArc does.
func NewLinkGraphFromRows(start []int, arcs []Arc) *LinkGraph {
	n := checkRowStarts(start, len(arcs))
	g := NewLinkGraph(n)
	for u := range n {
		row := arcs[start[u]:start[u+1]:start[u+1]]
		for k, a := range row {
			switch {
			case a.To < 0 || a.To >= n:
				panic(fmt.Sprintf("graph: arc %d->%d out of range", u, a.To))
			case k > 0 && row[k-1].To >= a.To:
				panic(fmt.Sprintf("graph: row %d is not strictly increasing at %d", u, a.To))
			case a.To == u:
				panic(fmt.Sprintf("graph: self-arc at %d", u))
			case a.W < 0 || math.IsNaN(a.W):
				panic(fmt.Sprintf("graph: invalid arc weight %v on %d->%d", a.W, u, a.To))
			}
		}
		if len(row) > 0 {
			g.out[u] = row
		}
	}
	return g
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

// Clone returns a deep copy.
func (g *LinkGraph) Clone() *LinkGraph {
	c := NewLinkGraph(g.N())
	for u, a := range g.out {
		c.out[u] = append([]Arc(nil), a...)
	}
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
