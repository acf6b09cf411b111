// Package graph provides the combinatorial substrate for the truthful
// unicast mechanism: undirected node-weighted graphs (the paper's
// §II.B model, where each wireless node charges a scalar relay cost),
// directed link-weighted graphs (the §III.F model, where each node's
// private type is the vector of its per-out-link power costs),
// generators, connectivity and biconnectivity analysis, and the
// worked-example fixtures from the paper (Figures 2 and 4).
//
// Node ids are dense integers in [0, N). By the paper's convention,
// node 0 is the access point v_0.
package graph

import (
	"fmt"
	"math"
	"sort"
)

// Inf is the cost of an absent link / unreachable destination.
var Inf = math.Inf(1)

// NodeGraph is an undirected graph whose *nodes* carry relay costs.
// The cost of a path excludes its two endpoints (the source and
// target relay nothing), matching §II.C of the paper.
type NodeGraph struct {
	cost []float64
	adj  [][]int
	// csr caches the flat CSR adjacency view (see csr.go). The box is
	// shared with cost views, which share the topology, and dropped on
	// every edge mutation.
	csr *csrBox
	// quant caches the cost vector's exactness test (see quantum.go). It
	// belongs to the cost vector, not the topology: cost views get
	// fresh boxes, and any SetCost drops it.
	quant *quantBox
}

// NewNodeGraph returns a graph with n isolated nodes of zero cost.
func NewNodeGraph(n int) *NodeGraph {
	return &NodeGraph{
		cost:  make([]float64, n),
		adj:   make([][]int, n),
		csr:   &csrBox{},
		quant: &quantBox{},
	}
}

// NewNodeGraphFromRows returns a graph of len(start)-1 nodes of zero
// cost in which node v's neighbours are nbr[start[v]:start[v+1]], so
// every row shares nbr as its backing array. Each row is capped at its
// own end: a later AddEdge, or a caller's append to a row, reallocates
// that row alone. The rows are checked in O(len(nbr)): start must run
// from 0 to len(nbr) without decreasing, and every row must be
// strictly increasing, in range, free of self-loops and symmetric. It
// panics otherwise, as AddEdge does.
func NewNodeGraphFromRows(start, nbr []int) *NodeGraph {
	n := checkRowStarts(start, len(nbr))
	g := NewNodeGraph(n)
	// seen[v] counts the entries below v in v's row that the rows of
	// those neighbours have matched. The walk visits them in increasing
	// order, so the matched entries are a prefix of v's row.
	seen := make([]int, n)
	for u := range n {
		row := nbr[start[u]:start[u+1]:start[u+1]]
		for k, v := range row {
			switch {
			case v < 0 || v >= n:
				panic(fmt.Sprintf("graph: neighbour %d of node %d out of range", v, u))
			case k > 0 && row[k-1] >= v:
				panic(fmt.Sprintf("graph: row %d is not strictly increasing at %d", u, v))
			case v == u:
				panic(fmt.Sprintf("graph: self-loop at %d", u))
			case v < u:
				if k >= seen[u] {
					panic(fmt.Sprintf("graph: edge {%d,%d} is missing from row %d", v, u, v))
				}
			default:
				vrow := nbr[start[v]:start[v+1]]
				if seen[v] >= len(vrow) || vrow[seen[v]] != u {
					panic(fmt.Sprintf("graph: edge {%d,%d} is missing from row %d", u, v, v))
				}
				seen[v]++
			}
		}
		if len(row) > 0 {
			g.adj[u] = row
		}
	}
	return g
}

// checkRowStarts checks the row offsets of a bulk-built graph against
// its entry count and returns the node count.
func checkRowStarts(start []int, m int) int {
	if len(start) == 0 || start[0] != 0 || start[len(start)-1] != m {
		panic(fmt.Sprintf("graph: row starts must run from 0 to %d", m))
	}
	for v := 1; v < len(start); v++ {
		if start[v] < start[v-1] {
			panic(fmt.Sprintf("graph: row %d starts after it ends", v-1))
		}
	}
	return len(start) - 1
}

// N reports the number of nodes.
func (g *NodeGraph) N() int { return len(g.cost) }

// M reports the number of undirected edges.
func (g *NodeGraph) M() int {
	total := 0
	for _, a := range g.adj {
		total += len(a)
	}
	return total / 2
}

// Cost returns node v's relay cost.
func (g *NodeGraph) Cost(v int) float64 { return g.cost[v] }

// SetCost sets node v's relay cost. Costs must be non-negative; the
// mechanism's individual-rationality argument requires it.
func (g *NodeGraph) SetCost(v int, c float64) {
	if c < 0 || math.IsNaN(c) {
		panic(fmt.Sprintf("graph: invalid node cost %v for node %d", c, v))
	}
	g.cost[v] = c
	g.quant.invalidate()
}

// Costs returns a copy of the full cost vector (the declared profile d).
func (g *NodeGraph) Costs() []float64 {
	out := make([]float64, len(g.cost))
	copy(out, g.cost)
	return out
}

// SetCosts replaces the whole cost vector.
func (g *NodeGraph) SetCosts(c []float64) {
	if len(c) != len(g.cost) {
		panic("graph: SetCosts length mismatch")
	}
	for v, cv := range c {
		g.SetCost(v, cv)
	}
}

// AddEdge inserts the undirected edge {u, v}. Self-loops and
// duplicate edges are rejected. Adding a vertex's edges in increasing
// neighbour order appends in O(1), with no search.
func (g *NodeGraph) AddEdge(u, v int) {
	if u == v {
		panic(fmt.Sprintf("graph: self-loop at %d", u))
	}
	if a := g.adj[u]; len(a) > 0 && a[len(a)-1] >= v && g.HasEdge(u, v) {
		panic(fmt.Sprintf("graph: duplicate edge {%d,%d}", u, v))
	}
	g.adj[u] = insertSorted(g.adj[u], v)
	g.adj[v] = insertSorted(g.adj[v], u)
	g.csr.invalidate()
}

// RemoveEdge deletes the undirected edge {u, v} if present and
// reports whether it was.
func (g *NodeGraph) RemoveEdge(u, v int) bool {
	if !g.HasEdge(u, v) {
		return false
	}
	g.adj[u] = removeSorted(g.adj[u], v)
	g.adj[v] = removeSorted(g.adj[v], u)
	g.csr.invalidate()
	return true
}

// HasEdge reports whether {u, v} is an edge.
func (g *NodeGraph) HasEdge(u, v int) bool {
	a := g.adj[u]
	i := sort.SearchInts(a, v)
	return i < len(a) && a[i] == v
}

// Neighbors returns v's adjacency list in increasing order. The
// returned slice is owned by the graph and must not be modified.
func (g *NodeGraph) Neighbors(v int) []int { return g.adj[v] }

// Clone returns a deep copy of the graph.
func (g *NodeGraph) Clone() *NodeGraph {
	c := NewNodeGraph(g.N())
	copy(c.cost, g.cost)
	for v, a := range g.adj {
		c.adj[v] = append([]int(nil), a...)
	}
	return c
}

// WithCosts returns a copy of the graph topology carrying the given
// cost vector; the receiver is unchanged. This is how the mechanism
// evaluates counterfactual profiles d|^i b without mutating shared
// state.
func (g *NodeGraph) WithCosts(c []float64) *NodeGraph {
	out := &NodeGraph{cost: make([]float64, g.N()), adj: g.adj, csr: g.csr, quant: &quantBox{}}
	copy(out.cost, c)
	return out
}

// WithCost returns a view of the graph where node v declares cost c
// and every other node keeps its current declaration (the paper's
// d|^v c notation). The adjacency structure is shared.
func (g *NodeGraph) WithCost(v int, c float64) *NodeGraph {
	out := &NodeGraph{cost: append([]float64(nil), g.cost...), adj: g.adj, csr: g.csr, quant: &quantBox{}}
	out.SetCost(v, c)
	return out
}

// Edges returns all undirected edges as ordered pairs (u < v).
func (g *NodeGraph) Edges() [][2]int {
	var es [][2]int
	for u, a := range g.adj {
		for _, v := range a {
			if u < v {
				es = append(es, [2]int{u, v})
			}
		}
	}
	return es
}

// PathCost returns the relay cost of a node path (sum of interior
// node costs, endpoints excluded), or an error if the path is not a
// walk in the graph. A path of length < 2 nodes is invalid; a direct
// edge path has relay cost 0.
func (g *NodeGraph) PathCost(path []int) (float64, error) {
	if len(path) < 2 {
		return 0, fmt.Errorf("graph: path %v too short", path)
	}
	total := 0.0
	for i := 0; i+1 < len(path); i++ {
		if !g.HasEdge(path[i], path[i+1]) {
			return 0, fmt.Errorf("graph: %d-%d is not an edge", path[i], path[i+1])
		}
		if i > 0 {
			total += g.cost[path[i]]
		}
	}
	return total, nil
}

func insertSorted(a []int, v int) []int {
	if len(a) == 0 || a[len(a)-1] < v {
		return append(a, v)
	}
	i := sort.SearchInts(a, v)
	a = append(a, 0)
	copy(a[i+1:], a[i:])
	a[i] = v
	return a
}

func removeSorted(a []int, v int) []int {
	i := sort.SearchInts(a, v)
	return append(a[:i], a[i+1:]...)
}
