// Package sp implements the shortest-path machinery the pricing
// mechanism is built on: Dijkstra over node-weighted undirected
// graphs (the paper's §II.B cost model, where a path's cost is the
// sum of its *interior* node costs), Dijkstra over directed
// link-weighted graphs (the §III.F power-cost model), shortest path
// trees, and naive replacement-path computation (the baseline that
// the fast Algorithm 1 in internal/core is verified against).
//
// Cost convention: for node-weighted graphs, Dist(src, v) is the sum
// of relay costs strictly between src and v — both endpoints are
// excluded, matching ||P(v_i, v_j, d)|| in the paper. Two adjacent
// nodes are therefore at distance 0.
package sp

import (
	"math"

	"truthroute/internal/graph"
)

// Inf marks unreachable nodes.
var Inf = math.Inf(1)

// Tree is a shortest path tree rooted at Src. Parent[Src] = -1 and
// Parent[v] = -1 also for unreachable v (Dist[v] = +Inf).
type Tree struct {
	Src    int
	Dist   []float64
	Parent []int
	// Order lists reachable nodes in the order Dijkstra settled
	// them (non-decreasing distance), starting with Src.
	Order []int
}

// PathTo reconstructs the tree path from the root to v (inclusive of
// both endpoints). It returns nil when v is unreachable.
func (t *Tree) PathTo(v int) []int {
	return t.PathInto(v, nil)
}

// PathInto reconstructs the tree path from the root to v (inclusive of
// both endpoints) into buf, growing it only when too small, and
// returns the filled slice. It returns nil when v is unreachable. The
// path is measured with one parent walk and written root-first with a
// second, so there is no append-growing and no reversal pass: a
// caller that recycles buf reconstructs paths with zero allocations.
func (t *Tree) PathInto(v int, buf []int) []int {
	buf = t.sized(v, buf)
	for u, i := v, len(buf)-1; i >= 0; u, i = t.Parent[u], i-1 {
		buf[i] = u
	}
	return buf
}

// RootPathInto is PathInto written the other way round: v first, the
// root last. In a tree rooted at a target t that is v's chain of next
// hops toward t, the least cost path every node-model engine routes
// along when costs are exact (see core.Solver.QuoteIntoToward).
func (t *Tree) RootPathInto(v int, buf []int) []int {
	buf = t.sized(v, buf)
	for u, i := v, 0; i < len(buf); u, i = t.Parent[u], i+1 {
		buf[i] = u
	}
	return buf
}

// sized returns buf resized to the node count of the tree path between
// the root and v, or nil when v is unreachable.
func (t *Tree) sized(v int, buf []int) []int {
	if v != t.Src && (v < 0 || t.Parent[v] < 0) {
		return nil
	}
	depth := 1
	for u := v; u != t.Src; depth++ {
		u = t.Parent[u]
		if u < 0 { // not rooted at Src (corrupt or foreign tree)
			return nil
		}
	}
	if cap(buf) < depth {
		return make([]int, depth)
	}
	return buf[:depth]
}

// Reachable reports whether v is reachable from the root.
func (t *Tree) Reachable(v int) bool { return !math.IsInf(t.Dist[v], 1) }

// NodeDijkstra computes the shortest path tree from src in a
// node-weighted graph, where a path's cost is the sum of the costs of
// its interior nodes. banned (optional, may be nil) marks nodes that
// must not appear on any path; a banned src still produces a tree
// (the source never pays itself and is never "removed" in the
// replacement-path computations).
func NodeDijkstra(g *graph.NodeGraph, src int, banned []bool) *Tree {
	// One implementation serves both APIs: the allocating entry point
	// runs a throwaway workspace and lets the tree escape with it.
	return NewWorkspace(g.N()).NodeDijkstra(g, src, banned)
}

// LinkDijkstra computes the shortest path tree from src in a
// directed link-weighted graph (arc weights sum along the path;
// weights of +Inf are treated as absent arcs). banned nodes are never
// entered.
func LinkDijkstra(g *graph.LinkGraph, src int, banned []bool) *Tree {
	return NewWorkspace(g.N()).LinkDijkstra(g, src, banned)
}

// NodePath returns the least cost path from s to t (inclusive) and
// its interior cost, or (nil, +Inf) when t is unreachable.
func NodePath(g *graph.NodeGraph, s, t int) ([]int, float64) {
	tree := NodeDijkstra(g, s, nil)
	if !tree.Reachable(t) {
		return nil, Inf
	}
	return tree.PathTo(t), tree.Dist[t]
}

// LinkPath returns the least cost directed path from s to t and its
// total arc weight, or (nil, +Inf) when t is unreachable.
func LinkPath(g *graph.LinkGraph, s, t int) ([]int, float64) {
	tree := LinkDijkstra(g, s, nil)
	if !tree.Reachable(t) {
		return nil, Inf
	}
	return tree.PathTo(t), tree.Dist[t]
}

// HopDistances returns the unweighted BFS hop count from src to
// every node (-1 when unreachable); Figure 3(d) buckets nodes by this
// quantity.
func HopDistances(g *graph.NodeGraph, src int) []int {
	n := g.N()
	hops := make([]int, n)
	for i := range hops {
		hops[i] = -1
	}
	hops[src] = 0
	queue := []int{src}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range g.Neighbors(u) {
			if hops[v] < 0 {
				hops[v] = hops[u] + 1
				queue = append(queue, v)
			}
		}
	}
	return hops
}
