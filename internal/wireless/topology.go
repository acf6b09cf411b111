package wireless

import (
	"fmt"
	"sort"

	"truthroute/internal/graph"
)

// This file provides the classic proximity-graph topologies used by
// the topology-control literature the paper sits in (Li et al.'s
// localized structures): the Gabriel graph, the relative
// neighbourhood graph (RNG), and the symmetric k-nearest-neighbour
// graph. All are sub-structures of the unit disk graph, so they model
// networks that prune redundant links to save energy — at the price
// of fewer detours, which raises VCG overpayment (measured by the
// "topo" experiment).

// Gabriel returns the Gabriel graph intersected with the common-range
// UDG: {u,v} is kept iff no witness w lies strictly inside the circle
// with diameter uv. RNG ⊆ Gabriel ⊆ Delaunay, and Gabriel graphs
// remain connected whenever the UDG is.
//
// Witnesses are drawn from the grid block around u (grid.go): a
// witness lies within |uv| ≤ range of u up to rounding the cell slack
// covers (DESIGN.md §16).
func (d *Deployment) Gabriel() *graph.NodeGraph {
	g, cells := d.udg()
	out := graph.NewNodeGraph(d.N())
	for _, e := range g.Edges() {
		u, v := e[0], e[1]
		mid := Point{X: (d.Pos[u].X + d.Pos[v].X) / 2, Y: (d.Pos[u].Y + d.Pos[v].Y) / 2}
		r := d.Pos[u].Dist(d.Pos[v]) / 2
		blocked := false
		for _, w := range cells.block(u) {
			if int(w) == u || int(w) == v {
				continue
			}
			if mid.Dist(d.Pos[w]) < r-1e-12 {
				blocked = true
				break
			}
		}
		if !blocked {
			out.AddEdge(u, v)
		}
	}
	return out
}

// RNG returns the relative neighbourhood graph intersected with the
// UDG: {u,v} is kept iff no witness w is strictly closer to both
// endpoints than they are to each other (the "lune" is empty).
//
// Witnesses are drawn from the grid block around u (grid.go): the
// lune test itself requires Dist(u,w) < Dist(u,v) ≤ range.
func (d *Deployment) RNG() *graph.NodeGraph {
	g, cells := d.udg()
	out := graph.NewNodeGraph(d.N())
	for _, e := range g.Edges() {
		u, v := e[0], e[1]
		duv := d.Pos[u].Dist(d.Pos[v])
		blocked := false
		for _, w := range cells.block(u) {
			if int(w) == u || int(w) == v {
				continue
			}
			if d.Pos[u].Dist(d.Pos[w]) < duv-1e-12 && d.Pos[v].Dist(d.Pos[w]) < duv-1e-12 {
				blocked = true
				break
			}
		}
		if !blocked {
			out.AddEdge(u, v)
		}
	}
	return out
}

// KNN returns the symmetric k-nearest-neighbour graph intersected
// with the UDG: {u,v} is an edge iff v is among u's k nearest
// in-range neighbours *or* u among v's (the standard symmetrization
// that keeps the structure connected at moderate k).
func (d *Deployment) KNN(k int) *graph.NodeGraph {
	if k < 1 {
		panic(fmt.Sprintf("wireless: KNN needs k >= 1, got %d", k))
	}
	g := d.UDG()
	out := graph.NewNodeGraph(d.N())
	for u := 0; u < d.N(); u++ {
		nbrs := append([]int(nil), g.Neighbors(u)...)
		sort.Slice(nbrs, func(a, b int) bool {
			da := d.Pos[u].Dist(d.Pos[nbrs[a]])
			db := d.Pos[u].Dist(d.Pos[nbrs[b]])
			//lint:allow floatcmp exact tie-break keeps the comparator a transitive total order; an epsilon here would not
			if da != db {
				return da < db
			}
			return nbrs[a] < nbrs[b]
		})
		if len(nbrs) > k {
			nbrs = nbrs[:k]
		}
		for _, v := range nbrs {
			if !out.HasEdge(u, v) {
				out.AddEdge(u, v)
			}
		}
	}
	return out
}

// LinkSubgraph restricts the deployment's directed link graph to the
// arcs whose endpoints are adjacent in the given undirected topology,
// keeping the cost model's weights. This is how a pruned proximity
// structure is priced under the §III.F model.
func (d *Deployment) LinkSubgraph(topo *graph.NodeGraph, m CostModel) *graph.LinkGraph {
	lg := graph.NewLinkGraph(d.N())
	for u := 0; u < d.N(); u++ {
		for _, v := range topo.Neighbors(u) {
			if l := d.Pos[u].Dist(d.Pos[v]); u != v && l <= d.Range[u] {
				lg.AddArc(u, v, m.LinkCost(u, l))
			}
		}
	}
	return lg
}
