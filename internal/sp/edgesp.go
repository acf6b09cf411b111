package sp

import (
	"truthroute/internal/graph"
	"truthroute/internal/pq"
)

// EdgeDijkstra computes the shortest path tree from src in an
// undirected edge-weighted graph. bannedEdge (optional) suppresses
// one undirected edge, given as its canonical (min,max) key — enough
// for the replacement-path baseline.
func EdgeDijkstra(g *graph.EdgeWeighted, src int, bannedEdge *[2]int) *Tree {
	n := g.N()
	t := &Tree{Src: src, Dist: make([]float64, n), Parent: make([]int, n)}
	for i := range t.Dist {
		t.Dist[i] = Inf
		t.Parent[i] = -1
	}
	t.Dist[src] = 0
	q := pq.NewBinary(n)
	q.Push(src, 0)
	for q.Len() > 0 {
		u, du := q.Pop()
		t.Order = append(t.Order, u)
		for _, a := range g.Out(u) {
			if bannedEdge != nil {
				k := *bannedEdge
				if (u == k[0] && a.To == k[1]) || (u == k[1] && a.To == k[0]) {
					continue
				}
			}
			nd := du + a.W
			if nd < t.Dist[a.To] {
				t.Dist[a.To] = nd
				t.Parent[a.To] = u
				if q.Contains(a.To) {
					q.DecreaseKey(a.To, nd)
				} else {
					q.Push(a.To, nd)
				}
			}
		}
	}
	return t
}

// EdgePath returns the shortest s-t path and its cost in an
// edge-weighted graph, or (nil, +Inf).
func EdgePath(g *graph.EdgeWeighted, s, t int) ([]int, float64) {
	tree := EdgeDijkstra(g, s, nil)
	if !tree.Reachable(t) {
		return nil, Inf
	}
	return tree.PathTo(t), tree.Dist[t]
}

// EdgeReplacementCostsNaive computes, for every edge e_i of the s-t
// shortest path, the cost of the shortest path avoiding e_i, by one
// Dijkstra per path edge — the baseline for the Hershberger–Suri
// fast algorithm in internal/core.
func EdgeReplacementCostsNaive(g *graph.EdgeWeighted, s, t int, path []int) map[[2]int]float64 {
	out := make(map[[2]int]float64, max(0, len(path)-1))
	for i := 0; i+1 < len(path); i++ {
		key := canonEdge(path[i], path[i+1])
		tree := EdgeDijkstra(g, s, &key)
		out[key] = tree.Dist[t]
	}
	return out
}

func canonEdge(u, v int) [2]int {
	if u < v {
		return [2]int{u, v}
	}
	return [2]int{v, u}
}
