package sp

import (
	"truthroute/internal/graph"
)

// ReplacementCostsNaive computes, for every interior node v_k of the
// given s-t least cost path, the cost ||P_-vk(s, t, d)|| of the least
// cost path when v_k is removed from the graph, by re-running
// Dijkstra once per interior node. This is the O(k · (n log n + m))
// baseline the paper's Algorithm 1 improves on; internal/core's fast
// implementation is property-tested against it.
//
// The result maps interior node id → replacement cost (+Inf when
// removing the node disconnects s from t, i.e. the node holds a
// monopoly — excluded by the paper's biconnectivity assumption but
// handled gracefully here).
func ReplacementCostsNaive(g *graph.NodeGraph, s, t int, path []int) map[int]float64 {
	out := make(map[int]float64, max(0, len(path)-2))
	banned := make([]bool, g.N())
	for i := 1; i+1 < len(path); i++ {
		k := path[i]
		banned[k] = true
		tree := NodeDijkstra(g, s, banned)
		out[k] = tree.Dist[t]
		banned[k] = false
	}
	return out
}

// ReplacementCostsAvoidingSets generalizes ReplacementCostsNaive to
// the collusion-resistant payment p̃ (§III.E): for each interior node
// v_k of the path it computes ||P_-Q(vk)(s, t, d)||, the least cost
// path avoiding the whole set Q(v_k) (e.g. v_k's closed
// neighbourhood). avoid(k) must return the set to remove for relay k;
// s and t are never removed even if present in the set.
func ReplacementCostsAvoidingSets(g *graph.NodeGraph, s, t int, path []int, avoid func(k int) []int) map[int]float64 {
	out := make(map[int]float64, max(0, len(path)-2))
	for i := 1; i+1 < len(path); i++ {
		k := path[i]
		banned := make([]bool, g.N())
		for _, v := range avoid(k) {
			if v != s && v != t {
				banned[v] = true
			}
		}
		tree := NodeDijkstra(g, s, banned)
		out[k] = tree.Dist[t]
	}
	return out
}

// LinkReplacementCostsNaive computes, for every interior node v_k of
// a directed s-t least cost path in a link-weighted graph, the cost
// of the least cost path when v_k's out-links are silenced (set to
// +Inf), which is how §III.F defines the v_k-avoiding path.
func LinkReplacementCostsNaive(g *graph.LinkGraph, s, t int, path []int) map[int]float64 {
	out := make(map[int]float64, max(0, len(path)-2))
	banned := make([]bool, g.N())
	for i := 1; i+1 < len(path); i++ {
		k := path[i]
		banned[k] = true
		tree := LinkDijkstra(g, s, banned)
		out[k] = tree.Dist[t]
		banned[k] = false
	}
	return out
}
