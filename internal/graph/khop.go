package graph

// KHopNeighborhood returns the closed k-hop neighbourhood of v: all
// nodes within BFS distance k of v, including v itself, in increasing
// id order. With k = 1 this is the N(v_k) of the paper's
// neighbour-collusion-resistant payment; larger k instantiates the
// generalized Q(v_k) scheme of §III.E for coalitions that span
// several hops.
//
//lint:allow testonly k-hop collusion-set fixture for the graph, core and mechanism tests
func (g *NodeGraph) KHopNeighborhood(v, k int) []int {
	if k < 0 {
		panic("graph: negative hop count")
	}
	dist := make([]int, g.N())
	for i := range dist {
		dist[i] = -1
	}
	dist[v] = 0
	queue := []int{v}
	var out []int
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		out = append(out, u)
		if dist[u] == k {
			continue
		}
		for _, w := range g.adj[u] {
			if dist[w] < 0 {
				dist[w] = dist[u] + 1
				queue = append(queue, w)
			}
		}
	}
	// BFS order is by distance; the caller wants id order.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}
