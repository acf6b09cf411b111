package graph

// ReachableFrom returns a boolean mask of the nodes reachable from
// src in g while never entering a banned node (banned may be nil).
// src itself is reported reachable even if banned.
func (g *NodeGraph) ReachableFrom(src int, banned []bool) []bool {
	seen := make([]bool, g.N())
	seen[src] = true
	stack := []int{src}
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, v := range g.adj[u] {
			if seen[v] || (banned != nil && banned[v]) {
				continue
			}
			seen[v] = true
			stack = append(stack, v)
		}
	}
	return seen
}

// Connected reports whether the graph is connected (true for the
// empty and single-node graph).
func (g *NodeGraph) Connected() bool {
	if g.N() == 0 {
		return true
	}
	seen := g.ReachableFrom(0, nil)
	for _, s := range seen {
		if !s {
			return false
		}
	}
	return true
}

// ConnectedWithout reports whether s can still reach t when every
// node in the cut set is removed. Nodes in cut equal to s or t are
// ignored (you cannot remove the endpoints).
func (g *NodeGraph) ConnectedWithout(s, t int, cut []int) bool {
	banned := make([]bool, g.N())
	for _, v := range cut {
		if v != s && v != t {
			banned[v] = true
		}
	}
	return g.ReachableFrom(s, banned)[t]
}

// NeighborhoodConnected reports whether removing N(v_k) ∪ {v_k}
// leaves s and t connected for every candidate relay v_k. This is
// the standing assumption of the neighbour-collusion-resistant scheme
// p̃ (§III.E): "graph G \ N(v_k) is connected for any node v_k".
// Nodes equal to s or t are never removed.
//
//lint:allow testonly §III.E assumption check shared by the graph, core and mechanism tests
func (g *NodeGraph) NeighborhoodConnected(s, t int) bool {
	for k := 0; k < g.N(); k++ {
		if k == s || k == t {
			continue
		}
		cut := append([]int{k}, g.adj[k]...)
		if !g.ConnectedWithout(s, t, cut) {
			return false
		}
	}
	return true
}
