package graph

// VertexConnectivity returns the maximum number of internally
// vertex-disjoint s-t paths — by Menger's theorem, the size of the
// minimum vertex cut separating s from t (or len when s and t are
// adjacent, where no interior cut exists; adjacency adds one
// unbounded "path").
//
// This is the quantity behind the paper's §III.E assumptions: plain
// VCG needs connectivity ≥ 2 (biconnectivity — no relay monopoly),
// the neighbourhood scheme p̃ needs G∖N(v_k) connected, and in
// general a Q-set scheme tolerating collusion sets of size q needs
// connectivity > q. Computed with unit-capacity max-flow on the
// standard node-split digraph (Even's reduction): O(κ·(n+m)).
func (g *NodeGraph) VertexConnectivity(s, t int) int {
	if s == t {
		panic("graph: VertexConnectivity of a node with itself")
	}
	n := g.N()
	// Node splitting: in(v) = 2v, out(v) = 2v+1. The arc in(v)→out(v)
	// has capacity 1 for interior nodes and effectively ∞ for s and
	// t (they are never cut). Each undirected edge {u,v} becomes
	// out(u)→in(v) and out(v)→in(u), capacity 1 each — residuals are
	// handled by the flow map below.
	in := func(v int) int { return 2 * v }
	out := func(v int) int { return 2*v + 1 }
	type arc struct{ from, to int }
	cap := map[arc]int{}
	adj := make([][]int, 2*n)
	addArc := func(a, b, c int) {
		key := arc{a, b}
		if _, ok := cap[key]; !ok {
			adj[a] = append(adj[a], b)
			adj[b] = append(adj[b], a) // residual direction
		}
		cap[key] += c
	}
	const inf = 1 << 30
	for v := 0; v < n; v++ {
		c := 1
		if v == s || v == t {
			c = inf
		}
		addArc(in(v), out(v), c)
	}
	direct := 0
	for u := 0; u < n; u++ {
		for _, v := range g.Neighbors(u) {
			if u == s && v == t || u == t && v == s {
				// The direct edge cannot be separated by any vertex
				// cut; count it separately and exclude it from the
				// flow network (it would otherwise carry unbounded
				// flow).
				if u < v {
					direct = 1
				}
				continue
			}
			addArc(out(u), in(v), 1)
		}
	}
	// Edmonds–Karp: BFS augmenting paths of unit flow.
	src, dst := out(s), in(t)
	flow := 0
	for {
		parent := make([]int, 2*n)
		for i := range parent {
			parent[i] = -1
		}
		parent[src] = src
		queue := []int{src}
		for len(queue) > 0 && parent[dst] < 0 {
			u := queue[0]
			queue = queue[1:]
			for _, v := range adj[u] {
				if parent[v] >= 0 || cap[arc{u, v}] <= 0 {
					continue
				}
				parent[v] = u
				queue = append(queue, v)
			}
		}
		if parent[dst] < 0 {
			break
		}
		for v := dst; v != src; v = parent[v] {
			u := parent[v]
			cap[arc{u, v}]--
			cap[arc{v, u}]++
		}
		flow++
		if flow >= n { // safety: cannot exceed n disjoint paths
			break
		}
	}
	return flow + direct
}

// CollusionResilience returns the largest q such that the unicast
// mechanism can in principle charge bounded prices when any single
// collusion set of up to q *interior* nodes is removed: one less
// than the s-t vertex connectivity (q = 0 means even one node holds
// a monopoly). The p̃ scheme needs q ≥ |N(v_k)| for every relay's
// neighbourhood; Q-set schemes need q ≥ max |Q(v_k)|.
//
//lint:allow testonly test fixture: vertex-connectivity reference for the graph and root-package tests
func (g *NodeGraph) CollusionResilience(s, t int) int {
	k := g.VertexConnectivity(s, t)
	if k == 0 {
		return -1 // not even connected
	}
	return k - 1
}
