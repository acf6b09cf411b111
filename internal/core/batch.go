package core

import (
	"math"
	"sync"

	"truthroute/internal/graph"
	"truthroute/internal/pq"
)

// This file computes payments for *every* source towards one fixed
// destination in a single pass. It is the engine of the overpayment
// study (§III.G), which needs all n quotes per network instance, and
// it follows the shape of Algorithm 1 (§III.B, after Hershberger–Suri):
// every avoided relay is settled once, by one search.
//
//  1. One Dijkstra tree rooted at dest gives dist(i) = ||P(i,dest)||
//     and every source's least cost path (its tree path).
//  2. Relay k lies on P(i,dest) exactly when i is a strict descendant
//     of k. Call that subtree T_k. The tree is laid out in preorder,
//     so T_k is one contiguous range and membership is two compares.
//     k's index on i's path is hops(i) − hops(k); no path is scanned.
//  3. For i ∈ T_k the k-avoiding cost A_i^k obeys the §III.C
//     recurrence
//
//     A_i^k = min over arcs i→j, j ≠ k, of
//     w(i,j) + (j ∈ T_k ? A_j^k : dist(j))
//
//     where w(i,j) = c_j (0 for j = dest) in the node model and the
//     declared arc weight in the link model. Arcs that leave
//     T_k ∪ {k} seed every i ∈ T_k with a candidate; one Dijkstra
//     over T_k along reverse arcs, relaxing A_b = w(b,x) + A_x,
//     settles the rest.
//
// Seeding and search touch each source once per relay on its path, so
// one destination costs Σ_i hops(i)·deg(i)·log n, with no repeated
// sweeps.
//
// Floating point: each A_i^k is the exact float minimum over the
// recurrence's own sums, whatever order the search visits them in.
// Link payments are w(k,next) + (A − cost), the operations LinkQuote
// applies, and the destination tree is bit-identical to a forward
// Dijkstra on the reversed graph. Node payments are A − cost + c_k,
// QuoteInto's final operation. Where the result is bit for bit equal
// to the single-source engines depends on the cost regime:
//
//   - When g.CostQuantum negotiates (every cost a multiple of one
//     power-of-two quantum, all path sums below 2^52 quanta), every
//     sum and difference is an exact integer count of quanta. Cost,
//     A and every payment then carry the same bits as QuoteInto's,
//     for both engines, wherever the two choose the same path. The
//     oracle's engine-batch check holds them to that.
//   - On continuous costs A is summed from the destination outwards
//     here and from the source forwards by the single-source engines,
//     so cost and payments agree with them only to a few ulps
//     (batch_udg_test.go holds them to 1e-9 relative).

// AllUnicastQuotes returns a quote towards dest for every source in
// a node-weighted graph (entry dest is nil). Sources that cannot
// reach dest get a nil entry. Monopoly relays yield +Inf payments,
// exactly as in UnicastQuote. A dest outside [0, g.N()) yields g.N()
// nil entries.
func AllUnicastQuotes(g *graph.NodeGraph, dest int) []*Quote {
	n := g.N()
	out := make([]*Quote, n)
	if n < 2 || dest < 0 || dest >= n {
		return out
	}
	bs := acquireBatch(n)
	defer batchPool.Put(bs)
	bs.loadNode(g, dest)
	bs.solve(dest)
	for _, v := range bs.settled[1:] {
		i := int(v)
		q := bs.quote(i, dest)
		avoid := bs.avoidRow(i)
		for idx, k := range q.Relays() {
			q.Payments[k] = avoid[idx] - q.Cost + g.Cost(k)
		}
		out[i] = q
	}
	return out
}

// AllLinkQuotes is AllUnicastQuotes for the §III.F link-cost model:
// one quote per source towards dest over a directed link-weighted
// graph, with payments
//
//	p_i^k = d_{k,next} + ||P(i,0, d|^k ∞)|| − ||P(i,0,d)||.
func AllLinkQuotes(g *graph.LinkGraph, dest int) []*Quote {
	n := g.N()
	out := make([]*Quote, n)
	if n < 2 || dest < 0 || dest >= n {
		return out
	}
	bs := acquireBatch(n)
	defer batchPool.Put(bs)
	bs.loadLink(g)
	bs.solve(dest)
	for _, v := range bs.settled[1:] {
		i := int(v)
		q := bs.quote(i, dest)
		avoid := bs.avoidRow(i)
		p := q.Path
		for idx := 1; idx+1 < len(p); idx++ {
			k := p[idx]
			q.Payments[k] = g.Weight(k, p[idx+1]) + (avoid[idx-1] - q.Cost)
		}
		out[i] = q
	}
	return out
}

// arcs is a flat adjacency: row u is head[off[u]:off[u+1]], with
// weights w in step.
type arcs struct {
	off  []int32
	head []int32
	w    []float64
}

func (a *arcs) resize(n, m int) {
	a.off = grow(a.off, n+1)
	a.head = grow(a.head, m)
	a.w = grow(a.w, m)
}

// batchSpace is the pooled scratch of one all-sources solve. Slices
// grow to the largest instance seen and are never shrunk, so a warm
// pool allocates only the quotes it returns.
type batchSpace struct {
	// out holds arcs i→j with weight w(i,j), read when seeding; in
	// holds the same arcs reversed (row x lists tails b in increasing
	// order, weight w(b,x)), read by both searches.
	out, in arcs
	heap    *pq.Binary
	heapCap int

	// The destination tree. settled is Dijkstra's settle order, dest
	// first, so every parent precedes its children.
	dist    []float64
	parent  []int32
	hops    []int32
	settled []int32
	// Preorder layout: T_v ∪ {v} is order[pre[v] : pre[v]+size[v]].
	// pre is -1 for nodes that cannot reach dest. cursor is the next
	// free preorder slot under each node while the layout is built.
	pre, size, cursor, order []int32

	// a is the per-relay search's tentative A_i^k. avoid holds every
	// source's A_i^k row, relays in path order from row[i].
	a     []float64
	row   []int32
	avoid []float64
}

var batchPool = sync.Pool{New: func() any { return new(batchSpace) }}

func acquireBatch(n int) *batchSpace {
	bs := batchPool.Get().(*batchSpace)
	if bs.heapCap < n {
		bs.heap, bs.heapCap = pq.NewBinary(n), n
	}
	bs.dist = grow(bs.dist, n)
	bs.a = grow(bs.a, n)
	bs.parent = grow(bs.parent, n)
	bs.hops = grow(bs.hops, n)
	bs.pre = grow(bs.pre, n)
	bs.size = grow(bs.size, n)
	bs.cursor = grow(bs.cursor, n)
	bs.order = grow(bs.order, n)
	bs.row = grow(bs.row, n)
	return bs
}

func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// loadNode fills both arc tables from the node model: every edge is
// an arc each way, and entering node j costs c_j, except that
// reaching dest costs nothing.
func (bs *batchSpace) loadNode(g *graph.NodeGraph, dest int) {
	csr := g.CSR()
	n := g.N()
	bs.out.resize(n, len(csr.Targets))
	bs.in.resize(n, len(csr.Targets))
	copy(bs.out.off, csr.Offsets)
	copy(bs.out.head, csr.Targets)
	copy(bs.in.off, csr.Offsets)
	copy(bs.in.head, csr.Targets)
	relay := func(v int) float64 {
		if v == dest {
			return 0
		}
		return g.Cost(v)
	}
	for u := 0; u < n; u++ {
		cu := relay(u)
		for e := csr.Offsets[u]; e < csr.Offsets[u+1]; e++ {
			bs.out.w[e] = relay(int(csr.Targets[e]))
			bs.in.w[e] = cu
		}
	}
}

// loadLink fills the arc tables from a link graph: out copies the
// graph's arcs, in buckets them by head with tails in increasing
// order.
func (bs *batchSpace) loadLink(g *graph.LinkGraph) {
	n, m := g.N(), g.M()
	out, in := &bs.out, &bs.in
	out.resize(n, m)
	in.resize(n, m)
	clear(in.off)
	e := int32(0)
	for u := 0; u < n; u++ {
		out.off[u] = e
		for _, a := range g.Out(u) {
			out.head[e], out.w[e] = int32(a.To), a.W
			e++
			in.off[a.To+1]++
		}
	}
	out.off[n] = e
	for v := 0; v < n; v++ {
		in.off[v+1] += in.off[v]
	}
	fill := bs.cursor
	copy(fill, in.off[:n])
	for u := 0; u < n; u++ {
		for _, a := range g.Out(u) {
			p := fill[a.To]
			in.head[p], in.w[p] = int32(u), a.W
			fill[a.To]++
		}
	}
}

// solve builds the destination tree and its preorder layout, then
// fills every source's avoid row with one search per relay.
func (bs *batchSpace) solve(dest int) {
	obsBatchSolves.Inc()
	bs.destTree(dest)
	bs.layout()
	total := int32(0)
	for _, v := range bs.settled[1:] {
		bs.row[v] = total
		total += bs.hops[v] - 1
	}
	bs.avoid = grow(bs.avoid, int(total))
	for _, k := range bs.settled[1:] {
		if bs.size[k] > 1 {
			bs.avoidRelay(k)
		}
	}
}

// destTree runs Dijkstra from dest along reverse arcs, so dist(i) is
// the cost from i to dest and parent(i) is i's next hop. The heap pops
// by (priority, id) and rows list tails in increasing order, so the
// tree equals a forward Dijkstra from dest on the reversed graph,
// parent for parent.
func (bs *batchSpace) destTree(dest int) {
	dist, parent, in, h := bs.dist, bs.parent, &bs.in, bs.heap
	h.Reset()
	for v := range dist {
		dist[v], parent[v], bs.pre[v] = math.Inf(1), -1, -1
	}
	settled := bs.settled[:0]
	dist[dest] = 0
	h.Push(dest, 0)
	for h.Len() > 0 {
		u, du := h.Pop()
		settled = append(settled, int32(u))
		for e := in.off[u]; e < in.off[u+1]; e++ {
			b := int(in.head[e])
			if nd := du + in.w[e]; nd < dist[b] {
				dist[b], parent[b] = nd, int32(u)
				if h.Contains(b) {
					h.DecreaseKey(b, nd)
				} else {
					h.Push(b, nd)
				}
			}
		}
	}
	bs.settled = settled
}

// layout assigns preorder slots. Subtree sizes come from a reverse
// sweep of the settle order; then each node, taken in settle order,
// claims the next free slot under its parent and reserves room for
// its own subtree behind it.
func (bs *batchSpace) layout() {
	settled, parent, size := bs.settled, bs.parent, bs.size
	for _, v := range settled {
		size[v] = 1
	}
	for i := len(settled) - 1; i > 0; i-- {
		v := settled[i]
		size[parent[v]] += size[v]
	}
	dest := settled[0]
	bs.pre[dest], bs.cursor[dest], bs.hops[dest], bs.order[0] = 0, 1, 0, dest
	for _, v := range settled[1:] {
		p := parent[v]
		at := bs.cursor[p]
		bs.pre[v], bs.cursor[p], bs.cursor[v] = at, at+size[v], at+1
		bs.hops[v] = bs.hops[p] + 1
		bs.order[at] = v
	}
}

// avoidRelay computes A_i^k for every i ∈ T_k and stores each at k's
// index in i's avoid row.
func (bs *batchSpace) avoidRelay(k int32) {
	lo, hi := bs.pre[k], bs.pre[k]+bs.size[k]
	sub := bs.order[lo+1 : hi]
	obsBatchSubtree.Observe(float64(len(sub)))
	out, in, pre, dist, a, h := &bs.out, &bs.in, bs.pre, bs.dist, bs.a, bs.heap
	for _, i := range sub {
		best := math.Inf(1)
		for e := out.off[i]; e < out.off[i+1]; e++ {
			if p := pre[out.head[e]]; p >= lo && p < hi {
				continue // the arc stays in T_k ∪ {k}
			}
			if c := out.w[e] + dist[out.head[e]]; c < best {
				best = c
			}
		}
		a[i] = best
		if !math.IsInf(best, 1) {
			h.Push(int(i), best)
		}
	}
	for h.Len() > 0 {
		x, ax := h.Pop()
		for e := in.off[x]; e < in.off[x+1]; e++ {
			b := int(in.head[e])
			if p := pre[b]; p <= lo || p >= hi {
				continue // b is k itself or outside T_k
			}
			if nd := in.w[e] + ax; nd < a[b] {
				a[b] = nd
				if h.Contains(b) {
					h.DecreaseKey(b, nd)
				} else {
					h.Push(b, nd)
				}
			}
		}
	}
	hk := bs.hops[k]
	for _, i := range sub {
		bs.avoid[bs.row[i]+bs.hops[i]-hk-1] = a[i]
	}
}

// quote returns i's quote shell: its tree path, source first, its
// cost, and an empty payments map sized for its relays. Each quote
// and path is its own allocation, so a caller that keeps a few
// quotes does not pin the rest.
func (bs *batchSpace) quote(i, dest int) *Quote {
	h := int(bs.hops[i])
	path := make([]int, h+1)
	v := int32(i)
	for idx := range path {
		path[idx] = int(v)
		v = bs.parent[v]
	}
	return &Quote{Source: i, Target: dest, Path: path, Cost: bs.dist[i], Payments: make(map[int]float64, h-1)}
}

// avoidRow returns A_i^k for i's relays in path order.
func (bs *batchSpace) avoidRow(i int) []float64 {
	r := bs.row[i]
	return bs.avoid[r : r+bs.hops[i]-1]
}
