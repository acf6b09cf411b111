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
//     so T_k is the contiguous slot range (pre k, pre k + size k).
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
// Both steps of 3 run in preorder space. Once the tree is laid out,
// every arc between nodes that reach dest is renumbered by slot into
// two tables, one listing each node's out-arcs by increasing head
// slot and one listing its in-arcs by increasing tail slot.
//
//   - Seeding. An exit of T_k from i is an arc whose head lies
//     outside [pre k, pre k + size k), so in i's out-row the exits
//     are a prefix and a suffix. Walking up i's path T_k only grows:
//     the prefix end moves left and the suffix start moves right.
//     With the row's prefix and suffix minima of w + dist(head), one
//     walk writes every seed of i's avoid row.
//   - Search. Relaxing x reads only the part of its in-row whose tails
//     lie inside T_k, one contiguous slice of the row.
//
// One destination costs O(m) for the tables, O(Σ_i deg(i) + hops(i))
// for the seeds, and Σ_k one Dijkstra over T_k's own arc slices.
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
		for idx, k := range q.Relays() {
			q.Payments[k] = bs.upW[k] + (avoid[idx] - q.Cost)
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
	// in holds every arc b→x in row x, tails b in increasing id order,
	// weight w(b,x); the destination tree reads it.
	in      arcs
	heap    *pq.Binary
	heapCap int

	// The destination tree. settled is Dijkstra's settle order, dest
	// first, so every parent precedes its children. upW[v] is the
	// weight of v's tree arc w(v, parent v).
	dist    []float64
	upW     []float64
	parent  []int32
	hops    []int32
	settled []int32
	// Preorder layout: T_v ∪ {v} is order[pre[v] : pre[v]+size[v]].
	// pre is -1 for nodes that cannot reach dest. cursor is the next
	// free preorder slot under each node while the layout is built.
	pre, size, cursor, order []int32

	// The arcs between nodes that reach dest, renumbered by slot.
	// Row q of pout lists the out-arcs of order[q] by increasing head
	// slot, each weighed by its exit sum w + dist(head); row q of pin
	// lists its in-arcs by increasing tail slot, weighed by w.
	pout, pin arcs
	// pmin and smin are the prefix and suffix minima of one pout row.
	pmin, smin []float64

	// a is the per-relay search's tentative A^k, by slot. Slot s's
	// avoid row, relays in path order, ends just before end[s].
	a     []float64
	end   []int32
	avoid []float64
}

var batchPool = sync.Pool{New: func() any { return new(batchSpace) }}

func acquireBatch(n int) *batchSpace {
	bs := batchPool.Get().(*batchSpace)
	if bs.heapCap < n {
		bs.heap, bs.heapCap = pq.NewBinary(n), n
	}
	bs.dist = grow(bs.dist, n)
	bs.upW = grow(bs.upW, n)
	bs.a = grow(bs.a, n)
	bs.parent = grow(bs.parent, n)
	bs.hops = grow(bs.hops, n)
	bs.pre = grow(bs.pre, n)
	bs.size = grow(bs.size, n)
	bs.cursor = grow(bs.cursor, n)
	bs.order = grow(bs.order, n)
	bs.end = grow(bs.end, n)
	return bs
}

func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// loadNode fills the arc table from the node model: every edge is an
// arc each way, and entering node j costs c_j, except that reaching
// dest costs nothing.
func (bs *batchSpace) loadNode(g *graph.NodeGraph, dest int) {
	csr := g.CSR()
	n := g.N()
	in := &bs.in
	in.resize(n, len(csr.Targets))
	copy(in.off, csr.Offsets)
	copy(in.head, csr.Targets)
	for u := 0; u < n; u++ {
		cu := 0.0
		if u != dest {
			cu = g.Cost(u)
		}
		for e := csr.Offsets[u]; e < csr.Offsets[u+1]; e++ {
			in.w[e] = cu
		}
	}
}

// loadLink fills the arc table from a link graph, bucketing its arcs
// by head with tails in increasing order.
func (bs *batchSpace) loadLink(g *graph.LinkGraph) {
	n, m := g.N(), g.M()
	in := &bs.in
	in.resize(n, m)
	clear(in.off)
	for u := 0; u < n; u++ {
		for _, a := range g.Out(u) {
			in.off[a.To+1]++
		}
	}
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

// solve builds the destination tree, its preorder layout and arc
// tables, then fills every source's avoid row: seeds first, then one
// search per relay.
func (bs *batchSpace) solve(dest int) {
	obsBatchSolves.Inc()
	bs.destTree(dest)
	bs.layout()
	bs.slotArcs()
	total := int32(0)
	for s, v := range bs.order[1:len(bs.settled)] {
		total += bs.hops[v] - 1
		bs.end[s+1] = total
	}
	bs.avoid = grow(bs.avoid, int(total))
	bs.seed()
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
				dist[b], parent[b], bs.upW[b] = nd, int32(u), in.w[e]
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

// slotArcs builds pout and pin by counting, with no comparison sort:
// visiting heads in slot order fills every pout row in increasing
// head order, and visiting pout's rows in slot order then fills every
// pin row in increasing tail order. Arcs that touch a node unable to
// reach dest are dropped.
func (bs *batchSpace) slotArcs() {
	r := len(bs.settled)
	in, pre, order, pout, pin := &bs.in, bs.pre, bs.order[:r], &bs.pout, &bs.pin
	pout.resize(r, len(in.head))
	pin.resize(r, len(in.head))
	clear(pout.off)
	clear(pin.off)
	for p, x := range order {
		for _, b := range in.head[in.off[x]:in.off[x+1]] {
			if q := pre[b]; q >= 0 {
				pout.off[q+1]++
				pin.off[p+1]++
			}
		}
	}
	for q := 0; q < r; q++ {
		pout.off[q+1] += pout.off[q]
		pin.off[q+1] += pin.off[q]
	}
	fill := bs.cursor[:r]
	copy(fill, pout.off)
	for p, x := range order {
		for e := in.off[x]; e < in.off[x+1]; e++ {
			if q := pre[in.head[e]]; q >= 0 {
				f := fill[q]
				pout.head[f], pout.w[f] = int32(p), in.w[e]
				fill[q]++
			}
		}
	}
	copy(fill, pin.off)
	for q := int32(0); q < int32(r); q++ {
		for f := pout.off[q]; f < pout.off[q+1]; f++ {
			p := pout.head[f]
			g := fill[p]
			pin.head[g], pin.w[g] = q, pout.w[f]
			fill[p]++
			pout.w[f] += bs.dist[order[p]]
		}
	}
}

// seed writes, for every source i, the best exit of T_k from i into
// the slot of each relay k in i's avoid row: the least w + dist(head)
// over i's out-arcs whose head lies outside T_k ∪ {k}, or +Inf.
func (bs *batchSpace) seed() {
	pout, pre, size, parent, order := &bs.pout, bs.pre, bs.size, bs.parent, bs.order
	dest := order[0]
	for s := int32(1); s < int32(len(bs.settled)); s++ {
		i := order[s]
		if bs.hops[i] < 2 {
			continue // no relays
		}
		head := pout.head[pout.off[s]:pout.off[s+1]]
		exit := pout.w[pout.off[s]:pout.off[s+1]]
		deg := len(head)
		bs.pmin, bs.smin = grow(bs.pmin, deg), grow(bs.smin, deg)
		pmin, smin := bs.pmin, bs.smin
		best := math.Inf(1)
		for j, c := range exit {
			if c < best {
				best = c
			}
			pmin[j] = best
		}
		best = math.Inf(1)
		for j := deg - 1; j >= 0; j-- {
			if exit[j] < best {
				best = exit[j]
			}
			smin[j] = best
		}
		// The exits are the prefix head[:lo] and the suffix head[hi:];
		// the first relay's walk moves both pointers into place.
		lo, hi := deg, 0
		slot := bs.end[s] - bs.hops[i] + 1
		for k := parent[i]; k != dest; k = parent[k] {
			for lo > 0 && head[lo-1] >= pre[k] {
				lo--
			}
			for hi < deg && head[hi] < pre[k]+size[k] {
				hi++
			}
			v := math.Inf(1)
			if lo > 0 {
				v = pmin[lo-1]
			}
			if hi < deg && smin[hi] < v {
				v = smin[hi]
			}
			bs.avoid[slot] = v
			slot++
		}
	}
}

// avoidRelay computes A_i^k for every i ∈ T_k, starting from the
// seeds in k's column of the avoid rows, and stores each back there.
func (bs *batchSpace) avoidRelay(k int32) {
	lo, hi := bs.pre[k], bs.pre[k]+bs.size[k]
	obsBatchSubtree.Observe(float64(hi - lo - 1))
	pin, a, h, end, avoid := &bs.pin, bs.a, bs.heap, bs.end, bs.avoid
	hk := bs.hops[k]
	for s := lo + 1; s < hi; s++ {
		v := avoid[end[s]-hk]
		a[s] = v
		if !math.IsInf(v, 1) {
			h.Push(int(s), v)
		}
	}
	for h.Len() > 0 {
		x, ax := h.Pop()
		e, stop := pin.off[x], pin.off[x+1]
		for e < stop && pin.head[e] <= lo {
			e++ // the tail is k itself or lies before T_k
		}
		for ; e < stop; e++ {
			b := int(pin.head[e])
			if b >= int(hi) {
				break // this tail and every later one lie after T_k
			}
			if nd := pin.w[e] + ax; nd < a[b] {
				a[b] = nd
				if h.Contains(b) {
					h.DecreaseKey(b, nd)
				} else {
					h.Push(b, nd)
				}
			}
		}
	}
	for s := lo + 1; s < hi; s++ {
		avoid[end[s]-hk] = a[s]
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
	e := bs.end[bs.pre[i]]
	return bs.avoid[e-bs.hops[i]+1 : e]
}
