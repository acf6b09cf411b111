package core

import (
	"cmp"
	"math"
	"slices"

	"truthroute/internal/graph"
	"truthroute/internal/sp"
)

// fastReplacement is the paper's Algorithm 1 (§III.B): it computes
// ||P_-vk(s,t,d)|| for every interior node v_k of the least cost path
// in O((n+m) log n) total, instead of one Dijkstra per relay, writing
// the results into w.repl (indexed by node id). It adapts
// Hershberger–Suri replacement paths to node-weighted graphs via
// "levels" on the shortest path tree.
//
// Sketch (notation follows the paper):
//
//   - P = r_0 r_1 ... r_σ is the s-t path in SPT(s); pos[r_l] = l.
//   - level(v) = index of the last path node on the SPT(s) tree path
//     from s to v; every node hangs off exactly one "bush" B_l.
//   - A replacement path avoiding r_l crosses exactly once from the
//     {level < l} region to the {level ≥ l} region (Lemma 1). Its
//     prefix may be taken along SPT(s) (cost L(a)); its suffix from
//     the crossing head b is R(b) = dist(b,t) when level(b) > l
//     (feasible by Lemma 2) or R^{-l}(b) = dist(b,t) in G∖r_l when
//     level(b) = l (computed per bush by a boundary-initialized
//     Dijkstra that never descends below level l, justified by
//     Lemma 3).
//   - Candidates with level(b) > l are minimized over all l at once
//     with a heap of crossing edges keyed by
//     L(a)+c_a+c_b+R(b), each edge valid for l in
//     (level(a), level(b)) (the paper's step 5).
//
// Costs need only be non-negative; zero-cost relays and tied paths
// are fine (argument below). fast_test.go tests it against the naive
// engine, bit for bit on integer costs with zeros.
//
// All scratch lives in the solverSpace: per-query validity of pos and
// level is scoped to treeS.Order (only reachable nodes are ever
// read), node-set membership uses generation-stamped marks, and the
// bushes are bucketed with a counting sort into one flat array — so
// the warmed steady state allocates nothing.
//
// R is the destination-rooted table, R[v] = dist(v, t). It depends
// only on the costs and t, never on s, so callers may share one
// across sources: Solver.QuoteIntoToward takes it from its caller
// (the serving daemon builds one per target per continuous-cost
// epoch) — the "dijkstra once, test many roots" amortization.
//
// path may be any least cost s–t path, not only treeS's tree path to t
// (QuoteIntoToward passes the destination tree's path on exact costs).
// Levels read Parent only for off-path nodes, so level(v) is the index
// of v's nearest path-node ancestor in treeS. The result is exact for
// costs ≥ 0, in exact arithmetic, for any such path and tree. Fix
// 0 < l < σ; call level < l low, level > l high, and the off-path
// nodes of level l bush l.
//
//   - Prefix. A low a of level j is reached at cost L(a), avoiding
//     r_l, by path's own prefix to r_j (a least cost prefix, cost
//     L(r_j)) and then a's tree path below r_j, which holds no path
//     node. Nothing is assumed about the tree above r_j: with
//     zero-cost runs on the path, treeS may reach r_j through a later
//     r_i (L(r_i) = L(r_j), every relay between them free), so
//     treeS's own prefix to a may pass r_l; this walk never does.
//   - Suffix. Take a high b, its nearest path ancestor r_k (k > l)
//     and seg, the cost of the tree nodes strictly between them. Up
//     the tree to r_k, then along path's suffix, is a b–t walk
//     avoiding r_l of cost W ≤ seg + c(r_k) + R(r_k). If a least cost
//     b–t path Q runs through r_l, then s → r_l along path and back
//     along Q to b costs at least L(b) = L(r_k) + c(r_k) + seg, which
//     bounds Q's b–r_l part below by c(r_{l+1..k}) + seg; so R(b) ≥
//     c(r_{l+1..k}) + seg + c(r_l) + R(r_l) ≥ seg + c(r_k) + R(r_k) ≥ W.
//     Either way R(b) is reached avoiding r_l (the paper's Lemma 2).
//     Only ≥ is used, so ties and zero costs need no care.
//   - Sound. Every candidate is hence the cost of an r_l-avoiding
//     s–t walk: the prefix walk to a, then b, then (b in bush l) step
//     3's moves inside the bush, which excludes r_l, out to a high
//     node, then that node's suffix. With costs ≥ 0 a walk is no
//     cheaper than the path it shortcuts to.
//   - Complete. On a least cost path avoiding r_l, let a be its last
//     low node and b the next one (b ≠ r_l). If b is high, step 5
//     holds the edge (a, b); if b is in bush l, the path stays in the
//     bush until a high node, so step 3's R^{-l}(b) is no larger and
//     step 4 holds (a, b). Either candidate is at most the path's cost.
//
// On exact costs every sum above is exact, so the fast and naive
// engines agree bit for bit. On continuous costs path is treeS's own
// path to t and the engines agree up to summation order.
func (w *solverSpace) fastReplacement(g *graph.NodeGraph, s, t int, treeS *sp.Tree, R []float64, path []int) {
	if len(path) <= 2 {
		return
	}
	sigma := len(path) - 1 // t = r_sigma
	n := g.N()
	csr := g.CSR()

	L := treeS.Dist // L(v): interior cost s→v, endpoints excluded
	// R(v): interior cost v→t, endpoints excluded (the table argument)

	// pos[v] = index on the path, or -1. Stale entries from earlier
	// queries are harmless: pos is only read for nodes in treeS.Order,
	// all reset here.
	pos := w.pos
	for _, v := range treeS.Order {
		pos[v] = -1
	}
	for i, v := range path {
		pos[v] = int32(i)
	}

	// level(v): last path node index on the SPT(s) root path to v,
	// valid iff levelSet.Has(v). Parents settle before children in
	// Dijkstra order, so one pass over the settle order suffices;
	// unreachable nodes are never marked and never participate.
	level := w.level
	levelSet := w.levelSet
	levelSet.Clear()
	for _, v := range treeS.Order {
		if pos[v] >= 0 {
			level[v] = pos[v]
		} else if p := treeS.Parent[v]; p >= 0 {
			level[v] = level[p]
		} else { // v == s handled by pos; other roots unreachable
			level[v] = 0
		}
		levelSet.Set(v)
	}

	// prefixCost(a) = cost of reaching a from s and then relaying
	// through a: L(a) + c_a, except the source relays nothing.
	prefixCost := func(a int) float64 {
		if a == s {
			return 0
		}
		return L[a] + g.Cost(a)
	}
	// suffixCost(b) = cost of entering b and continuing to t along
	// an unconstrained shortest path: c_b + R(b), except b == t.
	suffixCost := func(b int) float64 {
		if b == t {
			return 0
		}
		return g.Cost(b) + R[b]
	}

	// Bucket the bushes with a counting sort over ascending node id
	// (the order the allocating implementation appended in), so bush l
	// is the slice bushNodes[bushStart[l]:bushStart[l+1]].
	for l := 0; l <= sigma; l++ {
		w.bushCount[l] = 0
	}
	for v := 0; v < n; v++ {
		if levelSet.Has(v) && pos[v] < 0 {
			w.bushCount[level[v]]++
		}
	}
	w.bushStart[0] = 0
	for l := 0; l <= sigma; l++ {
		w.bushStart[l+1] = w.bushStart[l] + w.bushCount[l]
		w.bushCount[l] = w.bushStart[l] // reuse as the write cursor
	}
	for v := 0; v < n; v++ {
		if levelSet.Has(v) && pos[v] < 0 {
			l := level[v]
			w.bushNodes[w.bushCount[l]] = int32(v)
			w.bushCount[l]++
		}
	}

	// --- Step 3: R^{-l}(b) for every bush node b (level(b) = l,
	// b ≠ r_l): distance from b to t in G∖r_l, never descending to
	// levels < l. Computed bush by bush with a boundary-initialized
	// Dijkstra; each node and edge is touched O(1) times overall.
	// Every bush member's rAvoid entry is written during boundary
	// initialization before any read, so no O(n) +Inf refill is
	// needed between queries.
	rAvoid := w.rAvoid
	for l := 1; l < sigma; l++ {
		members := w.bushNodes[w.bushStart[l]:w.bushStart[l+1]]
		if len(members) == 0 {
			continue
		}
		rl := path[l]
		q := w.bushQ
		q.Reset()
		for _, b32 := range members {
			b := int(b32)
			best := math.Inf(1)
			for _, x32 := range csr.Neighbors(b) {
				x := int(x32)
				if x == rl || !levelSet.Has(x) {
					continue
				}
				if int(level[x]) > l { // exit to the high region
					if c := suffixCost(x); c < best {
						best = c
					}
				}
			}
			rAvoid[b] = best
			if !math.IsInf(best, 1) {
				q.Push(b, best)
			}
		}
		w.inBush.Clear()
		for _, b := range members {
			w.inBush.Set(int(b))
		}
		w.done.Clear()
		for q.Len() > 0 {
			x, dx := q.Pop()
			if w.done.Has(x) {
				continue
			}
			w.done.Set(x)
			rAvoid[x] = dx
			// Travelling from neighbour b through x costs c_x extra.
			for _, b32 := range csr.Neighbors(x) {
				b := int(b32)
				if !w.inBush.Has(b) || w.done.Has(b) {
					continue
				}
				nd := dx + g.Cost(x)
				if nd < rAvoid[b] {
					rAvoid[b] = nd
					if q.Contains(b) {
						q.DecreaseKey(b, nd)
					} else {
						q.Push(b, nd)
					}
				}
			}
		}
	}

	// --- Step 4: c^{-l} = best candidate whose crossing edge lands
	// in bush l itself: min over edges (a,b), level(a) < l = level(b)
	// of prefixCost(a) + c_b + R^{-l}(b).
	cAvoid := w.cAvoid[:sigma] // indexed by l; [0] unused
	for i := range cAvoid {
		cAvoid[i] = math.Inf(1)
	}
	for l := 1; l < sigma; l++ {
		for _, b32 := range w.bushNodes[w.bushStart[l]:w.bushStart[l+1]] {
			b := int(b32)
			if math.IsInf(rAvoid[b], 1) {
				continue
			}
			enter := g.Cost(b) + rAvoid[b]
			for _, a32 := range csr.Neighbors(b) {
				a := int(a32)
				if !levelSet.Has(a) || int(level[a]) >= l {
					continue
				}
				if cand := prefixCost(a) + enter; cand < cAvoid[l] {
					cAvoid[l] = cand
				}
			}
		}
	}

	// --- Step 5: candidates whose crossing edge jumps clean over
	// the bush: edges (a,b) with level(a) < l < level(b), keyed by
	// prefixCost(a) + suffixCost(b), valid for l in
	// (level(a), level(b)). Sweep l upward with a lazily-expired
	// min-heap. Equal-key ties may sit in the heap in any order
	// without affecting the swept minima, so the unstable sort is
	// safe.
	edges := w.edges[:0]
	for u := 0; u < n; u++ {
		if !levelSet.Has(u) {
			continue
		}
		for _, v32 := range csr.Neighbors(u) {
			v := int(v32)
			if v < u || !levelSet.Has(v) || level[u] == level[v] {
				continue
			}
			a, b := u, v
			if level[a] > level[b] {
				a, b = b, a
			}
			if level[b]-level[a] < 2 {
				continue // no l strictly between
			}
			edges = append(edges, crossEdge{
				key: prefixCost(a) + suffixCost(b),
				lo:  int(level[a]), hi: int(level[b]),
			})
		}
	}
	w.edges = edges
	slices.SortFunc(edges, func(x, y crossEdge) int { return cmp.Compare(x.lo, y.lo) })

	h := &w.heap
	h.a = h.a[:0]
	next := 0
	for l := 1; l < sigma; l++ {
		for next < len(edges) && edges[next].lo < l {
			h.push(edges[next])
			next++
		}
		for h.len() > 0 && h.min().hi <= l {
			h.pop()
		}
		best := cAvoid[l]
		if h.len() > 0 && h.min().key < best {
			best = h.min().key
		}
		w.repl[path[l]] = best
	}
}

// crossEdge is a non-tree edge jumping from the {level < l} region to
// the {level > l} region; it is a valid detour for l in (lo, hi).
type crossEdge struct {
	key    float64
	lo, hi int
}

// crossHeap is a plain min-heap of crossEdges ordered by key; expired
// entries (hi ≤ current l) are removed lazily at the top.
type crossHeap struct {
	a []crossEdge
}

func (h *crossHeap) len() int { return len(h.a) }

func (h *crossHeap) min() crossEdge { return h.a[0] }

func (h *crossHeap) push(e crossEdge) {
	h.a = append(h.a, e)
	i := len(h.a) - 1
	for i > 0 {
		p := (i - 1) / 2
		if h.a[p].key <= h.a[i].key {
			break
		}
		h.a[p], h.a[i] = h.a[i], h.a[p]
		i = p
	}
}

func (h *crossHeap) pop() {
	last := len(h.a) - 1
	h.a[0] = h.a[last]
	h.a = h.a[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < len(h.a) && h.a[l].key < h.a[smallest].key {
			smallest = l
		}
		if r < len(h.a) && h.a[r].key < h.a[smallest].key {
			smallest = r
		}
		if smallest == i {
			return
		}
		h.a[i], h.a[smallest] = h.a[smallest], h.a[i]
		i = smallest
	}
}
