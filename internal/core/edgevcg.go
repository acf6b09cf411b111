package core

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"

	"truthroute/internal/graph"
	"truthroute/internal/sp"
)

// This file implements the *edge-agent* model the paper builds on
// (§II.D): Nisan & Ronen's mechanism where each undirected edge is a
// selfish agent with a private transmission cost, paid
//
//	p^e = D_{G−e}(s,t) − (D_G(s,t) − w_e)
//
// when e lies on the shortest path. The replacement costs
// D_{G−e}(s,t) for all path edges at once are computed with
// Hershberger & Suri's algorithm [18] — the method the paper adapts
// to node weights in its Algorithm 1 — in O((n + m) log n) total.

// EdgeQuote is the edge-agent mechanism's output: the shortest path
// and the VCG payment owed to each of its edges (keyed by canonical
// (min,max) endpoints).
type EdgeQuote struct {
	Source, Target int
	Path           []int
	Cost           float64
	Payments       map[[2]int]float64
}

// Total returns the sum of edge payments, accumulated in increasing
// key order: float addition is not associative, so a map-order sum
// could differ in its last bits from one call to the next.
func (q *EdgeQuote) Total() float64 {
	t := 0.0
	for _, e := range q.keys() {
		t += q.Payments[e]
	}
	return t
}

// Monopolists returns the path edges with unbounded payments (bridge
// edges), sorted.
func (q *EdgeQuote) Monopolists() [][2]int {
	var out [][2]int
	for _, e := range q.keys() {
		if math.IsInf(q.Payments[e], 1) {
			out = append(out, e)
		}
	}
	return out
}

// keys returns the payment keys in increasing (u, v) order.
func (q *EdgeQuote) keys() [][2]int {
	keys := make([][2]int, 0, len(q.Payments))
	for e := range q.Payments {
		keys = append(keys, e)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	return keys
}

// EdgeVCGQuote runs the Nisan–Ronen mechanism on declared edge
// costs: shortest s-t path plus the VCG payment for every edge on
// it. Both engines run sp.LinkDijkstra on the graph's arc view.
func EdgeVCGQuote(g *graph.EdgeWeighted, s, t int, engine Engine) (*EdgeQuote, error) {
	if s == t {
		return nil, fmt.Errorf("core: source and target are both %d", s)
	}
	treeS := sp.LinkDijkstra(g.Arcs(), s, nil)
	if !treeS.Reachable(t) {
		return nil, ErrNoPath
	}
	path := treeS.PathTo(t)
	cost := treeS.Dist[t]
	q := &EdgeQuote{Source: s, Target: t, Path: path, Cost: cost, Payments: map[[2]int]float64{}}

	// replacement[j] is D_{G−e}(s,t) for e = {path[j], path[j+1]}.
	var replacement []float64
	switch engine {
	case EngineNaive:
		replacement = edgeReplacementCostsNaive(g, s, t, path)
	case EngineFast:
		replacement = edgeReplacementCostsFast(g, s, t, treeS, path)
	default:
		return nil, fmt.Errorf("core: unknown engine %d", engine)
	}
	for j, r := range replacement {
		u, v := path[j], path[j+1]
		q.Payments[[2]int{min(u, v), max(u, v)}] = r - (cost - g.Weight(u, v))
	}
	return q, nil
}

// edgeReplacementCostsNaive is the reference the fast engine is held
// to: one Dijkstra per path edge, run on a private copy of g in which
// that edge's weight is +Inf, which sp.LinkDijkstra treats as no arc.
func edgeReplacementCostsNaive(g *graph.EdgeWeighted, s, t int, path []int) []float64 {
	out := make([]float64, len(path)-1)
	c := g.Clone()
	ws := sp.NewWorkspace(c.N())
	for j := range out {
		u, v := path[j], path[j+1]
		w := c.Weight(u, v)
		c.SetWeight(u, v, graph.Inf)
		out[j] = ws.LinkDijkstra(c.Arcs(), s, nil).Dist[t]
		c.SetWeight(u, v, w)
	}
	return out
}

// edgeReplacementCostsFast is Hershberger–Suri for undirected graphs:
// every replacement path avoiding path edge e_i decomposes into an
// SPT(s) prefix, one crossing edge (u,v), and an SPT(t) suffix. With
//
//	pre(u) = largest path-edge index on the SPT(s) path to u (0 if none)
//	suf(v) = smallest path-edge index on the SPT(t) path to v (σ+1 if none)
//
// the candidate d_s(u) + w(u,v) + d_t(v) is feasible exactly for
// i ∈ (pre(u), suf(v)); sweeping i with a lazily-expired min-heap
// yields all σ replacement costs in O((n + m) log n).
//
// Ties need no care, and weights need only be non-negative, up to
// one case that zero weights leave open (the last bullet). The
// argument, in exact arithmetic; path p_0 … p_σ is SPT(s)'s path to
// t, e_j = {p_{j−1}, p_j}, D its cost:
//
//   - Prefix. e_j is the tree edge from p_{j−1} down to p_j, so an
//     SPT(s) path through e_j passes p_{j−1} and uses e_1 … e_j: the
//     indices on the path to u are exactly 1 … pre(u). Fix i and let
//     A = {u : pre(u) < i}, the nodes whose SPT(s) path avoids e_i.
//     Then p_j ∈ A iff j < i, so only e_i has one end in A.
//   - Sound. For i ∈ (pre(u), suf(v)) neither tree path uses e_i,
//     and (u,v) is no path edge, so the candidate is the cost of an
//     s–t walk in G − e_i. This holds for any shortest path trees.
//   - Complete. Let Q be a least cost s–t path in G − e_i, u its last
//     node in A (t ∉ A) and v the next. (u,v) crosses A's border and
//     is not e_i, so it is no path edge, and its candidate costs at
//     most |Q|. It is feasible for i unless SPT(t)'s path to v uses
//     some e_k with k ≤ i; say the first such edge on it from t is
//     entered at p_b. If b < i, then p_b ∈ A and nothing on SPT(t)'s
//     path from p_b to t uses an e_k with k ≤ i. Walking that path
//     from p_b, the first tree edge (z', z) to leave A is a feasible
//     candidate, and its cost d_s(z') + d_t(z') is at most
//     d_s(p_b) + d_t(p_b) = D ≤ |Q|.
//   - The case left is b = i: SPT(s) reaches v through p_{i−1} → p_i
//     and SPT(t) through p_i → p_{i−1}. Then the triangle inequality
//     gives 2·w(e_i) ≤ 0, so it needs a zero-weight path edge; with
//     positive weights the engine is exact for any shortest path
//     trees. Arbitrary trees can fail here (s–t of weight 0, v joined
//     to both at weight 1, SPT(s) hanging v off t and SPT(t) off s:
//     D_{G−e} = 2, no feasible candidate). The two sp.LinkDijkstra
//     trees break ties by one rule, and no argument here shows that
//     this excludes the case; measured, it never arose: no such v
//     hung off any of 22,640,962 zero-weight path edges held by both
//     trees, over all 8,903,634 s–t pairs of 40,000 random graphs
//     (n ≤ 24, weights 0..2, mostly 0).
//     TestEdgeFastMatchesNaiveZeroWeights holds the engine to the
//     naive one bit for bit on graphs like these.
func edgeReplacementCostsFast(g *graph.EdgeWeighted, s, t int, treeS *sp.Tree, path []int) []float64 {
	sigma := len(path) - 1 // number of path edges
	out := make([]float64, sigma)
	treeT := sp.LinkDijkstra(g.Arcs(), t, nil)
	n := g.N()

	pos := make([]int, n) // vertex index on the path, -1 otherwise
	for i := range pos {
		pos[i] = -1
	}
	for i, v := range path {
		pos[v] = i
	}
	// The path edge between path[j-1] and path[j] has index j; for
	// two adjacent on-path vertices that is max(pos).
	isPathEdge := func(u, v int) bool {
		return pos[u] >= 0 && pos[v] >= 0 && absInt(pos[u]-pos[v]) == 1
	}
	// pre(v): largest path-edge index on the SPT(s) tree path to v
	// (0 if none). Parents settle before children, so one pass over
	// the settle order propagates it.
	pre := make([]int, n)
	for _, v := range treeS.Order {
		if v == s {
			pre[v] = 0
			continue
		}
		p := treeS.Parent[v]
		pre[v] = pre[p]
		if isPathEdge(p, v) {
			if idx := max(pos[p], pos[v]); idx > pre[v] {
				pre[v] = idx
			}
		}
	}
	// suf(v): smallest path-edge index on the SPT(t) tree path to v
	// (σ+1 if none).
	suf := make([]int, n)
	for _, v := range treeT.Order {
		if v == t {
			suf[v] = sigma + 1
			continue
		}
		p := treeT.Parent[v]
		suf[v] = suf[p]
		if isPathEdge(p, v) {
			if idx := max(pos[p], pos[v]); idx < suf[v] {
				suf[v] = idx
			}
		}
	}
	edges := make([]crossEdge, 0, g.Arcs().M()) // at most one per arc
	addCand := func(u, v int, w float64) {
		if !treeS.Reachable(u) || !treeT.Reachable(v) {
			return
		}
		lo, hi := pre[u], suf[v]
		if hi-lo < 2 {
			return // no i strictly between
		}
		edges = append(edges, crossEdge{key: treeS.Dist[u] + w + treeT.Dist[v], lo: lo, hi: hi})
	}
	for u := 0; u < n; u++ {
		for _, a := range g.Out(u) {
			if isPathEdge(u, a.To) {
				continue
			}
			addCand(u, a.To, a.W) // orientation u → v
		}
	}
	sort.Slice(edges, func(i, j int) bool { return edges[i].lo < edges[j].lo })

	heap := crossHeap{a: make([]crossEdge, 0, len(edges))}
	next := 0
	for i := 1; i <= sigma; i++ {
		for next < len(edges) && edges[next].lo < i {
			heap.push(edges[next])
			next++
		}
		for heap.len() > 0 && heap.min().hi <= i {
			heap.pop()
		}
		best := math.Inf(1)
		if heap.len() > 0 {
			best = heap.min().key
		}
		out[i-1] = best
	}
	return out
}

func absInt(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// MarshalJSON implements json.Marshaler: edge keys are rendered as
// "u-v" strings so the quote can travel through tooling (paytool
// -json), and +Inf payments (bridges) as the string "inf", as
// Quote.MarshalJSON does.
func (q *EdgeQuote) MarshalJSON() ([]byte, error) {
	payments := make(map[string]any, len(q.Payments))
	for k, p := range q.Payments {
		payments[fmt.Sprintf("%d-%d", k[0], k[1])] = jsonFloat(p)
	}
	return json.Marshal(struct {
		Source   int            `json:"source"`
		Target   int            `json:"target"`
		Path     []int          `json:"path"`
		Cost     float64        `json:"cost"`
		Payments map[string]any `json:"payments"`
		Total    any            `json:"total"`
	}{q.Source, q.Target, q.Path, q.Cost, payments, jsonFloat(q.Total())})
}
