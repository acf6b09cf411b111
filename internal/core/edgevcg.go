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

// Total returns the sum of edge payments.
func (q *EdgeQuote) Total() float64 {
	t := 0.0
	for _, p := range q.Payments {
		t += p
	}
	return t
}

// Monopolists returns the path edges with unbounded payments (bridge
// edges), sorted.
func (q *EdgeQuote) Monopolists() [][2]int {
	var out [][2]int
	for e, p := range q.Payments {
		if math.IsInf(p, 1) {
			out = append(out, e)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i][0] != out[j][0] {
			return out[i][0] < out[j][0]
		}
		return out[i][1] < out[j][1]
	})
	return out
}

// EdgeVCGQuote runs the Nisan–Ronen mechanism on declared edge
// costs: shortest s-t path plus the VCG payment for every edge on
// it.
func EdgeVCGQuote(g *graph.EdgeWeighted, s, t int, engine Engine) (*EdgeQuote, error) {
	if s == t {
		return nil, fmt.Errorf("core: source and target are both %d", s)
	}
	treeS := sp.EdgeDijkstra(g, s, nil)
	if !treeS.Reachable(t) {
		return nil, ErrNoPath
	}
	path := treeS.PathTo(t)
	cost := treeS.Dist[t]
	q := &EdgeQuote{Source: s, Target: t, Path: path, Cost: cost, Payments: map[[2]int]float64{}}

	var replacement map[[2]int]float64
	switch engine {
	case EngineNaive:
		replacement = sp.EdgeReplacementCostsNaive(g, s, t, path)
	case EngineFast:
		replacement = edgeReplacementCostsFast(g, s, t, treeS)
	default:
		return nil, fmt.Errorf("core: unknown engine %d", engine)
	}
	for i := 0; i+1 < len(path); i++ {
		u, v := path[i], path[i+1]
		key := [2]int{min(u, v), max(u, v)}
		q.Payments[key] = replacement[key] - (cost - g.Weight(u, v))
	}
	return q, nil
}

// edgeReplacementCostsFast is Hershberger–Suri for undirected graphs:
// every replacement path avoiding path edge e_i decomposes into an
// SPT(s) prefix, one crossing edge (u,v), and an SPT(t) suffix. With
//
//	pre(u) = number of path edges on the SPT(s) path to u
//	suf(v) = 1 + σ − number of path edges on the SPT(t) path to v
//
// the candidate d_s(u) + w(u,v) + d_t(v) is feasible exactly for
// i ∈ (pre(u), suf(v)); sweeping i with a lazily-expired min-heap
// yields all σ replacement costs in O((n + m) log n). Assumes unique
// shortest paths (continuous costs). Unlike Algorithm 1, whose
// exactness under ties and zero costs fast.go's header proves, this
// engine's assumption has not been settled by argument.
func edgeReplacementCostsFast(g *graph.EdgeWeighted, s, t int, treeS *sp.Tree) map[[2]int]float64 {
	path := treeS.PathTo(t)
	sigma := len(path) - 1 // number of path edges
	out := make(map[[2]int]float64, sigma)
	if sigma == 0 {
		return out
	}
	treeT := sp.EdgeDijkstra(g, t, nil)
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
	// the settle order propagates it; under unique shortest paths the
	// used indices form the prefix {1..pre(v)}.
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
	// (σ+1 if none); the used indices form the suffix {suf(v)..σ}.
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
	var edges []crossEdge
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

	heap := crossHeap{}
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
		u, v := path[i-1], path[i]
		out[[2]int{min(u, v), max(u, v)}] = best
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
// -json).
func (q *EdgeQuote) MarshalJSON() ([]byte, error) {
	payments := make(map[string]float64, len(q.Payments))
	for k, p := range q.Payments {
		payments[fmt.Sprintf("%d-%d", k[0], k[1])] = p
	}
	return json.Marshal(struct {
		Source   int                `json:"source"`
		Target   int                `json:"target"`
		Path     []int              `json:"path"`
		Cost     float64            `json:"cost"`
		Payments map[string]float64 `json:"payments"`
		Total    float64            `json:"total"`
	}{q.Source, q.Target, q.Path, q.Cost, payments, q.Total()})
}
