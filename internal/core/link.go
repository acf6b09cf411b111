package core

import (
	"fmt"

	"truthroute/internal/graph"
	"truthroute/internal/sp"
)

// LinkQuote runs the §III.F mechanism, where each node is an agent
// whose private type is the *vector* of its per-out-link power costs
// (c_{k,0}, ..., c_{k,n-1}), e.g. α + β·‖v_k v_j‖^κ under the
// power-attenuation model. The output is the least cost directed
// path from s to t; the payment of the source to an intermediate
// node v_k on it is
//
//	p^k = Σ_j x_{k,j}·d_{k,j} + Δ_{i,k}
//	Δ_{i,k} = ||P(s,t, d|^k ∞)|| − ||P(s,t,d)||
//
// i.e. the declared cost of the out-link the path actually uses plus
// the improvement v_k's presence brings to the route. The
// v_k-avoiding path is computed by silencing all of v_k's out-links
// (setting d_{k,j} = ∞), exactly as the paper prescribes.
func LinkQuote(g *graph.LinkGraph, s, t int) (*Quote, error) {
	if s == t {
		return nil, fmt.Errorf("core: source and target are both %d", s)
	}
	tree := sp.LinkDijkstra(g, s, nil)
	if !tree.Reachable(t) {
		return nil, ErrNoPath
	}
	path := tree.PathTo(t)
	cost := tree.Dist[t]
	q := &Quote{Source: s, Target: t, Path: path, Cost: cost, Payments: make(map[int]float64, len(path))}
	replacement := sp.LinkReplacementCostsNaive(g, s, t, path)
	for i := 1; i+1 < len(path); i++ {
		k := path[i]
		used := g.Weight(k, path[i+1]) // Σ_j x_{k,j} d_{k,j} on a simple path
		q.Payments[k] = used + (replacement[k] - cost)
	}
	return q, nil
}
