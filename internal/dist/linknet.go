package dist

import (
	"math"
	"slices"

	"truthroute/internal/graph"
)

// This file extends the distributed computation to the §III.F
// link-cost model, where each node's type is the vector of its
// out-link power costs. The paper presents the distributed algorithm
// for the scalar node model and notes the link model admits the same
// treatment; the relaxation here runs on the avoiding-costs
//
//	A_i^k = min over arcs (i,j), j ≠ k of
//	        w(i,j) + (k ∈ interior(P(j,0)) ? A_j^k : dist(j))
//
// (the same fixed point core.AllLinkQuotes computes centrally), and
// the payment follows as p_i^k = w(k, next_k) + A_i^k − dist(i) with
// all declared weights public. The communication graph must be
// bidirectionally connected (arcs both ways, weights may differ) —
// the standard ad hoc MAC assumption; the adversarial defences of
// Algorithm 2 live in the node-model Network and are not duplicated
// here.
type LinkNetwork struct {
	G    *graph.LinkGraph
	Dest int

	nodes  []*linkNode
	queues [][]linkMsg
	Rounds int
}

// linkMsg is one announcement: the sender's distance/path plus its
// current avoiding-cost entries.
type linkMsg struct {
	From  int
	Dist  float64
	Path  []int
	Avoid map[int]float64
}

type linkNode struct {
	self  int
	dist  float64
	path  []int
	avoid map[int]float64 // k → A_self^k

	nbDist  map[int]float64
	nbPath  map[int][]int
	nbAvoid map[int]map[int]float64
	dirty   bool
}

// NewLinkNetwork builds the simulator. Every node with an out-arc to
// a neighbour must also have an in-arc from it (bidirectional
// connectivity); weights are the declared per-link costs.
func NewLinkNetwork(g *graph.LinkGraph, dest int) *LinkNetwork {
	n := &LinkNetwork{G: g, Dest: dest,
		nodes:  make([]*linkNode, g.N()),
		queues: make([][]linkMsg, g.N()),
	}
	for i := 0; i < g.N(); i++ {
		ln := &linkNode{self: i, dist: Inf,
			avoid:   map[int]float64{},
			nbDist:  map[int]float64{},
			nbPath:  map[int][]int{},
			nbAvoid: map[int]map[int]float64{},
			dirty:   true,
		}
		if i == dest {
			ln.dist = 0
			ln.path = []int{dest}
		}
		n.nodes[i] = ln
	}
	return n
}

// interiorOf reports whether k is an interior node of path.
func interiorOf(path []int, k int) bool {
	if len(path) <= 2 {
		return false
	}
	return slices.Contains(path[1:len(path)-1], k)
}

// step processes one node's round: ingest announcements, relax
// distance and avoiding-costs, emit an announcement when changed.
func (n *LinkNetwork) step(ln *linkNode, inbox []linkMsg) []linkMsg {
	for _, m := range inbox {
		ln.nbDist[m.From] = m.Dist
		ln.nbPath[m.From] = m.Path
		ln.nbAvoid[m.From] = m.Avoid
	}
	if ln.self != n.Dest {
		// Stage-1 relaxation: dist includes the own first hop in the
		// link model.
		for _, a := range n.G.Out(ln.self) {
			var dj float64
			var pj []int
			if a.To == n.Dest {
				dj, pj = 0, []int{n.Dest}
			} else {
				var ok bool
				dj, ok = ln.nbDist[a.To]
				if !ok || math.IsInf(dj, 1) {
					continue
				}
				pj = ln.nbPath[a.To]
				if pj == nil {
					continue
				}
			}
			if cand := a.W + dj; cand < ln.dist-priceEps {
				ln.dist = cand
				ln.path = append([]int{ln.self}, pj...)
				ln.avoid = map[int]float64{}
				for _, k := range ln.path[1 : len(ln.path)-1] {
					ln.avoid[k] = Inf
				}
				ln.dirty = true
			}
		}
		// Stage-2 relaxation on avoiding-costs.
		for k := range ln.avoid {
			for _, a := range n.G.Out(ln.self) {
				j := a.To
				if j == k || a.W >= graph.Inf {
					continue
				}
				var tail float64
				if j == n.Dest {
					tail = 0
				} else {
					dj, ok := ln.nbDist[j]
					if !ok || math.IsInf(dj, 1) || ln.nbPath[j] == nil {
						continue
					}
					if interiorOf(ln.nbPath[j], k) {
						av, ok := ln.nbAvoid[j][k]
						if !ok || math.IsInf(av, 1) {
							continue
						}
						tail = av
					} else {
						tail = dj
					}
				}
				if cand := a.W + tail; cand < ln.avoid[k]-priceEps {
					ln.avoid[k] = cand
					ln.dirty = true
				}
			}
		}
	}
	if !ln.dirty {
		return nil
	}
	ln.dirty = false
	avoid := make(map[int]float64, len(ln.avoid))
	for k, v := range ln.avoid {
		avoid[k] = v
	}
	return []linkMsg{{From: ln.self, Dist: ln.dist, Path: slices.Clone(ln.path), Avoid: avoid}}
}

// Run executes rounds until quiescence or maxRounds, returning the
// rounds executed. Unlike the node-model Network, stage 1 and stage 2
// interleave: avoiding-cost relaxation is self-stabilizing because a
// path change resets the entries.
func (n *LinkNetwork) Run(maxRounds int) int {
	start := n.Rounds
	for r := 0; r < maxRounds; r++ {
		n.Rounds++
		inboxes := n.queues
		n.queues = make([][]linkMsg, n.G.N())
		active := false
		for i, ln := range n.nodes {
			out := n.step(ln, inboxes[i])
			if len(out) > 0 {
				active = true
			}
			for _, m := range out {
				// Radio broadcast: delivered to every node that can
				// hear the transmitter — in the bidirectional model,
				// exactly its out-neighbours.
				for _, a := range n.G.Out(i) {
					n.queues[a.To] = append(n.queues[a.To], m)
				}
			}
		}
		if !active {
			break
		}
	}
	return n.Rounds - start
}

// Quote reconstructs node i's routing decision and payments from the
// converged protocol state (nil if i has no route).
func (n *LinkNetwork) Quote(i int) *linkQuoteView {
	ln := n.nodes[i]
	if i == n.Dest || ln.path == nil {
		return nil
	}
	q := &linkQuoteView{Dist: ln.dist, Path: slices.Clone(ln.path), Payments: map[int]float64{}}
	for idx := 1; idx+1 < len(ln.path); idx++ {
		k := ln.path[idx]
		q.Payments[k] = n.G.Weight(k, ln.path[idx+1]) + (ln.avoid[k] - ln.dist)
	}
	return q
}

// linkQuoteView is the protocol-visible quote of one source.
type linkQuoteView struct {
	Dist     float64
	Path     []int
	Payments map[int]float64
}
