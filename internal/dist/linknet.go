package dist

import (
	"maps"
	"slices"

	"truthroute/internal/graph"
)

// LinkNetwork runs the distributed computation in the §III.F link-cost
// model, where each node's type is the vector of its out-link power
// costs. The paper presents the distributed algorithm for the scalar
// node model and notes the link model admits the same treatment: it
// is the same Algorithm 2 protocol (stage-1 corrections, stage-2
// trigger-verified prices) over the arc weights w(i,j), so D(i)
// includes i's own first hop and the payment is
// p_i^k = w(k, next_k) + A_i^k − D(i), the fixed point
// core.AllLinkQuotes computes centrally. The communication graph must
// be bidirectionally connected (arcs both ways, weights may differ) —
// the standard ad hoc MAC assumption; the radio neighbours are the
// node pairs joined by arcs in both directions.
type LinkNetwork struct {
	net *Network
}

// NewLinkNetwork builds the simulator over g's declared link weights
// towards dest, with every node honest.
func NewLinkNetwork(g *graph.LinkGraph, dest int) *LinkNetwork {
	net := NewNetwork(g.Symmetrized(make([]float64, g.N())), dest, nil)
	net.link = g
	return &LinkNetwork{net: net}
}

// Run executes both protocol stages, each bounded by maxRounds, and
// returns the rounds they took together; a result of maxRounds or
// more means a stage did not go quiet.
func (n *LinkNetwork) Run(maxRounds int) int {
	stage1, stage2, _ := n.net.RunProtocol(maxRounds)
	return stage1 + stage2
}

// Quote reconstructs node i's routing decision and payments from the
// converged protocol state (nil if i has no route).
func (n *LinkNetwork) Quote(i int) *linkQuoteView {
	st := n.net.Nodes[i].State()
	if i == n.net.Dest || st.Path == nil {
		return nil
	}
	return &linkQuoteView{Dist: st.D, Path: slices.Clone(st.Path), Payments: maps.Clone(st.Prices)}
}

// linkQuoteView is the protocol-visible quote of one source.
type linkQuoteView struct {
	Dist     float64
	Path     []int
	Payments map[int]float64
}
