package mechanism

import (
	"truthroute/internal/core"
	"truthroute/internal/graph"
)

// VCG returns the paper's plain §III.A mechanism for the unicast
// request s→t as a Mechanism value.
func VCG(s, t int, engine core.Engine) Mechanism {
	return func(declared *graph.NodeGraph) (*core.Quote, error) {
		return core.UnicastQuote(declared, s, t, engine)
	}
}

// NeighborhoodVCG returns the collusion-resistant §III.E mechanism
// p̃ for the request s→t.
func NeighborhoodVCG(s, t int) Mechanism {
	return func(declared *graph.NodeGraph) (*core.Quote, error) {
		return core.NeighborhoodQuote(declared, s, t)
	}
}
