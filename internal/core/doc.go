// Package core implements the paper's primary contribution: the
// strategyproof VCG pricing mechanism for unicast in selfish wireless
// networks (Wang & Li, IPPS 2004).
//
// Given a graph whose nodes (or, in the §III.F model, whose
// node-owned out-links) carry declared relay costs, the mechanism
// outputs the least cost path P(v_i, v_0, d) from a source to the
// access point together with a payment to every relay node:
//
//	p_i^k(d) = ||P_-vk(v_i, v_0, d)|| − ||P(v_i, v_0, d)|| + d_k
//
// i.e. declared cost plus the marginal harm the network suffers if
// v_k disappears. Because the scheme is a VCG mechanism, declaring
// the true cost is a dominant strategy for every node (incentive
// compatibility) and every relay's utility is non-negative
// (individual rationality). internal/mechanism provides an empirical
// verifier for both properties.
//
// Three payment families are provided:
//
//   - UnicastQuote: the plain VCG payment above (§III.A), with a
//     choice of replacement-path engines — the naive
//     one-Dijkstra-per-relay baseline or the paper's fast Algorithm 1
//     (§III.B), which computes all replacement costs in
//     O((n+m) log n) via node levels on the shortest path tree.
//   - NeighborhoodQuote / SetQuote: the collusion-resistant payment
//     p̃ (§III.E) that removes a relay's whole neighbourhood (or an
//     arbitrary collusion set Q(v_k)), making it unprofitable for a
//     node to collude with any neighbour.
//   - LinkQuote: the §III.F model in which each node's private type
//     is the vector of its per-out-link power costs and payments
//     carry the Δ_{i,k} improvement term.
//
// Assumptions inherited from the paper: relay costs are
// non-negative. The fast engine needs nothing more: zero-cost relays
// and tied paths are covered by the argument in fast.go and tested
// bit for bit against the naive engine. When removing a relay (or its
// neighbourhood) disconnects source from target, the relay holds a
// monopoly and its payment is +Inf; the paper excludes this by
// assuming biconnectivity, and Quote.Monopolists reports any
// offenders instead of failing.
package core
