// Package netsim is a packet-level session simulator realizing the
// paper's motivating story (§I): battery-powered nodes relay traffic
// towards the access point, spending energy per forwarded packet.
// Under the Selfish policy nodes refuse to relay (the "student who
// seldom uses the network" argument), under Altruistic they always
// relay, and under Compensated they relay because the VCG mechanism
// pays them at least their cost. The simulator measures what the
// introduction claims: selfishness collapses throughput to the
// one-hop neighbourhood of the access point, while VCG compensation
// restores the altruistic network's delivery rate — with relays
// *earning* rather than burning their batteries.
//
// Energy model: transmitting one packet across an arc costs the
// tail's declared arc weight (the §III.F power cost). The source
// pays its own first hop; each relay spends its forwarding cost and,
// under Compensated, collects its per-packet VCG payment as credit.
// Dead nodes (battery exhausted) drop out of the topology; routes
// are recomputed on demand.
package netsim

import (
	"fmt"
	"math"
	"math/rand/v2"

	"truthroute/internal/core"
	"truthroute/internal/graph"
)

// Policy is a node's forwarding rule.
type Policy int

const (
	// Altruistic nodes always forward (the traditional ad hoc
	// assumption the paper challenges).
	Altruistic Policy = iota
	// Selfish nodes never forward for others: "to extend his
	// lifetime, he might decide to reject all relay requests".
	Selfish
	// Compensated nodes forward exactly when paid at least their
	// cost — always true under the VCG quotes, so the network
	// behaves altruistically while relays profit.
	Compensated
)

func (p Policy) String() string {
	switch p {
	case Altruistic:
		return "altruistic"
	case Selfish:
		return "selfish"
	case Compensated:
		return "compensated"
	}
	return fmt.Sprintf("policy(%d)", int(p))
}

// Sim is one network under one policy.
type Sim struct {
	g      *graph.LinkGraph
	dest   int
	policy Policy

	Battery []float64 // remaining energy per node
	// Relay business bookkeeping (Compensated policy): credits
	// earned for forwarding vs energy spent forwarding. The paper's
	// individual rationality makes EarnedRelay ≥ SpentRelay for
	// truthful relays.
	EarnedRelay []float64
	SpentRelay  []float64
	// Own-traffic bookkeeping: energy spent on first hops of one's
	// own sessions and payments made to relays.
	SpentOwn []float64
	PaidOut  []float64
	alive    []bool

	// Stats.
	Delivered, Blocked int
	FirstDeath         int // session index of the first battery death; -1 if none
	sessions           int

	routesDirty bool
	quotes      []*core.Quote
}

// New builds a simulator over the link graph (weights = per-packet
// transmit energy) with a uniform initial battery.
func New(g *graph.LinkGraph, dest int, policy Policy, battery float64) *Sim {
	s := &Sim{
		g: g, dest: dest, policy: policy,
		Battery:     make([]float64, g.N()),
		EarnedRelay: make([]float64, g.N()),
		SpentRelay:  make([]float64, g.N()),
		SpentOwn:    make([]float64, g.N()),
		PaidOut:     make([]float64, g.N()),
		alive:       make([]bool, g.N()),
		FirstDeath:  -1,
		routesDirty: true,
	}
	for i := range s.Battery {
		s.Battery[i] = battery
		s.alive[i] = true
	}
	return s
}

// Alive reports whether a node still has battery (the access point
// is mains-powered and never dies).
func (s *Sim) Alive(v int) bool { return v == s.dest || s.alive[v] }

// AliveCount returns the number of battery-alive nodes (excluding
// the access point).
func (s *Sim) AliveCount() int {
	n := 0
	for v, a := range s.alive {
		if v != s.dest && a {
			n++
		}
	}
	return n
}

// aliveGraph returns the topology restricted to live nodes.
func (s *Sim) aliveGraph() *graph.LinkGraph {
	ag := graph.NewLinkGraph(s.g.N())
	for u := 0; u < s.g.N(); u++ {
		if !s.Alive(u) {
			continue
		}
		for _, a := range s.g.Out(u) {
			if a.W < graph.Inf && s.Alive(a.To) {
				ag.AddArc(u, a.To, a.W)
			}
		}
	}
	return ag
}

// refreshRoutes recomputes quotes for all sources on the live
// topology.
func (s *Sim) refreshRoutes() {
	if !s.routesDirty {
		return
	}
	s.quotes = core.AllLinkQuotes(s.aliveGraph(), s.dest)
	s.routesDirty = false
}

// route returns the current quote for a source under the policy, or
// nil when the session must be blocked.
func (s *Sim) route(src int) *core.Quote {
	s.refreshRoutes()
	q := s.quotes[src]
	if q == nil || len(q.Path) < 2 {
		return nil
	}
	switch s.policy {
	case Selfish:
		// Relays refuse: only a direct link to the AP works.
		if len(q.Path) != 2 {
			return nil
		}
	case Compensated:
		// Relays forward iff payment covers cost — true whenever the
		// payment is finite (VCG pays ≥ declared cost); a monopoly
		// (infinite price) blocks the session instead.
		if math.IsInf(q.Total(), 1) {
			return nil
		}
	}
	return q
}

// spend deducts packet energy from a transmitter, recording death.
// asRelay separates forwarding work from own-traffic transmission.
func (s *Sim) spend(v int, energy float64, asRelay bool) {
	if v == s.dest {
		return
	}
	s.Battery[v] -= energy
	if asRelay {
		s.SpentRelay[v] += energy
	} else {
		s.SpentOwn[v] += energy
	}
	if s.Battery[v] <= 0 && s.alive[v] {
		s.alive[v] = false
		s.routesDirty = true
		if s.FirstDeath < 0 {
			s.FirstDeath = s.sessions
		}
	}
}

// Session attempts to deliver packets from src to the access point
// and reports whether the session was carried. Energy is spent hop
// by hop; under Compensated every relay's per-packet VCG payment is
// credited to EarnedRelay and debited from the source's PaidOut
// (money and energy are tracked separately; batteries measure energy
// only).
func (s *Sim) Session(src int, packets int) bool {
	if packets <= 0 {
		panic("netsim: non-positive packet count")
	}
	s.sessions++
	if src == s.dest || !s.Alive(src) {
		s.Blocked++
		return false
	}
	q := s.route(src)
	if q == nil {
		s.Blocked++
		return false
	}
	for i := 0; i+1 < len(q.Path); i++ {
		s.spend(q.Path[i], float64(packets)*s.g.Weight(q.Path[i], q.Path[i+1]), i > 0)
	}
	if s.policy == Compensated {
		// Path order, not map order: float addition is not
		// associative, so a map-order fold would move PaidOut's last
		// bits from run to run.
		for _, k := range q.Relays() {
			p := q.Payments[k]
			s.EarnedRelay[k] += p * float64(packets)
			s.PaidOut[src] += p * float64(packets)
		}
	}
	s.Delivered++
	return true
}

// Run draws `sessions` uniform random sources (among the initially
// deployed nodes, dead or alive — a dead node's attempt blocks) and
// returns the delivery rate.
func (s *Sim) Run(sessions, packetsPerSession int, rng *rand.Rand) float64 {
	for i := 0; i < sessions; i++ {
		src := rng.IntN(s.g.N())
		for src == s.dest {
			src = rng.IntN(s.g.N())
		}
		s.Session(src, packetsPerSession)
	}
	return float64(s.Delivered) / float64(s.Delivered+s.Blocked)
}

// NetProfit returns a node's relay-business profit: credit earned
// forwarding minus energy spent forwarding — guaranteed non-negative
// for truthful relays under Compensated (individual rationality).
func (s *Sim) NetProfit(v int) float64 { return s.EarnedRelay[v] - s.SpentRelay[v] }
