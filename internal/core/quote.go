package core

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"sort"
	"strconv"

	"truthroute/internal/graph"
	"truthroute/internal/sp"
)

// Engine selects how replacement-path costs are computed.
type Engine int

const (
	// EngineFast is the paper's Algorithm 1 (§III.B): all payments
	// for one source in O((n+m) log n).
	EngineFast Engine = iota
	// EngineNaive re-runs Dijkstra once per relay; the reference the
	// fast engine is verified against.
	EngineNaive
)

// engineNames spells each Engine the way -engine flags name it.
var engineNames = [...]string{EngineFast: "fast", EngineNaive: "naive"}

// ParseEngine returns the Engine named name, "fast" or "naive": the
// one parser behind every -engine flag.
func ParseEngine(name string) (Engine, error) {
	for e, n := range engineNames {
		if n == name {
			return Engine(e), nil
		}
	}
	return 0, fmt.Errorf("unknown engine %q: want fast or naive", name)
}

// ErrNoPath is returned when the target is unreachable from the
// source under the declared costs.
var ErrNoPath = errors.New("core: no path from source to target")

// Quote is the mechanism's output for one unicast request: the least
// cost path and the payment owed to every compensated node.
type Quote struct {
	Source, Target int
	// Path is the least cost path, inclusive of both endpoints.
	Path []int
	// Cost is ||P(source, target, d)||, the sum of declared relay
	// costs of the path's interior nodes.
	Cost float64
	// Payments maps node id → payment. Nodes absent from the map are
	// paid zero. Under the plain VCG scheme only interior path nodes
	// appear; under the collusion-resistant p̃ scheme an off-path
	// node with a neighbour on the path may also receive a positive
	// payment (§III.E).
	Payments map[int]float64
}

// initPayments allocates the payments map on a Quote's first use. It
// is outlined from QuoteInto with //go:noinline so the one-time map
// allocation stays out of the hot path's escape-analysis profile: a
// recycled Quote takes the clear() branch instead and never comes
// here.
//
//go:noinline
func (q *Quote) initPayments(n int) {
	q.Payments = make(map[int]float64, n)
}

// Total returns the source's total payment Σ_k p_i^k, accumulated in
// increasing node-id order. Float addition is not associative, so a
// map-order sum would differ run to run (and between a shard-local
// quote and its full-graph reference); the fixed order keeps every
// replica — including the serving daemon's remapped quotes —
// bit-identical.
func (q *Quote) Total() float64 {
	ids := make([]int, 0, len(q.Payments))
	for k := range q.Payments {
		ids = append(ids, k)
	}
	sort.Ints(ids)
	t := 0.0
	for _, k := range ids {
		t += q.Payments[k]
	}
	return t
}

// Relays returns the interior nodes of the path in path order.
func (q *Quote) Relays() []int {
	if len(q.Path) <= 2 {
		return nil
	}
	return q.Path[1 : len(q.Path)-1]
}

// Monopolists returns, in increasing id order, the nodes whose
// payment is +Inf: removing them (or their collusion set) disconnects
// the source from the target, so VCG cannot bound their price. The
// paper's biconnectivity assumption makes this empty.
func (q *Quote) Monopolists() []int {
	var out []int
	for k, p := range q.Payments {
		if math.IsInf(p, 1) {
			out = append(out, k)
		}
	}
	sort.Ints(out)
	return out
}

// OverpaymentRatio returns Total()/Cost, the per-source metric behind
// the paper's IOR/TOR study (§III.G), or +Inf when a monopolist is
// present, or NaN when the path has no relays (Cost == 0; the paper's
// ratios are only aggregated over sources with at least one relay).
func (q *Quote) OverpaymentRatio() float64 {
	if q.Cost == 0 {
		return math.NaN()
	}
	return q.Total() / q.Cost
}

func (q *Quote) String() string {
	return fmt.Sprintf("Quote{%d->%d path=%v cost=%g total=%g}",
		q.Source, q.Target, q.Path, q.Cost, q.Total())
}

// UnicastQuote runs the §III.A mechanism on declared costs: it
// computes the least cost path from s to t and the VCG payment
//
//	p^k = ||P_-vk(s,t,d)|| − ||P(s,t,d)|| + d_k
//
// for every relay v_k on it. ErrNoPath is returned when t is
// unreachable. The engine chooses the replacement-path algorithm;
// both produce identical payments (see fast_test.go), differing only
// in running time. The call runs on the shared package Solver, so
// repeated quotes reuse warm workspaces; callers issuing many quotes
// and wanting zero steady-state allocations should hold their own
// Solver and use QuoteInto.
func UnicastQuote(g *graph.NodeGraph, s, t int, engine Engine) (*Quote, error) {
	return defaultSolver.Quote(g, s, t, engine)
}

// SetQuote runs the generalized collusion-resistant mechanism
// (§III.E): the output is still the least cost path, but relay v_k is
// paid against the least cost path avoiding its entire collusion set
// Q(v_k) (which must contain v_k itself):
//
//	p̃^k = ||P_-Q(vk)(s,t,d)|| − ||P(s,t,d)|| + x_k·d_k
//
// Every node whose set intersects the path may receive a positive
// payment, including nodes that relay nothing (x_k = 0); for them
// the d_k term is dropped, since their valuation is 0 and the VCG
// form Σ_{j≠k} w^j + h^k(d^{-Q(k)}) yields exactly the difference of
// the two path costs. avoid(k) returns Q(v_k); s and t are never
// removed.
func SetQuote(g *graph.NodeGraph, s, t int, avoid func(k int) []int) (*Quote, error) {
	if s == t {
		return nil, fmt.Errorf("core: source and target are both %d", s)
	}
	path, cost := leastCostPath(g, s, t)
	if path == nil {
		return nil, ErrNoPath
	}
	q := &Quote{Source: s, Target: t, Path: path, Cost: cost, Payments: make(map[int]float64)}

	onPath := make([]bool, g.N())
	for _, v := range path {
		onPath[v] = true
	}
	banned := make([]bool, g.N())
	for k := 0; k < g.N(); k++ {
		if k == s || k == t {
			continue
		}
		set := avoid(k)
		// Only nodes whose set touches the path can be owed anything:
		// removing a set disjoint from P leaves P optimal.
		touches := false
		for _, v := range set {
			if onPath[v] && v != s && v != t {
				touches = true
				break
			}
		}
		if !touches {
			continue
		}
		for _, v := range set {
			if v != s && v != t {
				banned[v] = true
			}
		}
		avoidCost := sp.NodeDijkstra(g, s, banned).Dist[t]
		for _, v := range set {
			if v != s && v != t {
				banned[v] = false
			}
		}
		pay := avoidCost - cost
		if onPath[k] {
			pay += g.Cost(k)
		}
		if pay != 0 {
			q.Payments[k] = pay
		}
	}
	return q, nil
}

// leastCostPath returns s's least cost path toward t and its cost,
// or nil when t is unreachable, under Solver.QuoteIntoToward's tie
// rule: on exact costs s's chain of next hops in the tree rooted at
// t, otherwise s's tree path in its own source tree.
func leastCostPath(g *graph.NodeGraph, s, t int) ([]int, float64) {
	if _, exact := g.CostQuantum(); exact {
		tree := sp.NodeDijkstra(g, t, nil)
		return tree.RootPathInto(s, nil), tree.Dist[s]
	}
	tree := sp.NodeDijkstra(g, s, nil)
	return tree.PathTo(t), tree.Dist[t]
}

// NeighborhoodQuote runs the §III.E payment p̃ with Q(v_k) = the
// closed neighbourhood N(v_k): no node can profit by colluding with
// any single neighbour (Theorem 8). Requires G \ N(v_k) to keep s
// and t connected for all v_k (otherwise the offender's payment is
// +Inf and shows up in Monopolists).
func NeighborhoodQuote(g *graph.NodeGraph, s, t int) (*Quote, error) {
	return SetQuote(g, s, t, func(k int) []int {
		return append([]int{k}, g.Neighbors(k)...)
	})
}

// MarshalJSON implements json.Marshaler for tooling output; the
// payments map keeps integer node ids as JSON object keys and the
// total is included for convenience. +Inf payments (monopolists)
// are rendered as the string "inf".
func (q *Quote) MarshalJSON() ([]byte, error) {
	payments := make(map[string]any, len(q.Payments))
	for k, p := range q.Payments {
		payments[strconv.Itoa(k)] = jsonFloat(p)
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

// jsonFloat renders a payment or total for tooling output: +Inf, the
// price of a monopoly, becomes the string "inf", which encoding/json
// cannot write as a number.
func jsonFloat(x float64) any {
	if math.IsInf(x, 1) {
		return "inf"
	}
	return x
}
