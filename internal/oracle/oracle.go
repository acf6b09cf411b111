// Package oracle is the repository's differential-testing backbone:
// it runs every payment engine — the fast §III.B replacement-path
// algorithm, the naive per-relay recomputation, the §III.E set-based
// p̃ mechanism, the §III.F link-weighted model (via a node→link
// embedding), the §II.D edge-agent model (via edge subdivision), the
// §III.C batch recurrence, and the distributed
// Algorithm 2 (optionally under a seeded fault plan) — over one
// topology and cross-checks their outputs against each other, against
// a brute-force path enumeration on small instances, and against the
// mechanism-design invariants the paper proves: individual
// rationality, unilateral-deviation truthfulness, and the metamorphic
// laws (linear payment scaling, relabeling invariance, competitor
// monotonicity).
//
// The package is consumed three ways: per-package tests call
// CheckInstance directly, oracle_fuzz_test.go feeds it byte-string
// encoded topologies, and the `unicast-sim -figure
// oracle` soak campaign (soak.go, internal/experiment) sweeps it over
// hundreds of random topologies with per-invariant violation
// counters and minimized counterexample dumps.
package oracle

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sort"

	"truthroute/internal/core"
	"truthroute/internal/dist"
	"truthroute/internal/graph"
	"truthroute/internal/mechanism"
	"truthroute/internal/sp"
)

// Options selects which invariants CheckInstance verifies and how
// expensive it is allowed to be. The zero value runs the centralized
// engine-agreement, individual-rationality, well-formedness and
// brute-force checks with the paper's 1e-9 tolerance.
type Options struct {
	// Tol is the relative agreement tolerance (default 1e-9). Two
	// values agree when |a−b| ≤ Tol·max(1,|a|,|b|), or both are +Inf
	// (monopolists price at infinity in every engine).
	Tol float64
	// MaxSources caps how many sources are checked (0 = all), picked
	// by a deterministic stride so coverage is spread over the graph.
	MaxSources int
	// Truthfulness runs mechanism.VerifyStrategyproof per source on
	// instances with at most TruthfulnessMaxN (default 16) nodes.
	Truthfulness     bool
	TruthfulnessMaxN int
	// Metamorphic runs the scaling / relabeling / competitor-
	// monotonicity laws.
	Metamorphic bool
	// Distributed runs Algorithm 2 on connected instances and checks
	// its converged prices against the batch engine; Faults, when
	// non-nil, injects the plan (loss, duplication, crashes) under
	// the ARQ layer first. MaxRounds 0 means the generous default
	// 600·n + 20000 the loss campaign uses.
	Distributed bool
	Faults      *dist.FaultPlan
	MaxRounds   int
	// BruteMaxN bounds the exhaustive path-enumeration reference
	// (default 9; set negative to disable).
	BruteMaxN int
	// Seed drives the deterministic choices (relabeling permutation).
	Seed uint64
}

func (o Options) withDefaults() Options {
	if o.Tol == 0 {
		o.Tol = 1e-9
	}
	if o.TruthfulnessMaxN == 0 {
		o.TruthfulnessMaxN = 16
	}
	if o.BruteMaxN == 0 {
		o.BruteMaxN = 9
	}
	return o
}

// Violation is one failed invariant. Node is -1 when the violation is
// not specific to a node.
type Violation struct {
	Check        string
	Source, Dest int
	Node         int
	Detail       string
}

func (v Violation) String() string {
	return fmt.Sprintf("[%s] %d->%d node %d: %s", v.Check, v.Source, v.Dest, v.Node, v.Detail)
}

// Result aggregates one or more CheckInstance runs: how many
// assertions ran per invariant, what was skipped and why, and every
// violation found.
type Result struct {
	Checks     map[string]int
	Skips      map[string]int
	Violations []Violation
}

func newResult() *Result {
	return &Result{Checks: map[string]int{}, Skips: map[string]int{}}
}

func (r *Result) check(name string)  { r.Checks[name]++ }
func (r *Result) skipped(why string) { r.Skips[why]++ }
func (r *Result) ok() bool           { return len(r.Violations) == 0 }
func (r *Result) violate(check string, s, t, node int, format string, args ...any) {
	r.Violations = append(r.Violations, Violation{
		Check: check, Source: s, Dest: t, Node: node, Detail: fmt.Sprintf(format, args...)})
}

// Merge folds other into r.
func (r *Result) Merge(other *Result) {
	for k, v := range other.Checks {
		r.Checks[k] += v
	}
	for k, v := range other.Skips {
		r.Skips[k] += v
	}
	r.Violations = append(r.Violations, other.Violations...)
}

// OK reports whether no invariant was violated.
func (r *Result) OK() bool { return r.ok() }

// CheckNames returns the names of the checks that ran, sorted.
func (r *Result) CheckNames() []string {
	names := make([]string, 0, len(r.Checks))
	for k := range r.Checks {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

// agree is the Inf-aware relative comparison every engine pair is
// held to: monopolists must price at +Inf in both, finite values must
// match within tol relative to their magnitude.
func agree(a, b, tol float64) bool {
	if math.IsInf(a, 1) || math.IsInf(b, 1) {
		return math.IsInf(a, 1) && math.IsInf(b, 1)
	}
	return math.Abs(a-b) <= tol*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

// atLeast is the Inf-aware one-sided comparison: a ≥ b up to slack.
func atLeast(a, b, tol float64) bool {
	if math.IsInf(a, 1) {
		return true
	}
	if math.IsInf(b, 1) {
		return false
	}
	return a >= b-tol*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

// paymentsAgree compares two payment maps treating absent entries as
// zero (SetQuote omits zero payments; the naive engine records every
// relay). It returns the first disagreeing node, or -1.
func paymentsAgree(a, b map[int]float64, tol float64) (int, bool) {
	keys := map[int]bool{}
	for k := range a {
		keys[k] = true
	}
	for k := range b {
		keys[k] = true
	}
	ids := make([]int, 0, len(keys))
	for k := range keys {
		ids = append(ids, k)
	}
	sort.Ints(ids)
	for _, k := range ids {
		if !agree(a[k], b[k], tol) {
			return k, false
		}
	}
	return -1, true
}

func samePath(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// LinkEmbed maps a node-weighted graph onto the §III.F link model:
// each undirected edge {u,v} becomes arcs u→v with weight c_u and v→u
// with weight c_v — the transmitting tail pays its node cost. Every
// s→t link path then costs exactly c_s more than the node-model
// ||P(s,t,d)|| (the constant source term), so the two models pick the
// same least cost paths, and because silencing node k's out-links is
// precisely removing k from the node graph, the link payments
//
//	p^k = d_{k,next} + ||P(s,t,d|^k ∞)|| − ||P(s,t,d)||
//
// collapse to the node payments c_k + ||P_-k|| − ||P|| identically.
// This turns the link-weighted engine into one more member of the
// exact-agreement family.
func LinkEmbed(g *graph.NodeGraph) *graph.LinkGraph {
	lg := graph.NewLinkGraph(g.N())
	for _, e := range g.Edges() {
		u, v := e[0], e[1]
		lg.AddArc(u, v, g.Cost(u))
		lg.AddArc(v, u, g.Cost(v))
	}
	return lg
}

// edgeInstance is the §II.D edge-agent view of a node-weighted
// instance. Edge i = {u,v} of g becomes an agent of weight c_u + c_v,
// which stays on the costs' quantum. sub subdivides edge i into node
// n+i of that cost and gives g's own nodes cost 0, so node-model VCG
// on sub pays node n+i exactly the edge payment
//
//	p^e = D_{G−e}(s,t) − (D_G(s,t) − w_e),
//
// and the naive node engine on sub is a reference for
// core.EdgeVCGQuote. g's own nodes are not agents; their payments on
// sub are ignored.
type edgeInstance struct {
	ew  *graph.EdgeWeighted
	sub *graph.NodeGraph
	// exact: sub's costs negotiate a fixed-point quantum, so every
	// sum is exact and payments must agree bit for bit.
	exact bool
}

func subdivide(g *graph.NodeGraph) edgeInstance {
	n, edges := g.N(), g.Edges()
	ew := graph.NewEdgeWeighted(n)
	sub := graph.NewNodeGraph(n + len(edges))
	for i, e := range edges {
		u, v := e[0], e[1]
		w := g.Cost(u) + g.Cost(v)
		ew.AddEdge(u, v, w)
		sub.SetCost(n+i, w)
		sub.AddEdge(u, n+i)
		sub.AddEdge(n+i, v)
	}
	_, exact := sub.CostQuantum()
	return edgeInstance{ew: ew, sub: sub, exact: exact}
}

// checkEdge holds both edge-agent engines' quotes for (s,t) to the
// naive node quote on the subdivision: the same cost, and on the same
// path the same payment per edge, bitwise when the instance is exact
// and at tol otherwise. A different path of the same cost is a tie
// and skipped under its own note: on exact costs the node engines
// route along the destination tree, the edge engine along the source
// tree.
func checkEdge(res *Result, in edgeInstance, s, t int, tol float64) {
	const check = "engine-edge"
	ref, rerr := core.UnicastQuote(in.sub, s, t, core.EngineNaive)
	same := func(a, b float64) bool {
		if in.exact {
			return math.Float64bits(a) == math.Float64bits(b)
		}
		return agree(a, b, tol)
	}
	for _, e := range []core.Engine{core.EngineFast, core.EngineNaive} {
		res.check(check)
		q, err := core.EdgeVCGQuote(in.ew, s, t, e)
		if err != nil || rerr != nil {
			if (err == nil) != (rerr == nil) {
				res.violate(check, s, t, -1, "edge engine %d: error %v, subdivided reference error %v", e, err, rerr)
			}
			continue
		}
		if !same(q.Cost, ref.Cost) {
			res.violate(check, s, t, -1, "edge engine %d: cost %g, subdivided %g", e, q.Cost, ref.Cost)
			continue
		}
		// ref.Path alternates g's nodes and edge nodes: s, e_1, v_1, …
		onG := make([]int, 0, len(q.Path))
		for j := 0; j < len(ref.Path); j += 2 {
			onG = append(onG, ref.Path[j])
		}
		if !samePath(onG, q.Path) {
			res.skipped("edge-tie")
			continue
		}
		for j := 1; j < len(q.Path); j++ {
			u, v := q.Path[j-1], q.Path[j]
			got, want := q.Payments[[2]int{min(u, v), max(u, v)}], ref.Payments[ref.Path[2*j-1]]
			if !same(got, want) {
				res.violate(check, s, t, -1, "edge engine %d: edge {%d,%d} paid %g, subdivided %g", e, u, v, got, want)
				break
			}
		}
	}
}

// compareQuote checks one engine's quote for (s,t) against the naive
// reference. costShift is added to the reference cost before
// comparison (the link embedding reports c_s + ||P||). A different
// path with the same cost is a tie, not a bug: byte-derived and
// quantized costs legitimately admit multiple least cost paths and
// the engines are free to disagree on which one they output; payment
// comparison is skipped for that pair since payments attach to the
// chosen path's relays.
func compareQuote(r *Result, check string, ref, got *core.Quote, costShift, tol float64) {
	r.check(check)
	if !agree(ref.Cost+costShift, got.Cost, tol) {
		r.violate(check, ref.Source, ref.Target, -1,
			"cost %g (ref %g%+g)", got.Cost, ref.Cost, costShift)
		return
	}
	if !samePath(ref.Path, got.Path) {
		r.skipped("tie")
		return
	}
	if k, ok := paymentsAgree(ref.Payments, got.Payments, tol); !ok {
		r.violate(check, ref.Source, ref.Target, k,
			"payment %g, ref %g", got.Payments[k], ref.Payments[k])
	}
}

// exactQuote holds an engine to BITWISE agreement with the naive
// reference: identical path, identical cost bits, identical payment
// bits. The bucket frontier earns this stricter bar because its
// relaxation schedule provably reproduces the binary-heap Dijkstra
// tree entry for entry (see the determinism argument in
// pq/bucket.go), so any drift, even one ulp or a differently broken
// tie, is a bug, not a tie. The batch and fast engines earn it on
// quantized costs: there every sum is exact, so their payments cannot
// depend on summation order, and every node-model engine routes along
// the same destination tree, so a different path is a bug too.
func exactQuote(r *Result, check string, ref, got *core.Quote) {
	r.check(check)
	if !samePath(ref.Path, got.Path) {
		r.violate(check, ref.Source, ref.Target, -1, "path %v, ref %v", got.Path, ref.Path)
		return
	}
	if math.Float64bits(got.Cost) != math.Float64bits(ref.Cost) {
		r.violate(check, ref.Source, ref.Target, -1,
			"cost %g (bits %x), ref %g (bits %x)",
			got.Cost, math.Float64bits(got.Cost), ref.Cost, math.Float64bits(ref.Cost))
		return
	}
	if len(got.Payments) != len(ref.Payments) {
		r.violate(check, ref.Source, ref.Target, -1,
			"%d payment entries, ref has %d", len(got.Payments), len(ref.Payments))
		return
	}
	for k, p := range ref.Payments {
		gp, ok := got.Payments[k]
		if !ok || math.Float64bits(gp) != math.Float64bits(p) {
			r.violate(check, ref.Source, ref.Target, k,
				"payment %g, ref %g (bitwise comparison)", gp, p)
			return
		}
	}
}

// CheckInstance runs every enabled invariant over one topology with
// destination dest and returns the aggregated result. It never
// panics on well-formed graphs: unreachable sources, disconnected
// components, zero-cost relays and monopolists are legitimate inputs
// that surface as skip counters or +Inf payments, not errors.
func CheckInstance(g *graph.NodeGraph, dest int, opt Options) *Result {
	opt = opt.withDefaults()
	res := newResult()
	n := g.N()
	if n < 2 || dest < 0 || dest >= n {
		res.skipped("degenerate")
		return res
	}

	batch := core.AllUnicastQuotes(g, dest)
	lg := LinkEmbed(g)
	edge := subdivide(g)
	allLink := core.AllLinkQuotes(lg, dest)

	// When the cost vector admits a fixed-point quantum, every sum is
	// exact and every engine follows the destination tree, so the
	// batch and fast quotes are held to bitwise agreement, path
	// included (see exactQuote). The default solver's auto policy then
	// also runs Dijkstra on the monotone bucket queue; a solver pinned
	// to the binary heap differentially verifies that the two frontiers
	// break every tie identically.
	_, quantOK := g.CostQuantum()
	var binSv *core.Solver
	if quantOK {
		binSv = core.NewSolver(core.WithFrontier(sp.FrontierBinary))
	}

	var scaled *graph.NodeGraph
	var perm []int
	var permuted *graph.NodeGraph
	const lambda = 3.0
	if opt.Metamorphic {
		costs := g.Costs()
		for i := range costs {
			costs[i] *= lambda
		}
		scaled = g.WithCosts(costs)
		rng := rand.New(rand.NewPCG(opt.Seed, 0x9e3779b97f4a7c15))
		perm = rng.Perm(n)
		permuted = graph.NewNodeGraph(n)
		for v := 0; v < n; v++ {
			permuted.SetCost(perm[v], g.Cost(v))
		}
		for _, e := range g.Edges() {
			permuted.AddEdge(perm[e[0]], perm[e[1]])
		}
	}

	for _, s := range pickSources(n, dest, opt.MaxSources) {
		checkEdge(res, edge, s, dest, opt.Tol)
		naive, err := core.UnicastQuote(g, s, dest, core.EngineNaive)
		if err != nil {
			// Unreachable: every other engine must agree there is no
			// path (the link embedding preserves connectivity).
			res.check("engine-batch")
			if batch[s] != nil {
				res.violate("engine-batch", s, dest, -1, "batch found a path where naive found none")
			}
			res.check("engine-link")
			if allLink[s] != nil {
				res.violate("engine-link", s, dest, -1, "link engine found a path where naive found none")
			}
			res.skipped("unreachable")
			continue
		}
		checkWellFormed(res, g, naive, opt.Tol)
		checkIndividualRationality(res, g, naive, opt.Tol)

		switch fast, ferr := core.UnicastQuote(g, s, dest, core.EngineFast); {
		case ferr != nil:
			res.violate("engine-fast", s, dest, -1, "fast engine errored where naive succeeded: %v", ferr)
		case quantOK:
			exactQuote(res, "engine-fast", naive, fast)
		default:
			compareQuote(res, "engine-fast", naive, fast, 0, opt.Tol)
		}
		switch {
		case batch[s] == nil:
			res.violate("engine-batch", s, dest, -1, "batch found no path where naive found one")
		case quantOK:
			exactQuote(res, "engine-batch", naive, batch[s])
		default:
			compareQuote(res, "engine-batch", naive, batch[s], 0, opt.Tol)
		}
		if setQ, serr := core.SetQuote(g, s, dest, func(k int) []int { return []int{k} }); serr != nil {
			res.violate("engine-set", s, dest, -1, "set engine errored: %v", serr)
		} else {
			compareQuote(res, "engine-set", naive, setQ, 0, opt.Tol)
		}
		if linkQ, lerr := core.LinkQuote(lg, s, dest); lerr != nil {
			res.violate("engine-link", s, dest, -1, "link engine errored: %v", lerr)
		} else {
			compareQuote(res, "engine-link", naive, linkQ, g.Cost(s), opt.Tol)
		}
		if allLink[s] == nil {
			res.violate("engine-link", s, dest, -1, "batch link engine found no path")
		} else {
			compareQuote(res, "engine-link-batch", naive, allLink[s], g.Cost(s), opt.Tol)
		}
		if binSv != nil {
			if bq, berr := binSv.Quote(g, s, dest, core.EngineNaive); berr != nil {
				res.violate("engine-frontier", s, dest, -1, "forced-binary solver errored: %v", berr)
			} else {
				exactQuote(res, "engine-frontier", naive, bq)
			}
		}

		checkNeighborhood(res, g, naive, opt)
		if opt.BruteMaxN > 0 && n <= opt.BruteMaxN {
			checkBrute(res, g, naive, opt.Tol)
		}
		if opt.Metamorphic {
			checkScaling(res, scaled, naive, lambda, opt.Tol)
			checkRelabel(res, permuted, perm, naive, opt.Tol)
			checkMonotone(res, g, naive, opt.Tol)
		}
		if opt.Truthfulness && n <= opt.TruthfulnessMaxN {
			checkTruthfulness(res, g, s, dest)
		}
	}

	if opt.Distributed {
		checkDistributed(res, g, lg, dest, batch, allLink, opt)
	}
	return res
}

// pickSources returns the sources to check: all nodes but dest, or a
// deterministic stride-spread sample of max of them.
func pickSources(n, dest, max int) []int {
	all := make([]int, 0, n-1)
	for s := 0; s < n; s++ {
		if s != dest {
			all = append(all, s)
		}
	}
	if max <= 0 || len(all) <= max {
		return all
	}
	out := make([]int, 0, max)
	for i := 0; i < max; i++ {
		out = append(out, all[i*len(all)/max])
	}
	return out
}

// checkWellFormed asserts the structural contract of a plain VCG
// quote: the path really is an s→t walk over existing edges whose
// interior cost matches Cost, and payments go to relays only.
func checkWellFormed(res *Result, g *graph.NodeGraph, q *core.Quote, tol float64) {
	res.check("well-formed")
	s, t := q.Source, q.Target
	if len(q.Path) < 2 || q.Path[0] != s || q.Path[len(q.Path)-1] != t {
		res.violate("well-formed", s, t, -1, "path %v does not join %d to %d", q.Path, s, t)
		return
	}
	pc, err := g.PathCost(q.Path)
	if err != nil {
		res.violate("well-formed", s, t, -1, "path %v invalid: %v", q.Path, err)
		return
	}
	if !agree(pc, q.Cost, tol) {
		res.violate("well-formed", s, t, -1, "declared cost %g but path sums to %g", q.Cost, pc)
	}
	onPath := map[int]bool{}
	for _, k := range q.Relays() {
		onPath[k] = true
	}
	for k, p := range q.Payments {
		if !onPath[k] {
			res.violate("well-formed", s, t, k, "payment %g to a non-relay", p)
		}
		if math.IsNaN(p) || p < -tol {
			res.violate("well-formed", s, t, k, "payment %g is negative or NaN", p)
		}
	}
}

// checkIndividualRationality asserts the paper's IR guarantee: each
// relay on the LCP is paid at least its declared cost (Corollary of
// the VCG form: the replacement path is never cheaper than the LCP),
// and nodes off the path are paid exactly zero.
func checkIndividualRationality(res *Result, g *graph.NodeGraph, q *core.Quote, tol float64) {
	res.check("individual-rationality")
	for _, k := range q.Relays() {
		if !atLeast(q.Payments[k], g.Cost(k), tol) {
			res.violate("individual-rationality", q.Source, q.Target, k,
				"payment %g below declared cost %g", q.Payments[k], g.Cost(k))
		}
	}
}

// checkNeighborhood asserts p̃ dominance (Theorem 8's mechanism pays
// every relay at least the plain VCG price: avoiding a superset can
// only cost more) and, on brute-checkable instances, recomputes every
// node's set payment by exhaustive enumeration.
func checkNeighborhood(res *Result, g *graph.NodeGraph, naive *core.Quote, opt Options) {
	s, t := naive.Source, naive.Target
	nq, err := core.NeighborhoodQuote(g, s, t)
	if err != nil {
		res.violate("neighborhood-dominance", s, t, -1, "neighborhood engine errored: %v", err)
		return
	}
	res.check("neighborhood-dominance")
	if !samePath(naive.Path, nq.Path) {
		res.violate("neighborhood-dominance", s, t, -1,
			"p̃ path %v differs from VCG path %v under identical tie-breaking", nq.Path, naive.Path)
		return
	}
	for _, k := range naive.Relays() {
		if !atLeast(nq.Payments[k], naive.Payments[k], opt.Tol) {
			res.violate("neighborhood-dominance", s, t, k,
				"p̃ %g below plain VCG %g", nq.Payments[k], naive.Payments[k])
		}
	}
	if opt.BruteMaxN > 0 && g.N() <= opt.BruteMaxN {
		res.check("neighborhood-brute")
		for k := 0; k < g.N(); k++ {
			if k == s || k == t {
				continue
			}
			set := append([]int{k}, g.Neighbors(k)...)
			want := bruteSetPayment(g, s, t, naive.Path, k, set)
			if !agree(nq.Payments[k], want, opt.Tol) {
				res.violate("neighborhood-brute", s, t, k,
					"p̃ %g, brute-force reference %g", nq.Payments[k], want)
			}
		}
	}
}

// checkBrute recomputes the LCP cost and every relay payment by
// exhaustive simple-path enumeration — an engine that shares no code
// with any Dijkstra-based computation.
func checkBrute(res *Result, g *graph.NodeGraph, naive *core.Quote, tol float64) {
	res.check("brute-reference")
	s, t := naive.Source, naive.Target
	if bc := brutePathCost(g, s, t, nil); !agree(bc, naive.Cost, tol) {
		res.violate("brute-reference", s, t, -1, "LCP cost %g, brute-force %g", naive.Cost, bc)
		return
	}
	want := bruteVCGPayments(g, s, t, naive.Path)
	if k, ok := paymentsAgree(naive.Payments, want, tol); !ok {
		res.violate("brute-reference", s, t, k,
			"payment %g, brute-force reference %g", naive.Payments[k], want[k])
	}
}

// checkScaling asserts the metamorphic law p(λ·d) = λ·p(d): VCG
// payments are differences of path costs plus the declared cost, all
// linear in the cost vector, so scaling every declaration scales
// every payment.
func checkScaling(res *Result, scaled *graph.NodeGraph, naive *core.Quote, lambda, tol float64) {
	s, t := naive.Source, naive.Target
	q, err := core.UnicastQuote(scaled, s, t, core.EngineNaive)
	if err != nil {
		res.violate("meta-scaling", s, t, -1, "scaled instance lost the path: %v", err)
		return
	}
	res.check("meta-scaling")
	if !agree(q.Cost, lambda*naive.Cost, tol) {
		res.violate("meta-scaling", s, t, -1, "cost %g, want %g·%g", q.Cost, lambda, naive.Cost)
		return
	}
	if !samePath(naive.Path, q.Path) {
		// Scaling preserves exact ties but float rounding can flip
		// near-ties between equal cost paths; the cost check above
		// already passed, so this is tie ambiguity.
		res.skipped("tie")
		return
	}
	want := make(map[int]float64, len(naive.Payments))
	for k, p := range naive.Payments {
		want[k] = lambda * p
	}
	if k, ok := paymentsAgree(q.Payments, want, tol); !ok {
		res.violate("meta-scaling", s, t, k, "payment %g, want %g", q.Payments[k], want[k])
	}
}

// checkRelabel asserts relabeling invariance: the mechanism cannot
// depend on node identities, so applying a permutation π to the
// topology maps the quote for (s,t) to the quote for (π(s),π(t))
// entry by entry.
func checkRelabel(res *Result, permuted *graph.NodeGraph, perm []int, naive *core.Quote, tol float64) {
	s, t := naive.Source, naive.Target
	q, err := core.UnicastQuote(permuted, perm[s], perm[t], core.EngineNaive)
	if err != nil {
		res.violate("meta-relabel", s, t, -1, "relabeled instance lost the path: %v", err)
		return
	}
	res.check("meta-relabel")
	if !agree(q.Cost, naive.Cost, tol) {
		res.violate("meta-relabel", s, t, -1, "cost %g, want %g", q.Cost, naive.Cost)
		return
	}
	mapped := make([]int, len(naive.Path))
	for i, v := range naive.Path {
		mapped[i] = perm[v]
	}
	if !samePath(mapped, q.Path) {
		// Different neighbour iteration order can break ties the
		// other way; equal cost was already established.
		res.skipped("tie")
		return
	}
	want := make(map[int]float64, len(naive.Payments))
	for k, p := range naive.Payments {
		want[perm[k]] = p
	}
	if k, ok := paymentsAgree(q.Payments, want, tol); !ok {
		res.violate("meta-relabel", s, t, k, "payment %g, want %g", q.Payments[k], want[k])
	}
}

// checkMonotone asserts competitor monotonicity: raising the declared
// cost of a node OFF the LCP leaves the path and its cost unchanged
// and can only raise (never lower) the relays' payments, since only
// the replacement paths — which may use the competitor — get more
// expensive.
func checkMonotone(res *Result, g *graph.NodeGraph, naive *core.Quote, tol float64) {
	s, t := naive.Source, naive.Target
	onPath := map[int]bool{}
	for _, v := range naive.Path {
		onPath[v] = true
	}
	w := -1
	for v := 0; v < g.N(); v++ {
		if !onPath[v] {
			w = v
			break
		}
	}
	if w < 0 {
		res.skipped("no-competitor")
		return
	}
	res.check("meta-monotone")
	bumped := g.WithCost(w, 2*g.Cost(w)+1)
	q, err := core.UnicastQuote(bumped, s, t, core.EngineNaive)
	if err != nil {
		res.violate("meta-monotone", s, t, w, "bumping an off-path cost lost the path: %v", err)
		return
	}
	if !agree(q.Cost, naive.Cost, tol) {
		res.violate("meta-monotone", s, t, w, "off-path bump changed LCP cost %g -> %g", naive.Cost, q.Cost)
		return
	}
	if !samePath(naive.Path, q.Path) {
		res.skipped("tie")
		return
	}
	for _, k := range naive.Relays() {
		if !atLeast(q.Payments[k], naive.Payments[k], tol) {
			res.violate("meta-monotone", s, t, k,
				"payment fell %g -> %g when competitor %d's cost rose", naive.Payments[k], q.Payments[k], w)
		}
	}
}

// checkTruthfulness sweeps the systematic unilateral cost deviations
// of mechanism.DeviationGrid over every node and asserts no lie beats
// honesty — the paper's Theorem 2, machine-checked.
func checkTruthfulness(res *Result, g *graph.NodeGraph, s, t int) {
	vs, err := mechanism.VerifyStrategyproof(g, s, t, mechanism.VCG(s, t, core.EngineNaive))
	if err != nil {
		res.violate("truthfulness", s, t, -1, "verifier errored: %v", err)
		return
	}
	res.check("truthfulness")
	for _, v := range vs {
		res.violate("truthfulness", s, t, v.Node,
			"declaring %g instead of %g raises utility %g -> %g",
			v.DeclaredCost, v.TrueCost, v.TruthUtility, v.LieUtility)
	}
}

// checkDistributed runs Algorithm 2 (optionally under a fault plan)
// and holds its converged per-node prices to exact agreement with the
// centralized batch engine; the same protocol over the link embedding
// lg is held to the centralized link quotes allLink.
func checkDistributed(res *Result, g *graph.NodeGraph, lg *graph.LinkGraph, dest int, batch, allLink []*core.Quote, opt Options) {
	if !g.Connected() {
		res.skipped("dist-disconnected")
		return
	}
	name := "distributed"
	if opt.Faults != nil {
		name = "distributed-faulted"
	}
	maxRounds := opt.MaxRounds
	if maxRounds == 0 {
		maxRounds = 600*g.N() + 20000
	}
	checkDistributedLink(res, lg, dest, allLink, maxRounds, opt.Tol)
	net := dist.NewNetwork(g, dest, nil)
	if opt.Faults != nil {
		net.SetFaults(opt.Faults)
	}
	_, _, converged := net.RunProtocol(maxRounds)
	res.check(name)
	if !converged {
		res.violate(name, -1, dest, -1, "protocol did not quiesce within %d rounds", maxRounds)
		return
	}
	if len(net.Log) > 0 {
		res.violate(name, -1, dest, -1, "all-honest run raised %d accusations: %v", len(net.Log), net.Log[0])
	}
	states := net.States()
	for s, q := range batch {
		if s == dest || q == nil {
			continue
		}
		st := states[s]
		checkConverged(res, name, q, st.D, st.Path, st.Prices, g.PathCost, opt.Tol)
	}
}

// checkDistributedLink runs the §III.F link model through Algorithm
// 2 (honest, reliable channels) and holds its converged quotes to the
// centralized link quotes. Both distances include the source's own
// first hop, the c_s term of the link embedding.
func checkDistributedLink(res *Result, lg *graph.LinkGraph, dest int, allLink []*core.Quote, maxRounds int, tol float64) {
	const name = "distributed-link"
	net := dist.NewLinkNetwork(lg, dest)
	res.check(name)
	if net.Run(maxRounds) >= maxRounds {
		res.violate(name, -1, dest, -1, "protocol did not quiesce within %d rounds", maxRounds)
		return
	}
	for s, ref := range allLink {
		if s == dest || ref == nil {
			continue
		}
		q := net.Quote(s)
		if q == nil {
			res.violate(name, s, dest, -1, "no converged route, centralized cost %g", ref.Cost)
			continue
		}
		checkConverged(res, name, ref, q.Dist, q.Path, q.Payments, lg.PathCost, tol)
	}
}

// checkConverged holds one source's converged protocol state to the
// centralized quote ref: the distance, a least cost path (a different
// one of equal cost under pathCost is a tie), and on ref's own path
// every price.
func checkConverged(res *Result, name string, ref *core.Quote, d float64, path []int, prices map[int]float64,
	pathCost func([]int) (float64, error), tol float64) {
	if !agree(d, ref.Cost, tol) {
		res.violate(name, ref.Source, ref.Target, -1, "converged distance %g, centralized %g", d, ref.Cost)
		return
	}
	if !samePath(path, ref.Path) {
		if c, err := pathCost(path); err != nil || !agree(c, ref.Cost, tol) {
			res.violate(name, ref.Source, ref.Target, -1, "converged path %v is not a least cost path", path)
			return
		}
		res.skipped("tie")
		return
	}
	if k, ok := paymentsAgree(prices, ref.Payments, tol); !ok {
		res.violate(name, ref.Source, ref.Target, k,
			"converged price %g, centralized %g", prices[k], ref.Payments[k])
	}
}
