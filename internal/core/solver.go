package core

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"truthroute/internal/graph"
	"truthroute/internal/obs"
	"truthroute/internal/pq"
	"truthroute/internal/sp"
)

// Solver is the amortized steady-state entry point for payment
// computation: it owns a pool of per-worker workspaces (Dijkstra
// state, the fast engine's bush/level scratch, dense replacement-cost
// buffers) so that a warmed quote path performs zero allocations per
// call. One Solver is safe for concurrent use — each call checks a
// workspace out of a sync.Pool and returns it when done — and
// produces output bit-identical to the one-shot UnicastQuote API,
// which itself routes through a package-level Solver.
//
// The regime this serves is the paper's own motivation at server
// scale: many quotes against a slowly-changing network, where the
// O((n+m) log n) heap loop should dominate, not the allocator.
type Solver struct {
	pool sync.Pool
}

// NewSolver returns an empty solver; workspaces are created on demand
// and recycled across calls.
func NewSolver() *Solver { return &Solver{} }

// defaultSolver backs UnicastQuote so every caller shares one warm
// workspace pool.
var defaultSolver = NewSolver()

func (sv *Solver) acquire(n int) *solverSpace {
	w, _ := sv.pool.Get().(*solverSpace)
	if w == nil {
		w = &solverSpace{}
		obsPoolMisses.Inc()
	} else {
		obsPoolHits.Inc()
	}
	w.resize(n)
	return w
}

func (sv *Solver) release(w *solverSpace) { sv.pool.Put(w) }

// Warm pre-populates the pool with k workspaces sized for n-node
// graphs, so a long-lived service (one Solver per topology shard)
// pays workspace construction at startup instead of inside its first
// k concurrent requests. The k acquisitions count as pool misses —
// they are the misses the warm-up is absorbing.
func (sv *Solver) Warm(n, k int) {
	ws := make([]*solverSpace, 0, k)
	for i := 0; i < k; i++ {
		ws = append(ws, sv.acquire(n))
	}
	for _, w := range ws {
		sv.release(w)
	}
}

// Quote computes the §III.A mechanism output for one request,
// allocating a fresh Quote the caller may retain. See QuoteInto for
// the allocation-free variant.
func (sv *Solver) Quote(g *graph.NodeGraph, s, t int, engine Engine) (*Quote, error) {
	q := &Quote{}
	if err := sv.QuoteInto(q, g, s, t, engine); err != nil {
		return nil, err
	}
	return q, nil
}

// errSameEndpoint and errUnknownEngine are the request-path error
// constructors, outlined so their fmt.Errorf allocations stay off
// QuoteInto's zero-alloc body. //go:noinline keeps the compiler from
// folding the allocation back into the caller, where the noalloc gate
// would (correctly) attribute it to QuoteInto's lines.
//
//go:noinline
func errSameEndpoint(s int) error {
	return fmt.Errorf("core: source and target are both %d", s)
}

//go:noinline
func errUnknownEngine(engine Engine) error {
	return fmt.Errorf("core: unknown engine %d", engine)
}

// QuoteInto computes the quote for (s, t) into q, reusing q.Path's
// backing array and q.Payments' buckets. On a warmed workspace and a
// recycled q this performs zero heap allocations (asserted by
// TestSolverSteadyStateAllocs, and statically by the noalloc lint
// gate against the compiler's escape analysis). On error q is left
// unspecified.
//
//lint:noalloc the serving hot path: every allocation here is one per request at 10^5 req/s
func (sv *Solver) QuoteInto(q *Quote, g *graph.NodeGraph, s, t int, engine Engine) error {
	return sv.QuoteIntoToward(q, g, s, t, engine, nil)
}

// DestTable returns the least-cost-path tree rooted at t: Dist[v] =
// dist(v, t), the table Algorithm 1 reads as R(v), and Parent[v] = v's
// next hop toward t, the tree every node-model engine routes along on
// exact costs (see QuoteIntoToward). Order is left nil. It is built
// by the same pooled Dijkstra run QuoteInto makes, so QuoteIntoToward
// with this table is bit-identical to QuoteInto in every cost regime.
// The table depends only on g's costs and t; a caller quoting many
// sources toward one target on one cost vector builds it once and
// shares it (it is never written after return).
func (sv *Solver) DestTable(g *graph.NodeGraph, t int) *sp.Tree {
	w := sv.acquire(g.N())
	defer sv.release(w)
	tree := w.wsT.NodeDijkstra(g, t, nil)
	return &sp.Tree{Src: t, Dist: slices.Clone(tree.Dist), Parent: slices.Clone(tree.Parent)}
}

// QuoteIntoToward is QuoteInto with the destination tree supplied by
// the caller: toward must be DestTable(g, t) on the same cost vector,
// or nil to have it computed here exactly as QuoteInto does.
//
// The path follows one tie rule. When g.CostQuantum negotiates, every
// path sum is exact and the path is s's chain of next hops in the tree
// rooted at t — the tree AllUnicastQuotes builds, parent for parent —
// so both engines and the batch engine agree on path, cost and every
// payment bit for bit. Algorithm 1 runs on that path unchanged even
// where it is not s's path in its own source tree (see
// fastReplacement). On continuous costs the path is s's tree path in
// its own source tree, and only the fast engine reads toward.
//
//lint:noalloc the serving miss path: a quote on a shared destination table must not touch the heap
func (sv *Solver) QuoteIntoToward(q *Quote, g *graph.NodeGraph, s, t int, engine Engine, toward *sp.Tree) error {
	if s == t {
		return errSameEndpoint(s)
	}
	var began time.Time
	if obs.On() {
		//lint:allow determinism wall clock feeds only the obs latency histogram, never mechanism output
		began = time.Now()
	}
	w := sv.acquire(g.N())
	defer sv.release(w)
	var treeS *sp.Tree
	var cost float64
	if _, exact := g.CostQuantum(); exact {
		if toward == nil {
			toward = w.wsT.NodeDijkstra(g, t, nil)
		}
		if !toward.Reachable(s) {
			return ErrNoPath
		}
		w.pathBuf = toward.RootPathInto(s, w.pathBuf)
		cost = toward.Dist[s]
		if engine == EngineFast && len(w.pathBuf) > 2 {
			treeS = w.wsS.NodeDijkstra(g, s, nil)
		}
	} else {
		treeS = w.wsS.NodeDijkstra(g, s, nil)
		if !treeS.Reachable(t) {
			return ErrNoPath
		}
		w.pathBuf = treeS.PathInto(t, w.pathBuf)
		cost = treeS.Dist[t]
		if engine == EngineFast && toward == nil && len(w.pathBuf) > 2 {
			toward = w.wsT.NodeDijkstra(g, t, nil)
		}
	}
	path := w.pathBuf

	switch engine {
	case EngineNaive:
		w.naiveReplacement(g, s, t, path)
	case EngineFast:
		if len(path) > 2 {
			w.fastReplacement(g, s, t, treeS, toward.Dist, path)
		}
	default:
		return errUnknownEngine(engine)
	}

	q.Source, q.Target, q.Cost = s, t, cost
	q.Path = append(q.Path[:0], path...)
	if q.Payments == nil {
		q.initPayments(len(path))
	} else {
		clear(q.Payments)
	}
	for i := 1; i+1 < len(path); i++ {
		k := path[i]
		q.Payments[k] = w.repl[k] - cost + g.Cost(k)
	}
	obsQuotes.Inc()
	if obs.On() {
		//lint:allow determinism wall clock feeds only the obs latency histogram, never mechanism output
		obsQuoteNS.Observe(float64(time.Since(began).Nanoseconds()))
	}
	return nil
}

// solverSpace is one worker's reusable scratch. All arrays are sized
// to the last graph seen and only reallocated when the node count
// changes; per-query state is invalidated either by generation-
// stamped marks (Clear is O(1)) or by rewriting exactly the entries
// the query touches, never by O(n) refills.
type solverSpace struct {
	n        int
	wsS, wsT *sp.Workspace // source-rooted and scratch/target-rooted trees

	// Fast-engine scratch (see fastReplacement in fast.go).
	bushQ                           *pq.Binary
	levelSet, inBush, done          *sp.Marks
	pos, level                      []int32
	rAvoid, cAvoid                  []float64
	bushCount, bushStart, bushNodes []int32
	edges                           []crossEdge
	heap                            crossHeap

	// repl[k] = ||P_-vk(s,t,d)|| for the current query's relays.
	repl []float64
	// banned is all-false between uses (the naive engine sets and
	// clears one entry per relay).
	banned  []bool
	pathBuf []int
}

func (w *solverSpace) resize(n int) {
	if w.n == n && w.wsS != nil {
		return
	}
	w.n = n
	w.wsS, w.wsT = sp.NewWorkspace(n), sp.NewWorkspace(n)
	w.bushQ = pq.NewBinary(n)
	w.levelSet, w.inBush, w.done = sp.NewMarks(n), sp.NewMarks(n), sp.NewMarks(n)
	w.pos, w.level = make([]int32, n), make([]int32, n)
	w.rAvoid, w.cAvoid = make([]float64, n), make([]float64, n)
	w.bushCount, w.bushStart = make([]int32, n+1), make([]int32, n+2)
	w.bushNodes = make([]int32, n)
	w.repl = make([]float64, n)
	w.banned = make([]bool, n)
	w.pathBuf = w.pathBuf[:0]
	w.edges = w.edges[:0]
	w.heap.a = w.heap.a[:0]
}

// naiveReplacement fills w.repl for every interior node of path by
// re-running Dijkstra once per relay — sp.ReplacementCostsNaive on
// workspace state instead of fresh allocations.
func (w *solverSpace) naiveReplacement(g *graph.NodeGraph, s, t int, path []int) {
	for i := 1; i+1 < len(path); i++ {
		k := path[i]
		w.banned[k] = true
		tree := w.wsT.NodeDijkstra(g, s, w.banned)
		w.repl[k] = tree.Dist[t]
		w.banned[k] = false
	}
}
