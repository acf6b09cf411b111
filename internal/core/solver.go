package core

import (
	"fmt"
	"runtime"
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

	// frontier is the Workspace frontier policy applied to every
	// pooled workspace (FrontierAuto unless overridden — the oracle
	// forces FrontierBinary to differentially pin the bucket queue).
	frontier sp.Frontier

	// All-sources delta-stepping configuration: graphs with at least
	// deltaThreshold nodes route AllQuotes through one shared-frontier
	// parallel SSSP engine instead of per-source goroutine fan-out.
	deltaThreshold int
	deltaWorkers   int
	dsMu           sync.Mutex
	ds             *sp.DeltaStepper
}

// DefaultDeltaThreshold is the node count at which AllQuotes switches
// from per-source fan-out to the shared-frontier delta-stepping path.
// Below it, per-source parallelism keeps every core busy with cheap
// independent runs; above it, the per-run memory footprint makes the
// cache-cooperative shared frontier win.
const DefaultDeltaThreshold = 100_000

// SolverOption configures a Solver at construction.
type SolverOption func(*Solver)

// WithFrontier fixes the priority-queue policy of the solver's
// Dijkstra workspaces (see sp.Frontier).
func WithFrontier(f sp.Frontier) SolverOption {
	return func(sv *Solver) { sv.frontier = f }
}

// WithAllSourcesDelta overrides when (threshold, in nodes; 0 keeps
// DefaultDeltaThreshold) and how wide (workers; 0 means GOMAXPROCS)
// the delta-stepping all-sources path engages. Tests and benchmarks
// use a low threshold to exercise the path on small graphs.
func WithAllSourcesDelta(threshold, workers int) SolverOption {
	return func(sv *Solver) {
		sv.deltaThreshold = threshold
		sv.deltaWorkers = workers
	}
}

// NewSolver returns an empty solver; workspaces are created on demand
// and recycled across calls.
func NewSolver(opts ...SolverOption) *Solver {
	sv := &Solver{}
	for _, o := range opts {
		o(sv)
	}
	return sv
}

// defaultSolver backs UnicastQuote and AllUnicastQuotesParallel so
// every caller shares one warm workspace pool.
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
	w.wsS.SetFrontier(sv.frontier)
	w.wsT.SetFrontier(sv.frontier)
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
	treeS := w.wsS.NodeDijkstra(g, s, nil)
	if !treeS.Reachable(t) {
		return ErrNoPath
	}
	w.pathBuf = treeS.PathInto(t, w.pathBuf)
	path := w.pathBuf
	cost := treeS.Dist[t]

	switch engine {
	case EngineNaive:
		w.naiveReplacement(g, s, t, path)
	case EngineFast:
		w.fastReplacement(g, s, t, treeS, path)
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

// AllQuotes computes one quote per source toward dest, fanning the
// sources across GOMAXPROCS workers. Entry dest is nil; sources that
// cannot reach dest get a nil entry, matching AllUnicastQuotes. Each
// source is an independent computation on its own pooled workspace
// writing an index-addressed slot — the same determinism discipline
// experiment.forEach applies to campaign instances — so the result is
// bit-identical to a sequential loop over Quote.
func (sv *Solver) AllQuotes(g *graph.NodeGraph, dest int, engine Engine) ([]*Quote, error) {
	if engine != EngineFast && engine != EngineNaive {
		return nil, errUnknownEngine(engine)
	}
	n := g.N()
	out := make([]*Quote, n)
	if n < 2 || dest < 0 || dest >= n {
		return out, nil
	}
	thr := sv.deltaThreshold
	if thr == 0 {
		thr = DefaultDeltaThreshold
	}
	if n >= thr {
		if dq, ok := sv.allQuotesDelta(g, dest, engine); ok {
			return dq, nil
		}
		// !ok: the cost regime rules delta-stepping out (zero or
		// non-finite relay costs) — fall through to the fan-out path.
	}
	g.CSR() // build the shared topology view once, before the fan-out
	each := func(s int) {
		obsFanPeak.SetMax(obsFanActive.Add(1))
		if q, err := sv.Quote(g, s, dest, engine); err == nil {
			out[s] = q // only ErrNoPath is possible here; its slot stays nil
		}
		obsFanActive.Add(-1)
	}
	workers := runtime.GOMAXPROCS(0)
	if workers > n-1 {
		workers = n - 1
	}
	obsFanWorkers.Set(int64(workers))
	if workers <= 1 {
		for s := 0; s < n; s++ {
			if s != dest {
				each(s)
			}
		}
		return out, nil
	}
	var wg sync.WaitGroup
	work := make(chan int)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for s := range work {
				each(s)
			}
		}()
	}
	for s := 0; s < n; s++ {
		if s != dest {
			work <- s
		}
	}
	close(work)
	wg.Wait()
	return out, nil
}

// AllUnicastQuotesParallel is AllQuotes on the shared package solver:
// the per-source counterpart of the batch engine (batch.go) for
// workloads that want true VCG quotes for every source at once.
func AllUnicastQuotesParallel(g *graph.NodeGraph, dest int, engine Engine) ([]*Quote, error) {
	return defaultSolver.AllQuotes(g, dest, engine)
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
	bushQ                           pq.Queue
	levelSet, inBush, done          *sp.Marks
	pos, level                      []int32
	rAvoid, cAvoid                  []float64
	bushCount, bushStart, bushNodes []int32
	edges                           []crossEdge
	heap                            crossHeap

	// repl[k] = ||P_-vk(s,t,d)|| for the current query's relays.
	repl []float64
	// rShared holds the destination-rooted distance table the
	// all-sources delta path shares across its sources (grown lazily;
	// only that path uses it).
	rShared []float64
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
	w.bushQ = sp.NewQueue(n)
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
