package serve

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"truthroute/internal/core"
	"truthroute/internal/graph"
	"truthroute/internal/obs"
	"truthroute/internal/sp"
)

// CostUpdate is one declared-cost change inside an update batch.
// Node is a global node id; Cost is the node's new declared relay
// cost (finite, non-negative).
type CostUpdate struct {
	Node int     `json:"node"`
	Cost float64 `json:"cost"`
}

// batchReq carries one shard-local update batch to the shard's writer
// goroutine; reply receives the epoch the batch was published as.
type batchReq struct {
	updates []CostUpdate // node ids already remapped to shard-local
	reply   chan uint64
}

// shard serves one connected component of the topology. All reads go
// through an immutable epoch snapshot behind an atomic pointer —
// readers never lock and never observe a half-applied batch — and all
// writes funnel through a single writer goroutine, so epochs are
// strictly monotone and batches are serialized without a mutex on the
// read path. This is the same RCU shape as graph.CSR's atomic-pointer
// cache, lifted from "topology view" to "priced topology + caches".
type shard struct {
	id      int
	globals []int // local id -> global id; strictly increasing
	solver  *core.Solver
	snap    atomic.Pointer[snapshot]
	batches chan batchReq
	done    chan struct{}
}

// snapshot is one immutable epoch: a cost view sharing the shard's
// adjacency and built CSR, plus per-node caches that live exactly as
// long as the epoch is current. Cost drift publishes a new snapshot,
// so every cache is invalidated wholesale by the epoch flip itself —
// there is no per-entry invalidation protocol to get wrong.
type snapshot struct {
	epoch uint64
	g     *graph.NodeGraph
	node  []nodeCache
}

// nodeCache holds one local node's lazily built state for the
// lifetime of a snapshot: the memo of quotes served with the node as
// source, and the table with the node as target. The table is built
// by the first miss toward the node and shared by every later one in
// the epoch, since it depends only on the epoch's costs and the
// target.
type nodeCache struct {
	// memo maps the target, as an int64 key, to the pre-serialized
	// binary KindQuoteResp payload: shard id, epoch, then the quote
	// JSON. The HTTP plane serves payload[binaryQuoteHeadLen:], so
	// both planes serve one allocation per key per epoch and their
	// byte identity holds by construction.
	memo sync.Map
	// all holds every local source's quote toward the node, from
	// one core.AllUnicastQuotes pass. Misses read it on epochs
	// whose costs are exact (graph.CostQuantum negotiates), where the
	// pass equals core.Solver's fast quote bit for bit.
	all atomic.Pointer[[]*core.Quote]
	// toward is the destination tree rooted at the node
	// (core.Solver.DestTable, 16n bytes), whose distances Algorithm 1
	// reads as R(v). Misses read it on continuous-cost epochs.
	toward atomic.Pointer[sp.Tree]
}

func newSnapshot(epoch uint64, g *graph.NodeGraph) *snapshot {
	return &snapshot{epoch: epoch, g: g, node: make([]nodeCache, g.N())}
}

// newShard carves component comp out of g, warms one solver
// workspace per GOMAXPROCS, publishes epoch 1, and starts the single
// writer.
//
//lint:writer newShard publishes epoch 1 before any reader can hold the shard
func newShard(id int, g *graph.NodeGraph, comp []int) *shard {
	sub := g.InducedSubgraph(comp)
	sub.CSR() // built once here; every epoch's cost view shares it
	sh := &shard{
		id:      id,
		globals: comp,
		solver:  core.NewSolver(),
		batches: make(chan batchReq),
		done:    make(chan struct{}),
	}
	sh.solver.Warm(sub.N(), runtime.GOMAXPROCS(0))
	sh.snap.Store(newSnapshot(1, sub))
	go sh.writer()
	return sh
}

// writer is the shard's only mutator. Each batch is applied to a copy
// of the current cost vector and published as one atomic pointer
// store: a reader that loaded the old snapshot keeps computing on it
// undisturbed, a reader that loads after the store sees every update
// in the batch. The graph view shares adjacency and CSR with its
// predecessor — an epoch flip re-prices, it never re-extracts
// topology.
//
//lint:writer the single writer goroutine is the only epoch publisher after startup
func (sh *shard) writer() {
	defer close(sh.done)
	for req := range sh.batches {
		cur := sh.snap.Load()
		costs := cur.g.Costs()
		for _, u := range req.updates {
			costs[u.Node] = u.Cost
		}
		next := newSnapshot(cur.epoch+1, cur.g.WithCosts(costs))
		sh.snap.Store(next)
		obsBatches.Inc()
		obsUpdatesApplied.Add(uint64(len(req.updates)))
		obsEpochMax.SetMax(int64(next.epoch))
		req.reply <- next.epoch
	}
}

// apply submits one validated shard-local batch and blocks until its
// epoch is published.
func (sh *shard) apply(updates []CostUpdate) uint64 {
	reply := make(chan uint64, 1)
	sh.batches <- batchReq{updates: updates, reply: reply}
	return <-reply
}

// stop shuts the writer down after all in-flight batches have been
// published. The server drains admitted requests first, so no apply
// can race the close.
func (sh *shard) stop() {
	close(sh.batches)
	<-sh.done
}

// table returns the table behind p, building and publishing it on
// first use. Concurrent builders race benignly: both run the same
// deterministic computation on the same epoch and the losing
// CompareAndSwap discards its copy, mirroring graph.CSR's build race.
//
//lint:writer racing builders compute the same deterministic table; the CAS loser discards its copy unpublished
func table[T any](p *atomic.Pointer[T], build func() *T) *T {
	if v := p.Load(); v != nil {
		return v
	}
	//lint:allow determinism wall clock feeds only the obs build-time histogram, never quote output
	began := time.Now()
	v := build()
	obsDestTables.Inc()
	//lint:allow determinism wall clock feeds only the obs build-time histogram, never quote output
	obsDestTableNS.Observe(float64(time.Since(began).Nanoseconds()))
	if p.CompareAndSwap(nil, v) {
		return v
	}
	return p.Load()
}

// localQuote computes the shard-local quote for (ls, lt) on snap. On
// exact costs it is ls's entry of the epoch's all-sources table toward
// lt; on continuous costs it is one fast-engine QuoteIntoToward run on
// the epoch's destination tree toward lt.
func (sh *shard) localQuote(snap *snapshot, ls, lt int) (*core.Quote, error) {
	nc := &snap.node[lt]
	if _, exact := snap.g.CostQuantum(); exact {
		all := table(&nc.all, func() *[]*core.Quote {
			all := core.AllUnicastQuotes(snap.g, lt)
			return &all
		})
		// A shard is one connected component, so every source other
		// than lt has an entry.
		return (*all)[ls], nil
	}
	toward := table(&nc.toward, func() *sp.Tree { return sh.solver.DestTable(snap.g, lt) })
	q := new(core.Quote)
	if err := sh.solver.QuoteIntoToward(q, snap.g, ls, lt, core.EngineFast, toward); err != nil {
		return nil, err
	}
	return q, nil
}

// payload serves the memoized payload for (ls, lt) on snap,
// counting the lookup against the calling plane's hit/miss counters.
// Repeated requests within an epoch are served the identical bytes:
// the hit path is one sync.Map probe and performs no heap allocation
// (the int64 key boxes on the stack because Load does not retain it).
//
//lint:noalloc the memo probe under Server.resolve's hit path
func (sh *shard) payload(snap *snapshot, ls, lt int, hits, misses *obs.Counter) ([]byte, error) {
	memo := &snap.node[ls].memo
	if v, ok := memo.Load(int64(lt)); ok {
		hits.Inc()
		return v.([]byte), nil
	}
	misses.Inc()
	return sh.fill(snap, memo, ls, lt)
}

// fill runs the mechanism on the first request for a key in an epoch
// and publishes the payload. The quote comes from localQuote, which
// shares one table toward the target across the epoch's misses. Local
// ids are remapped to global ones; the remapping is monotone (globals is
// increasing), so the served path and payments are bit-identical to
// a direct core.Solver run on the full topology — the property the
// differential harness asserts.
//
// Outlined from payload with //go:noinline: LoadOrStore retains its
// boxed key and the payload is a fresh allocation by design — once
// per (source, target) per epoch — and folding either back
// into payload would put heap traffic on the annotated hit path.
//
//go:noinline
func (sh *shard) fill(snap *snapshot, memo *sync.Map, ls, lt int) ([]byte, error) {
	local, err := sh.localQuote(snap, ls, lt)
	if err != nil {
		return nil, err
	}
	global := core.Quote{
		Source:   sh.globals[local.Source],
		Target:   sh.globals[local.Target],
		Cost:     local.Cost,
		Path:     make([]int, len(local.Path)),
		Payments: make(map[int]float64, len(local.Payments)),
	}
	for i, v := range local.Path {
		global.Path[i] = sh.globals[v]
	}
	for v, p := range local.Payments {
		global.Payments[sh.globals[v]] = p
	}
	// The same bytes json.Marshal(&global) returns, without its
	// re-validating copy of them.
	body, err := global.MarshalJSON()
	if err != nil {
		return nil, err
	}
	payload := EncodeBinaryQuote(make([]byte, 0, binaryQuoteHeadLen+len(body)), &BinaryQuote{
		Shard: uint32(sh.id),
		Epoch: snap.epoch,
		Quote: body,
	})
	if v, loaded := memo.LoadOrStore(int64(lt), payload); loaded {
		// A concurrent filler won the store; serve its copy so every
		// response for this key aliases one allocation.
		return v.([]byte), nil
	}
	return payload, nil
}
