package serve

import (
	"sync"
	"sync/atomic"

	"truthroute/internal/core"
	"truthroute/internal/graph"
	"truthroute/internal/obs"
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
// source, and the fast engine's destination table with the node as
// target.
type nodeCache struct {
	// memo maps the int64 key engine<<32|target to the pre-serialized
	// binary KindQuoteResp payload: shard id, epoch, then the quote
	// JSON. The HTTP plane serves payload[binaryQuoteHeadLen:], so
	// both planes serve one allocation per key per epoch and their
	// byte identity holds by construction.
	memo sync.Map
	// toward is dist(v, node) for every local v — the table Algorithm
	// 1 reads as R(v). It depends only on the epoch's costs and the
	// target, so the first fast miss toward the node builds it and
	// every later miss toward it in the epoch shares it: 8n bytes per
	// quoted target per epoch.
	toward atomic.Pointer[[]float64]
}

func newSnapshot(epoch uint64, g *graph.NodeGraph) *snapshot {
	return &snapshot{epoch: epoch, g: g, node: make([]nodeCache, g.N())}
}

// newShard carves component comp out of g, warms the shard's solver
// pool, publishes epoch 1, and starts the single writer.
//
//lint:writer newShard publishes epoch 1 before any reader can hold the shard
func newShard(id int, g *graph.NodeGraph, comp []int, warm int) *shard {
	sub := g.InducedSubgraph(comp)
	sub.CSR() // built once here; every epoch's cost view shares it
	sh := &shard{
		id:      id,
		globals: comp,
		solver:  core.NewSolver(),
		batches: make(chan batchReq),
		done:    make(chan struct{}),
	}
	sh.solver.Warm(sub.N(), warm)
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

// toward returns the snapshot's destination table toward local
// target lt, building it on first use. Concurrent builders race
// benignly: both run the same deterministic Dijkstra and the losing
// CompareAndSwap discards its copy, mirroring graph.CSR's build race.
//
//lint:writer racing builders compute the same deterministic table; the CAS loser discards its copy unpublished
func (sh *shard) toward(snap *snapshot, lt int) []float64 {
	nc := &snap.node[lt]
	if d := nc.toward.Load(); d != nil {
		return *d
	}
	obsDestTables.Inc()
	d := sh.solver.DestTable(snap.g, lt)
	if nc.toward.CompareAndSwap(nil, &d) {
		return d
	}
	return *nc.toward.Load()
}

// quote serves the marshalled global-id quote JSON for (ls, lt) on
// snap: the HTTP plane's view of the epoch memo.
//
//lint:noalloc the epoch-cached read path: a warm hit must serve bytes without touching the heap
func (sh *shard) quote(snap *snapshot, ls, lt int, engine core.Engine) ([]byte, error) {
	payload, err := sh.payload(snap, ls, lt, engine, obsCacheHits, obsCacheMisses)
	if err != nil {
		return nil, err
	}
	return payload[binaryQuoteHeadLen:], nil
}

// framePayload serves the pre-serialized KindQuoteResp payload for
// (ls, lt) on snap: the binary plane's view of the epoch memo. The
// caller's only remaining work is a frame-header fill and one copy of
// these bytes into the connection's write buffer.
//
//lint:noalloc the epoch-cached binary read path: a warm hit must serve payload bytes without touching the heap
func (sh *shard) framePayload(snap *snapshot, ls, lt int, engine core.Engine) ([]byte, error) {
	return sh.payload(snap, ls, lt, engine, obsBinCacheHits, obsBinCacheMisses)
}

// payload serves the memoized payload for (engine, ls, lt) on snap,
// counting the lookup against the calling plane's hit/miss counters.
// Repeated requests within an epoch are served the identical bytes:
// the hit path is one sync.Map probe and performs no heap allocation
// (the int64 key boxes on the stack because Load does not retain it).
//
//lint:noalloc the shared memo probe under both planes' hit paths
func (sh *shard) payload(snap *snapshot, ls, lt int, engine core.Engine, hits, misses *obs.Counter) ([]byte, error) {
	memo := &snap.node[ls].memo
	key := int64(engine)<<32 | int64(lt)
	if v, ok := memo.Load(key); ok {
		hits.Inc()
		return v.([]byte), nil
	}
	misses.Inc()
	return sh.fill(snap, memo, ls, lt, engine, key)
}

// fill runs the mechanism on the first request for a key in an epoch
// and publishes the payload. The quote is one source Dijkstra plus
// Algorithm 1 on the epoch's shared destination table (the naive
// engine reads no table, so none is built for it). Local ids are
// remapped to global ones; the remapping is monotone (globals is
// increasing), so the served path and payments are bit-identical to
// a direct core.Solver run on the full topology — the property the
// differential harness asserts.
//
// Outlined from payload with //go:noinline: LoadOrStore retains its
// boxed key and the payload is a fresh allocation by design — once
// per (engine, source, target) per epoch — and folding either back
// into payload would put heap traffic on the annotated hit path.
//
//go:noinline
func (sh *shard) fill(snap *snapshot, memo *sync.Map, ls, lt int, engine core.Engine, key int64) ([]byte, error) {
	var toward []float64
	if engine == core.EngineFast {
		toward = sh.toward(snap, lt)
	}
	var local core.Quote
	if err := sh.solver.QuoteIntoToward(&local, snap.g, ls, lt, engine, toward); err != nil {
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
	if v, loaded := memo.LoadOrStore(key, payload); loaded {
		// A concurrent filler won the store; serve its copy so every
		// response for this key aliases one allocation.
		return v.([]byte), nil
	}
	return payload, nil
}
