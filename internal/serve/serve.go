// Package serve implements truthrouted, the long-lived quote-serving
// daemon: the zero-allocation core.Solver/CSR engine wrapped in a
// concurrent HTTP/JSON service.
//
// Topology is sharded by connected component — a quote can never
// cross a component boundary, so each shard is an independent
// single-writer domain. Within a shard all state lives in immutable
// epoch snapshots published RCU-style through an atomic pointer:
// readers load the pointer once per request and never lock, never
// observe a half-applied batch, and carry the epoch number into their
// response so consistency is externally checkable. Batched cost
// updates funnel through one writer goroutine per shard; each batch
// becomes exactly one epoch flip. Served quotes and the per-target
// destination tables they are priced from are cached inside the
// snapshot, so cost drift invalidates them by construction.
//
// The server applies admission control (a bounded in-flight budget;
// excess load is refused with 429 rather than queued) and supports
// graceful drain: stop admitting, finish in-flight requests, then
// stop the writers. DESIGN.md §12 records the rationale.
package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"truthroute/internal/core"
	"truthroute/internal/graph"
	"truthroute/internal/obs"
)

// DefaultMaxInFlight bounds concurrently admitted quote/update
// requests when Config.MaxInFlight is zero.
const DefaultMaxInFlight = 256

// Config tunes a Server. The zero value uses the default admission
// budget. Every quote is priced by the paper's Algorithm 1 (the fast
// engine), exact for any non-negative declared costs, zero-cost
// relays included (see core's fast.go).
type Config struct {
	// MaxInFlight bounds concurrently admitted /quote and /update
	// requests. Excess load is refused immediately with 429 and a
	// Retry-After hint instead of building an unbounded backlog.
	// 0 means DefaultMaxInFlight.
	MaxInFlight int
	// WarmWorkspaces pre-populates each shard's solver pool with this
	// many workspaces at construction. 0 means GOMAXPROCS.
	WarmWorkspaces int
}

// Server is the sharded quote service. It implements http.Handler;
// the daemon binds it to a listener, tests drive ServeHTTP directly.
type Server struct {
	n       int
	shardOf []int32 // global node id -> shard index
	local   []int32 // global node id -> local id within its shard
	shards  []*shard

	inflight  chan struct{} // admission semaphore
	draining  atomic.Bool
	wg        sync.WaitGroup // admitted requests in flight
	drainOnce sync.Once
	mux       *http.ServeMux

	// Binary-plane registries (binary.go): listeners ServeBinary is
	// accepting on and the connections it has handed to serveConn,
	// both closed at the tail of Drain.
	mu     sync.Mutex
	binLns []net.Listener
	conns  map[net.Conn]struct{}
}

// New builds a server for the topology and declared costs of g. The
// server copies everything it needs (each shard owns an induced
// subgraph), so later mutation of g does not affect it.
func New(g *graph.NodeGraph, cfg Config) *Server {
	if cfg.MaxInFlight <= 0 {
		cfg.MaxInFlight = DefaultMaxInFlight
	}
	if cfg.WarmWorkspaces <= 0 {
		cfg.WarmWorkspaces = runtime.GOMAXPROCS(0)
	}
	n := g.N()
	s := &Server{
		n:        n,
		shardOf:  make([]int32, n),
		local:    make([]int32, n),
		inflight: make(chan struct{}, cfg.MaxInFlight),
		conns:    make(map[net.Conn]struct{}),
	}
	for i, comp := range g.Components() {
		for li, v := range comp {
			s.shardOf[v] = int32(i)
			s.local[v] = int32(li)
		}
		s.shards = append(s.shards, newShard(i, g, comp, cfg.WarmWorkspaces))
	}
	obsShards.Set(int64(len(s.shards)))
	obsNodes.Set(int64(n))

	mux := http.NewServeMux()
	mux.HandleFunc("/quote", s.admit(s.handleQuote))
	mux.HandleFunc("/update", s.admit(s.handleUpdate))
	mux.HandleFunc("/epoch", s.handleEpoch)
	mux.HandleFunc("/healthz", s.handleHealth)
	obs.AddDebugHandlers(mux)
	s.mux = mux
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// N reports the number of nodes across all shards.
func (s *Server) N() int { return s.n }

// NumShards reports the number of connected-component shards.
func (s *Server) NumShards() int { return len(s.shards) }

// Drain stops admitting quote and update traffic (new HTTP requests
// get 503, new binary frames get ErrCodeDraining), waits for every
// in-flight request to finish, then stops the shard writers, closes
// the binary listeners (ServeBinary returns ErrServerDraining) and
// finally closes lingering binary connections — an active one has
// already answered its last admitted frame by the time wg.Wait
// returned. Idempotent; concurrent callers block until the first
// drain completes.
func (s *Server) Drain() {
	s.drainOnce.Do(func() {
		s.draining.Store(true)
		s.wg.Wait()
		for _, sh := range s.shards {
			sh.stop()
		}
		s.mu.Lock()
		lns := s.binLns
		conns := make([]net.Conn, 0, len(s.conns))
		//lint:allow determinism close order across drained connections is immaterial; every socket gets closed
		for c := range s.conns {
			conns = append(conns, c)
		}
		s.mu.Unlock()
		for _, ln := range lns {
			_ = ln.Close()
		}
		for _, c := range conns {
			_ = c.Close()
		}
		obsDrains.Inc()
	})
}

// enter is the one admission step of both quote planes and /update.
// A full in-flight budget refuses immediately (the load generator
// observes these as backpressure, not latency), and so does a draining
// server. The wg.Add-then-recheck order makes Drain's wait sound: a
// request that passed the recheck is counted before Drain returns from
// Wait, so writers only stop after it finished. A caller admitted with
// the zero refusal must call leave when done.
//
//lint:noalloc admission runs ahead of every warm quote on both planes
func (s *Server) enter() BinaryError {
	select {
	case s.inflight <- struct{}{}:
	default:
		obsRejected.Inc()
		return BinaryError{Code: ErrCodeOverloaded, Msg: "overloaded: in-flight request limit reached"}
	}
	obsInflightPeak.SetMax(int64(len(s.inflight)))
	s.wg.Add(1)
	if s.draining.Load() {
		s.leave()
		return BinaryError{Code: ErrCodeDraining, Msg: "draining"}
	}
	return BinaryError{}
}

// leave releases the admission enter granted.
func (s *Server) leave() {
	s.wg.Done()
	<-s.inflight
}

// admit wraps a handler with the admission gate: an overload refusal
// is a 429 with a Retry-After hint, a draining one a 503.
func (s *Server) admit(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if ref := s.enter(); ref.Code != 0 {
			if ref.Code == ErrCodeOverloaded {
				w.Header().Set("Retry-After", "1")
			}
			writeError(w, httpStatus(ref.Code), ref.Msg)
			return
		}
		defer s.leave()
		h(w, r)
	}
}

// refuseSameEndpoint and refuseEpoch build the refusals whose messages
// format request data, outlined like core's errSameEndpoint so their
// allocations stay out of resolve's zero-alloc body.
//
//go:noinline
func refuseSameEndpoint(v int) BinaryError {
	return BinaryError{Code: ErrCodeBadRequest, Msg: "src and dst are both " + strconv.Itoa(v)}
}

//go:noinline
func refuseEpoch(shard int, epoch, pin uint64) BinaryError {
	return BinaryError{Code: ErrCodeEpochMismatch, Msg: "shard " + strconv.Itoa(shard) + " is at epoch " +
		strconv.FormatUint(epoch, 10) + ", request pinned " + strconv.FormatUint(pin, 10)}
}

// httpStatus is the HTTP status that answers a refusal's ErrCode.
func httpStatus(code uint8) int {
	switch code {
	case ErrCodeBadRequest:
		return http.StatusBadRequest
	case ErrCodeNoPath:
		return http.StatusNotFound
	case ErrCodeOverloaded:
		return http.StatusTooManyRequests
	case ErrCodeDraining:
		return http.StatusServiceUnavailable
	}
	return http.StatusInternalServerError
}

// resolve is the quote path both planes share past admission and
// parsing. It serves global ids (src, dst) from the epoch memo as a
// KindQuoteResp payload, or returns the refusal, as an error frame's
// payload, that each plane maps to its wire form. A non-zero pin refuses unless the shard is at that epoch.
//
//lint:noalloc the epoch-cached read path of both planes: a warm hit must serve bytes without touching the heap
func (s *Server) resolve(src, dst int, pin uint64, p *plane) ([]byte, BinaryError) {
	if uint(src) >= uint(s.n) || uint(dst) >= uint(s.n) {
		p.bad.Inc()
		return nil, BinaryError{Code: ErrCodeBadRequest, Msg: "node id out of range"}
	}
	if src == dst {
		p.bad.Inc()
		return nil, refuseSameEndpoint(src)
	}
	if s.shardOf[src] != s.shardOf[dst] {
		obsNoPath.Inc()
		return nil, BinaryError{Code: ErrCodeNoPath, Msg: "no path: src and dst are in different components"}
	}
	sh := s.shards[s.shardOf[src]]
	snap := sh.snap.Load() // the only load: epoch, pin check and payload cohere
	if pin != 0 && snap.epoch != pin {
		obsBinEpochMismatch.Inc()
		return nil, refuseEpoch(sh.id, snap.epoch, pin)
	}
	payload, err := sh.payload(snap, int(s.local[src]), int(s.local[dst]), p.hits, p.misses)
	if err != nil {
		if errors.Is(err, core.ErrNoPath) {
			obsNoPath.Inc()
			return nil, BinaryError{Code: ErrCodeNoPath, Msg: "no path from src to dst"}
		}
		return nil, BinaryError{Code: ErrCodeInternal, Msg: err.Error()}
	}
	return payload, BinaryError{}
}

// QuoteResponse is the /quote payload: the epoch the quote was
// computed on (all fields derive from one atomic snapshot load, so a
// response can never mix epochs) and the mechanism output in
// core.Quote's JSON form with global node ids.
type QuoteResponse struct {
	Shard int             `json:"shard"`
	Epoch uint64          `json:"epoch"`
	Quote json.RawMessage `json:"quote"`
}

// ShardEpoch names one shard's published epoch.
type ShardEpoch struct {
	Shard int    `json:"shard"`
	Epoch uint64 `json:"epoch"`
}

// UpdateRequest is the /update body: one batch of declared-cost
// changes. The batch is split by shard and each shard's part is
// applied atomically (readers see all of it or none of it); a batch
// spanning shards is not atomic across them, which is harmless
// because no quote ever spans shards either.
type UpdateRequest struct {
	Updates []CostUpdate `json:"updates"`
}

// UpdateResponse reports the epoch each touched shard published for
// the batch, in shard-id order.
type UpdateResponse struct {
	Shards []ShardEpoch `json:"shards"`
}

// HealthResponse is the /healthz payload.
type HealthResponse struct {
	Nodes    int          `json:"nodes"`
	Shards   []ShardEpoch `json:"shards"`
	Draining bool         `json:"draining"`
}

type errorResponse struct {
	Error string `json:"error"`
}

func (s *Server) handleQuote(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	//lint:allow determinism wall clock feeds only the obs latency histogram, never quote output
	began := time.Now()
	src, err := parseNode(r, "src", s.n)
	if err != nil {
		obsBadRequests.Inc()
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	dst, err := parseNode(r, "dst", s.n)
	if err != nil {
		obsBadRequests.Inc()
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	if e := r.URL.Query().Get("engine"); e != "" && e != "fast" {
		obsBadRequests.Inc()
		writeError(w, http.StatusBadRequest, "engine must be fast")
		return
	}
	payload, ref := s.resolve(src, dst, 0, &httpPlane)
	if ref.Code != 0 {
		writeError(w, httpStatus(ref.Code), ref.Msg)
		return
	}
	// A memo payload always carries its head and quote bytes.
	q, _ := DecodeBinaryQuote(payload)
	writeJSON(w, http.StatusOK, QuoteResponse{Shard: int(q.Shard), Epoch: q.Epoch, Quote: q.Quote})
	obsQuotesServed.Inc()
	if obs.On() {
		//lint:allow determinism wall clock feeds only the obs latency histogram, never quote output
		obsLatencyNS.Observe(float64(time.Since(began).Nanoseconds()))
	}
}

func (s *Server) handleUpdate(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	var req UpdateRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 4<<20))
	if err := dec.Decode(&req); err != nil {
		obsBadRequests.Inc()
		writeError(w, http.StatusBadRequest, "decoding update batch: "+err.Error())
		return
	}
	if len(req.Updates) == 0 {
		obsBadRequests.Inc()
		writeError(w, http.StatusBadRequest, "empty update batch")
		return
	}
	// Validate the whole batch before touching any shard: a rejected
	// batch must not bump any epoch.
	perShard := make([][]CostUpdate, len(s.shards))
	for i, u := range req.Updates {
		if u.Node < 0 || u.Node >= s.n {
			obsBadRequests.Inc()
			writeError(w, http.StatusBadRequest, fmt.Sprintf("update %d: node %d out of range", i, u.Node))
			return
		}
		if u.Cost < 0 || math.IsNaN(u.Cost) || math.IsInf(u.Cost, 0) {
			obsBadRequests.Inc()
			writeError(w, http.StatusBadRequest, fmt.Sprintf("update %d: invalid cost %v for node %d", i, u.Cost, u.Node))
			return
		}
		sid := s.shardOf[u.Node]
		perShard[sid] = append(perShard[sid], CostUpdate{Node: int(s.local[u.Node]), Cost: u.Cost})
	}
	resp := UpdateResponse{Shards: []ShardEpoch{}}
	for sid, batch := range perShard {
		if len(batch) == 0 {
			continue
		}
		epoch := s.shards[sid].apply(batch)
		resp.Shards = append(resp.Shards, ShardEpoch{Shard: sid, Epoch: epoch})
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleEpoch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	writeJSON(w, http.StatusOK, UpdateResponse{Shards: s.shardEpochs()})
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	writeJSON(w, http.StatusOK, HealthResponse{
		Nodes:    s.n,
		Shards:   s.shardEpochs(),
		Draining: s.draining.Load(),
	})
}

func (s *Server) shardEpochs() []ShardEpoch {
	out := make([]ShardEpoch, len(s.shards))
	for i, sh := range s.shards {
		out[i] = ShardEpoch{Shard: i, Epoch: sh.snap.Load().epoch}
	}
	return out
}

func parseNode(r *http.Request, key string, n int) (int, error) {
	raw := r.URL.Query().Get(key)
	if raw == "" {
		return 0, fmt.Errorf("missing %s parameter", key)
	}
	v, err := strconv.Atoi(raw)
	if err != nil {
		return 0, fmt.Errorf("%s: %v", key, err)
	}
	if v < 0 || v >= n {
		return 0, fmt.Errorf("%s %d out of range [0,%d)", key, v, n)
	}
	return v, nil
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	// An encode failure past the header means the client hung up
	// mid-response; there is no one left to report it to.
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, errorResponse{Error: msg})
}
