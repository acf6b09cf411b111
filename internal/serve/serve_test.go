package serve

import (
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"truthroute/internal/core"
	"truthroute/internal/graph"
	"truthroute/internal/obs"
)

// twoIslands is a topology with two non-trivial components plus an
// isolated node: ring {0..4}, ring {5..9} (relabelled), singleton 10.
func twoIslands() *graph.NodeGraph {
	g := graph.NewNodeGraph(11)
	for i := 0; i < 5; i++ {
		g.AddEdge(i, (i+1)%5)
	}
	for i := 0; i < 5; i++ {
		g.AddEdge(5+i, 5+(i+1)%5)
	}
	for v := 0; v < 11; v++ {
		g.SetCost(v, float64(v+1))
	}
	return g
}

func doReq(t *testing.T, s *Server, method, target, body string) *httptest.ResponseRecorder {
	t.Helper()
	var r *http.Request
	if body == "" {
		r = httptest.NewRequest(method, target, nil)
	} else {
		r = httptest.NewRequest(method, target, strings.NewReader(body))
	}
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, r)
	return rec
}

func decodeQuote(t *testing.T, rec *httptest.ResponseRecorder) QuoteResponse {
	t.Helper()
	var qr QuoteResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &qr); err != nil {
		t.Fatalf("decoding quote response %q: %v", rec.Body.String(), err)
	}
	return qr
}

func TestServerShardsByComponent(t *testing.T) {
	s := New(twoIslands(), Config{})
	defer s.Drain()
	if s.NumShards() != 3 {
		t.Fatalf("NumShards = %d, want 3", s.NumShards())
	}
	if s.N() != 11 {
		t.Fatalf("N = %d, want 11", s.N())
	}
	if got := s.Epochs(); len(got) != 3 || got[0] != 1 || got[1] != 1 || got[2] != 1 {
		t.Fatalf("initial epochs = %v, want [1 1 1]", got)
	}
}

func TestQuoteMatchesDirectSolver(t *testing.T) {
	g := twoIslands()
	s := New(g, Config{})
	defer s.Drain()
	sv := core.NewSolver()
	for _, pair := range [][2]int{{0, 2}, {4, 1}, {5, 8}, {9, 6}} {
		rec := doReq(t, s, "GET", fmt.Sprintf("/quote?src=%d&dst=%d", pair[0], pair[1]), "")
		if rec.Code != http.StatusOK {
			t.Fatalf("quote %v: status %d body %s", pair, rec.Code, rec.Body.String())
		}
		qr := decodeQuote(t, rec)
		if qr.Epoch != 1 {
			t.Errorf("quote %v epoch = %d, want 1", pair, qr.Epoch)
		}
		ref, err := sv.Quote(g, pair[0], pair[1], core.EngineFast)
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(ref)
		if err != nil {
			t.Fatal(err)
		}
		if string(qr.Quote) != string(want) {
			t.Errorf("quote %v:\n  served %s\n  direct %s", pair, qr.Quote, want)
		}
	}
}

func TestQuoteCrossComponent(t *testing.T) {
	s := New(twoIslands(), Config{})
	defer s.Drain()
	for _, pair := range [][2]int{{0, 7}, {10, 3}, {6, 10}} {
		rec := doReq(t, s, "GET", fmt.Sprintf("/quote?src=%d&dst=%d", pair[0], pair[1]), "")
		if rec.Code != http.StatusNotFound {
			t.Errorf("cross-component quote %v: status %d, want 404", pair, rec.Code)
		}
	}
}

func TestQuoteBadRequests(t *testing.T) {
	s := New(twoIslands(), Config{})
	defer s.Drain()
	for _, target := range []string{
		"/quote",
		"/quote?src=0",
		"/quote?src=0&dst=zebra",
		"/quote?src=0&dst=99",
		"/quote?src=-1&dst=2",
		"/quote?src=3&dst=3",
		"/quote?src=0&dst=2&engine=quantum",
	} {
		if rec := doReq(t, s, "GET", target, ""); rec.Code != http.StatusBadRequest {
			t.Errorf("GET %s: status %d, want 400", target, rec.Code)
		}
	}
	if rec := doReq(t, s, "POST", "/quote?src=0&dst=2", ""); rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("POST /quote: status %d, want 405", rec.Code)
	}
	if rec := doReq(t, s, "GET", "/update", ""); rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET /update: status %d, want 405", rec.Code)
	}
}

// TestQuoteEngineParam: the daemon serves one engine, so naming it
// and leaving ?engine= out answer with the same bytes.
func TestQuoteEngineParam(t *testing.T) {
	g := twoIslands()
	s := New(g, Config{})
	defer s.Drain()
	fast := decodeQuote(t, doReq(t, s, "GET", "/quote?src=0&dst=2&engine=fast", ""))
	def := decodeQuote(t, doReq(t, s, "GET", "/quote?src=0&dst=2", ""))
	if string(fast.Quote) != string(def.Quote) {
		t.Errorf("?engine=fast and the default disagree:\n  fast    %s\n  default %s", fast.Quote, def.Quote)
	}
}

func TestQuoteCacheServesIdenticalBytes(t *testing.T) {
	s := New(twoIslands(), Config{})
	defer s.Drain()
	obs.Reset()
	obs.Enable()
	t.Cleanup(func() {
		obs.Disable()
		obs.Reset()
	})
	first := doReq(t, s, "GET", "/quote?src=0&dst=3", "")
	second := doReq(t, s, "GET", "/quote?src=0&dst=3", "")
	if first.Body.String() != second.Body.String() {
		t.Errorf("repeat quote differs:\n  %s\n  %s", first.Body.String(), second.Body.String())
	}
	snap := obs.Default.Snapshot()
	if snap.Counters["serve.quote_cache_hits"] != 1 || snap.Counters["serve.quote_cache_misses"] != 1 {
		t.Errorf("cache hits/misses = %d/%d, want 1/1",
			snap.Counters["serve.quote_cache_hits"], snap.Counters["serve.quote_cache_misses"])
	}
	// One all-sources table toward 3 (integer costs are exact) was
	// built, timed and reused, here by a second source in the same
	// epoch.
	if rec := doReq(t, s, "GET", "/quote?src=1&dst=3", ""); rec.Code != http.StatusOK {
		t.Fatalf("second source: status %d", rec.Code)
	}
	snap = obs.Default.Snapshot()
	if got := snap.Counters["serve.dest_tables_built"]; got != 1 {
		t.Errorf("dest_tables_built = %d, want 1", got)
	}
	if got := snap.Counters["core.allsources_solves"]; got != 1 {
		t.Errorf("core.allsources_solves = %d, want 1", got)
	}
	if h := snap.Histograms["serve.dest_table_build_ns"]; h.Count != 1 {
		t.Errorf("dest_table_build_ns count = %d, want 1", h.Count)
	}
}

func TestUpdateBumpsOnlyTouchedShard(t *testing.T) {
	g := twoIslands()
	s := New(g, Config{})
	defer s.Drain()
	before := decodeQuote(t, doReq(t, s, "GET", "/quote?src=0&dst=2", ""))

	rec := doReq(t, s, "POST", "/update", `{"updates":[{"node":6,"cost":0.25}]}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("update: status %d body %s", rec.Code, rec.Body.String())
	}
	var ur UpdateResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &ur); err != nil {
		t.Fatal(err)
	}
	if len(ur.Shards) != 1 || ur.Shards[0].Shard != 1 || ur.Shards[0].Epoch != 2 {
		t.Fatalf("update response = %+v, want shard 1 at epoch 2", ur)
	}
	if got := s.Epochs(); got[0] != 1 || got[1] != 2 || got[2] != 1 {
		t.Fatalf("epochs after update = %v, want [1 2 1]", got)
	}

	// Shard 0 quotes are untouched (same epoch, same bytes); shard 1
	// quotes see the new cost.
	after := decodeQuote(t, doReq(t, s, "GET", "/quote?src=0&dst=2", ""))
	if after.Epoch != before.Epoch || string(after.Quote) != string(before.Quote) {
		t.Errorf("shard-0 quote changed after shard-1 update")
	}
	q2 := decodeQuote(t, doReq(t, s, "GET", "/quote?src=5&dst=7", ""))
	if q2.Epoch != 2 {
		t.Errorf("shard-1 quote epoch = %d, want 2", q2.Epoch)
	}
	g2 := g.WithCost(6, 0.25)
	ref, err := core.NewSolver().Quote(g2, 5, 7, core.EngineFast)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := json.Marshal(ref)
	if string(q2.Quote) != string(want) {
		t.Errorf("post-update quote:\n  served %s\n  direct %s", q2.Quote, want)
	}
}

func TestUpdateMultiShardBatch(t *testing.T) {
	s := New(twoIslands(), Config{})
	defer s.Drain()
	rec := doReq(t, s, "POST", "/update",
		`{"updates":[{"node":1,"cost":3},{"node":8,"cost":4},{"node":10,"cost":5}]}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("update: status %d body %s", rec.Code, rec.Body.String())
	}
	var ur UpdateResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &ur); err != nil {
		t.Fatal(err)
	}
	if len(ur.Shards) != 3 {
		t.Fatalf("touched shards = %+v, want all 3", ur.Shards)
	}
	for i, se := range ur.Shards {
		if se.Shard != i || se.Epoch != 2 {
			t.Errorf("shard %d response = %+v, want epoch 2", i, se)
		}
	}
	costs := s.Costs()
	if costs[1] != 3 || costs[8] != 4 || costs[10] != 5 {
		t.Errorf("Costs() after batch = %v", costs)
	}
}

func TestUpdateRejectedBatchIsAtomic(t *testing.T) {
	s := New(twoIslands(), Config{})
	defer s.Drain()
	before := s.Costs()
	for _, body := range []string{
		`{"updates":[]}`,
		`{"updates":[{"node":0,"cost":1},{"node":99,"cost":1}]}`,
		`{"updates":[{"node":0,"cost":1},{"node":1,"cost":-2}]}`,
		`{"updates":[{"node":0,"cost":1e999}]}`,
		`not json`,
	} {
		rec := doReq(t, s, "POST", "/update", body)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("update %q: status %d, want 400", body, rec.Code)
		}
	}
	if got := s.Epochs(); got[0] != 1 || got[1] != 1 || got[2] != 1 {
		t.Errorf("rejected batches bumped an epoch: %v", got)
	}
	after := s.Costs()
	for v := range before {
		if before[v] != after[v] {
			t.Errorf("rejected batch changed cost of node %d: %v -> %v", v, before[v], after[v])
		}
	}
}

func TestAdmissionControl(t *testing.T) {
	s := New(twoIslands(), Config{MaxInFlight: 2})
	defer s.Drain()
	// Fill the admission budget directly: the semaphore is the
	// contended resource, and holding its slots simulates two
	// requests parked in flight.
	s.inflight <- struct{}{}
	s.inflight <- struct{}{}
	rec := doReq(t, s, "GET", "/quote?src=0&dst=2", "")
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("overloaded quote: status %d, want 429", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Error("429 response missing Retry-After")
	}
	// /healthz is diagnostics, not load: it bypasses admission.
	if rec := doReq(t, s, "GET", "/healthz", ""); rec.Code != http.StatusOK {
		t.Errorf("healthz under overload: status %d, want 200", rec.Code)
	}
	<-s.inflight
	<-s.inflight
	if rec := doReq(t, s, "GET", "/quote?src=0&dst=2", ""); rec.Code != http.StatusOK {
		t.Errorf("quote after slots freed: status %d, want 200", rec.Code)
	}
}

func TestDrain(t *testing.T) {
	s := New(twoIslands(), Config{})
	if rec := doReq(t, s, "GET", "/quote?src=0&dst=2", ""); rec.Code != http.StatusOK {
		t.Fatalf("pre-drain quote: status %d", rec.Code)
	}
	s.Drain()
	s.Drain() // idempotent
	for _, req := range []struct{ method, target, body string }{
		{"GET", "/quote?src=0&dst=2", ""},
		{"POST", "/update", `{"updates":[{"node":1,"cost":2}]}`},
	} {
		rec := doReq(t, s, req.method, req.target, req.body)
		if rec.Code != http.StatusServiceUnavailable {
			t.Errorf("%s %s after drain: status %d, want 503", req.method, req.target, rec.Code)
		}
	}
	// Diagnostics stay up for post-mortem inspection.
	rec := doReq(t, s, "GET", "/healthz", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("healthz after drain: status %d", rec.Code)
	}
	var h HealthResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &h); err != nil {
		t.Fatal(err)
	}
	if !h.Draining {
		t.Error("healthz does not report draining")
	}
}

func TestHealthAndEpochEndpoints(t *testing.T) {
	s := New(twoIslands(), Config{})
	defer s.Drain()
	rec := doReq(t, s, "GET", "/healthz", "")
	var h HealthResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &h); err != nil {
		t.Fatal(err)
	}
	if h.Nodes != 11 || len(h.Shards) != 3 || h.Draining {
		t.Errorf("healthz = %+v", h)
	}
	rec = doReq(t, s, "GET", "/epoch", "")
	var ur UpdateResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &ur); err != nil {
		t.Fatal(err)
	}
	if len(ur.Shards) != 3 {
		t.Errorf("epoch = %+v", ur)
	}
	if rec := doReq(t, s, "POST", "/healthz", ""); rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("POST /healthz: %d, want 405", rec.Code)
	}
	if rec := doReq(t, s, "POST", "/epoch", ""); rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("POST /epoch: %d, want 405", rec.Code)
	}
}

func TestDebugSurfaceMounted(t *testing.T) {
	s := New(twoIslands(), Config{})
	defer s.Drain()
	for _, path := range []string{"/metrics", "/metrics.txt", "/debug/vars", "/debug/pprof/"} {
		if rec := doReq(t, s, "GET", path, ""); rec.Code != http.StatusOK {
			t.Errorf("GET %s: status %d, want 200", path, rec.Code)
		}
	}
}

// TestShardComputeSteadyStateAllocs: the shard's mechanism step (the
// pooled-solver quote on the snapshot graph, before marshalling)
// inherits the core 0 allocs/op steady state. The HTTP/JSON layer
// above it allocates per response by design; the compute hot path
// must not.
func TestShardComputeSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	g := graph.Grid(8, 8)
	g.RandomizeCosts(0.5, 5, rand.New(rand.NewPCG(3, 0)))
	s := New(g, Config{})
	defer s.Drain()
	sh := s.shards[0]
	snap := sh.snap.Load()
	var q core.Quote
	for i := 0; i < 3; i++ {
		if err := sh.solver.QuoteInto(&q, snap.g, 0, snap.g.N()-1, core.EngineFast); err != nil {
			t.Fatal(err)
		}
	}
	avg := testing.AllocsPerRun(50, func() {
		if err := sh.solver.QuoteInto(&q, snap.g, 0, snap.g.N()-1, core.EngineFast); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Errorf("shard compute path allocates %v times per run in the steady state, want 0", avg)
	}
}
