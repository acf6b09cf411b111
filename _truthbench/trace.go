package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"truthroute/internal/core"
	"truthroute/internal/graph"
	"truthroute/internal/serve"
	"truthroute/internal/sp"
)

// span is one timed call the benchmark made into a layer. Spans of one
// request share Req; Parent names the enclosing span (0 for a root).
// Times are nanoseconds since the traced run began.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	N      int    `json:"n,omitempty"` // instance size, where it varies
}

func (s span) micros() float64 { return float64(s.End-s.Start) / 1e3 }

// traceRun holds a traced run's spans in memory until finish writes
// them out, together with the per-layer metrics derived from them.
type traceRun struct {
	env    *runEnv
	t0     time.Time
	spans  []span
	layers map[string]metricValue
	errs   []error
}

func newTraceRun(env *runEnv) *traceRun {
	return &traceRun{env: env, t0: time.Now(), spans: make([]span, 0, 1<<16), layers: map[string]metricValue{}}
}

func (t *traceRun) add(name string, parent, req int64, start, end time.Time, n int) int64 {
	id := int64(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds(), N: n})
	return id
}

func (t *traceRun) layer(name string, v float64, unit string) {
	t.layers[name] = metricValue{Value: v, Unit: unit}
}

// durations returns the durations (µs) of every span called name.
func (t *traceRun) durations(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s.micros())
		}
	}
	return out
}

// requestSpans turns a traced open-loop phase's stamps into spans: a
// root per request from its due time to its response, with two
// children — the wait before the sender wrote it (generator lateness)
// and the TCP round trip from that write to the response. Every
// request is stamped, but at most requestSpanCap evenly strided
// requests are kept, so a 100k/s phase does not write gigabytes.
func (t *traceRun) requestSpans(r *openResult) {
	sent := make([]int64, r.count)
	for _, ss := range r.sends {
		for _, s := range ss {
			sent[s.i] = s.ns
		}
	}
	stride := max(1, r.count/requestSpanCap)
	for _, rs := range r.recvs {
		for _, s := range rs {
			if s.i%stride != 0 {
				continue
			}
			due := r.due(s.i)
			at, recv := time.Unix(0, sent[s.i]), time.Unix(0, s.ns)
			root := t.add("gen.request", 0, int64(s.i), due, recv, 0)
			t.add("gen.send_wait", root, int64(s.i), due, at, 0)
			t.add("transport.request", root, int64(s.i), at, recv, 0)
		}
	}
}

// requestSpanCap bounds the open-loop requests a traced run writes out.
const requestSpanCap = 20_000

// replayBudget bounds the span replay.
const replayBudget = 3000

// replay re-issues the workload's request stream one request at a time
// against each layer's public entry point and records a span around
// every call: the TCP round trip to the daemon (when one runs), the
// in-process round trip through serve.ServeBinary over an in-memory
// listener, Solver.QuoteInto, the two Workspace.NodeDijkstra runs it
// contains (source and access point), and json.Marshal of the quote.
// With interleave, the update stream is replayed between requests at
// the workload's ratio, re-pricing the graph (WithCosts + CostQuantum)
// and posting the batch to both servers. Round trips are timed warm:
// each request is sent once untimed, then timed.
func (t *traceRun) replay(cur *graph.NodeGraph, srcs []uint32, batches [][]serve.CostUpdate, interleave bool, d *daemon) {
	window := time.Duration(float64(t.env.seconds) * 0.2 * float64(time.Second))
	n := cur.N()
	srv := serve.New(cur, serve.Config{})
	ln := newPipeListener()
	served := make(chan error, 1)
	go func() { served <- srv.ServeBinary(ln) }()
	inproc := ln.dial()
	var tcp net.Conn
	if d != nil {
		var err error
		if tcp, err = net.Dial("tcp", d.binAddr); err != nil {
			t.errs = append(t.errs, err)
			tcp = nil
		}
	}
	defer func() {
		if tcp != nil {
			tcp.Close()
		}
		inproc.Close()
		srv.Drain()
		if err := <-served; err != nil && !errors.Is(err, serve.ErrServerDraining) {
			t.errs = append(t.errs, fmt.Errorf("in-process ServeBinary: %w", err))
		}
	}()

	solver := core.NewSolver()
	solver.Warm(n, 1)
	ws := sp.NewWorkspace(n)
	var q core.Quote
	var tbuf, ibuf []byte
	nextBatch := 0
	if d != nil {
		// The daemon already applied the batches the timed phases sent.
		epoch, err := d.epoch()
		if err != nil {
			t.errs = append(t.errs, err)
		}
		nextBatch = int(epoch) - 1
	}
	// Warm the solver and workspace on this graph before timing.
	_ = solver.QuoteInto(&q, cur, int(srcs[0]), accessPt, core.EngineFast)
	ws.NodeDijkstra(cur, int(srcs[0]), nil)

	end := time.Now().Add(window)
	for i := 0; i < replayBudget && time.Now().Before(end); i++ {
		req := int64(i)
		src := int(srcs[i%len(srcs)])
		if interleave && i%quotesPerUpdate == 0 && nextBatch < len(batches) {
			b := batches[nextBatch]
			nextBatch++
			t0 := time.Now()
			cur = cur.WithCosts(applyBatch(cur.Costs(), b))
			cur.CostQuantum()
			t1 := time.Now()
			t.add("graph.WithCosts", 0, req, t0, t1, 0)
			t.postUpdate(srv, d, b, req)
		}
		first := time.Now()
		var tcpPayload, inPayload []byte
		var err error
		var spansBefore = len(t.spans)
		if tcp != nil {
			if _, err = quoteOnce(tcp, &tbuf, uint32(2*i+1), src); err == nil {
				t0 := time.Now()
				tcpPayload, err = quoteOnce(tcp, &tbuf, uint32(2*i+2), src)
				t.add("transport.tcp_rtt", -1, req, t0, time.Now(), 0)
			}
			if err != nil {
				t.errs = append(t.errs, fmt.Errorf("replayed TCP quote %d: %w", src, err))
			}
		}
		if _, err = quoteOnce(inproc, &ibuf, uint32(2*i+1), src); err == nil {
			t0 := time.Now()
			inPayload, err = quoteOnce(inproc, &ibuf, uint32(2*i+2), src)
			t.add("serve.inproc_rtt", -1, req, t0, time.Now(), 0)
		}
		if err != nil {
			t.errs = append(t.errs, fmt.Errorf("replayed in-process quote %d: %w", src, err))
		}
		t0 := time.Now()
		err = solver.QuoteInto(&q, cur, src, accessPt, core.EngineFast)
		t1 := time.Now()
		ws.NodeDijkstra(cur, src, nil)
		t2 := time.Now()
		ws.NodeDijkstra(cur, accessPt, nil)
		t3 := time.Now()
		body, merr := json.Marshal(&q)
		t4 := time.Now()
		if err != nil || merr != nil {
			t.errs = append(t.errs, fmt.Errorf("replayed quote %d: %v %v", src, err, merr))
			continue
		}
		t.add("core.QuoteInto", -1, req, t0, t1, 0)
		t.add("sp.NodeDijkstra", -1, req, t1, t2, 0)
		t.add("sp.NodeDijkstra.ap", -1, req, t2, t3, 0)
		t.add("core.marshal", -1, req, t3, t4, 0)
		root := t.add("replay.request", 0, req, first, t4, 0)
		for k := spansBefore; k < len(t.spans); k++ {
			if t.spans[k].Parent == -1 {
				t.spans[k].Parent = root
			}
		}
		for _, p := range [][]byte{tcpPayload, inPayload} {
			if p != nil && !bytes.Equal(p[12:], body) {
				t.errs = append(t.errs, fmt.Errorf("replayed quote %d: served %q, solver %q", src, p[12:], body))
			}
		}
	}

	t.layer("transport.tcp_rtt_us", median(t.durations("transport.tcp_rtt")), "us")
	t.layer("serve.inproc_rtt_us", median(t.durations("serve.inproc_rtt")), "us")
	quote := t.durations("core.QuoteInto")
	dijS := t.durations("sp.NodeDijkstra")
	dijT := t.durations("sp.NodeDijkstra.ap")
	replace := make([]float64, len(quote))
	for i := range quote {
		replace[i] = quote[i] - dijS[i] - dijT[i]
	}
	t.layer("core.quote_p50_us", quantile(append([]float64(nil), quote...), 0.5), "us")
	t.layer("core.quote_p99_us", quantile(append([]float64(nil), quote...), 0.99), "us")
	t.layer("core.replace_us", median(replace), "us")
	t.layer("core.marshal_us", median(t.durations("core.marshal")), "us")
	t.layer("sp.dijkstra_us", median(append(dijS, dijT...)), "us")
	if interleave {
		t.layer("graph.reprice_us", median(t.durations("graph.WithCosts")), "us")
	}
}

// quotesPerUpdate is churn's quote-to-update ratio in the open-loop
// phase (500 quotes/s against 50 batches/s).
const quotesPerUpdate = 10

// postUpdate sends one batch to the in-process server and the daemon.
func (t *traceRun) postUpdate(srv *serve.Server, d *daemon, b []serve.CostUpdate, req int64) {
	body, err := json.Marshal(serve.UpdateRequest{Updates: b})
	if err != nil {
		t.errs = append(t.errs, err)
		return
	}
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/update", bytes.NewReader(body)))
	if rec.Code != http.StatusOK {
		t.errs = append(t.errs, fmt.Errorf("in-process update: HTTP %d", rec.Code))
	}
	if d != nil {
		t0 := time.Now()
		if _, err := d.update(b); err != nil {
			t.errs = append(t.errs, err)
		}
		t.add("http.update", 0, req, t0, time.Now(), 0)
	}
}

// offlineLayers times the set-up layers on the workload's own input
// file: decode (graph.ReadNodeGraph), shard (Components +
// InducedSubgraph + CSR, what serve.New does per component) and, when
// the replay did not already, re-pricing by update batch.
func (t *traceRun) offlineLayers(topo string, g *graph.NodeGraph, batches [][]serve.CostUpdate) {
	blob, err := os.ReadFile(topo)
	if err != nil {
		t.errs = append(t.errs, err)
		return
	}
	const reps = 15
	for r := 0; r < reps; r++ {
		t0 := time.Now()
		dg, err := graph.ReadNodeGraph(bytes.NewReader(blob))
		t1 := time.Now()
		if err != nil {
			t.errs = append(t.errs, err)
			return
		}
		for _, comp := range dg.Components() {
			dg.InducedSubgraph(comp).CSR()
		}
		t2 := time.Now()
		t.add("graph.ReadNodeGraph", 0, int64(r), t0, t1, dg.N())
		t.add("graph.shard", 0, int64(r), t1, t2, dg.N())
	}
	t.layer("graph.decode_ms", median(t.durations("graph.ReadNodeGraph"))/1e3, "ms")
	t.layer("graph.shard_ms", median(t.durations("graph.shard"))/1e3, "ms")
	_, ok := g.CostQuantum()
	t.layer("graph.quantum_ok", float64(boolInt(ok)), "count")
	if _, done := t.layers["graph.reprice_us"]; !done {
		cur := g
		for i, b := range batches[:min(len(batches), 500)] {
			t0 := time.Now()
			cur = cur.WithCosts(applyBatch(cur.Costs(), b))
			cur.CostQuantum()
			t.add("graph.WithCosts", 0, int64(i), t0, time.Now(), 0)
		}
		t.layer("graph.reprice_us", median(t.durations("graph.WithCosts")), "us")
	}
}

// sweepLayers derives the per-size all-sources timings.
func (t *traceRun) sweepLayers() {
	for _, n := range sweepSizes {
		for _, name := range []string{"core.AllUnicastQuotes", "core.AllLinkQuotes"} {
			var ds []float64
			for _, s := range t.spans {
				if s.Name == name && s.N == n {
					ds = append(ds, s.micros()/1e3)
				}
			}
			key := "core.allsources_ms"
			if name == "core.AllLinkQuotes" {
				key = "core.alllink_ms"
			}
			t.layer(fmt.Sprintf("%s.n%d", key, n), median(ds), "ms")
		}
	}
}

// finish writes the spans out and hands the per-layer metrics to the
// outcome. Replay failures are correctness failures.
func (t *traceRun) finish(out *outcome) error {
	out.count(0, len(t.errs), t.errs)
	path := filepath.Join(t.env.work, "spans.jsonl")
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	sort.SliceStable(t.spans, func(i, j int) bool { return t.spans[i].Start < t.spans[j].Start })
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	t.layer("trace.spans", float64(len(t.spans)), "count")
	out.layers = t.layers
	out.note("wrote %d spans to %s", len(t.spans), path)
	return nil
}

// pipeListener is an in-memory net.Listener: dial hands one end of a
// net.Pipe to Accept, so serve.ServeBinary runs its real connection
// loop with no kernel socket underneath.
type pipeListener struct {
	conns chan net.Conn
	once  sync.Once
	done  chan struct{}
}

func newPipeListener() *pipeListener {
	return &pipeListener{conns: make(chan net.Conn), done: make(chan struct{})}
}

func (l *pipeListener) dial() net.Conn {
	client, server := net.Pipe()
	l.conns <- server
	return client
}

func (l *pipeListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

func (l *pipeListener) Close() error {
	l.once.Do(func() { close(l.done) })
	return nil
}

func (l *pipeListener) Addr() net.Addr { return pipeAddr{} }

type pipeAddr struct{}

func (pipeAddr) Network() string { return "pipe" }
func (pipeAddr) String() string  { return "pipe" }
