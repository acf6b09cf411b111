package serve

import (
	"bytes"
	"encoding/json"
	"math/rand/v2"
	"net"
	"net/http"
	"net/http/httptest"
	"testing"

	"truthroute/internal/graph"
)

func benchServer(b *testing.B, n int) *Server {
	b.Helper()
	rng := rand.New(rand.NewPCG(0xbe9c, 1))
	g := graph.RandomBiconnected(n, 0.2, rng)
	g.RandomizeCosts(0.5, 8, rng)
	s := New(g, Config{MaxInFlight: 4096})
	b.Cleanup(s.Drain)
	return s
}

// inProcHTTP dials RunLoad's HTTP transport straight into s's
// ServeHTTP.
func inProcHTTP(s *Server) func() (LoadTransport, error) {
	return func() (LoadTransport, error) {
		return &httpTransport{do: func(target string) int {
			return doBenchReq(s, "GET", target, nil).Code
		}}, nil
	}
}

// inProcBinary dials RunLoad's binary transport over a net.Pipe
// connection served by s.
func inProcBinary(s *Server) func() (LoadTransport, error) {
	return func() (LoadTransport, error) {
		cEnd, sEnd := net.Pipe()
		go s.serveConn(sEnd)
		return &binaryTransport{c: NewBinaryClient(cEnd)}, nil
	}
}

func doBenchReq(s *Server, method, target string, body []byte) *httptest.ResponseRecorder {
	var r *http.Request
	if body == nil {
		r = httptest.NewRequest(method, target, nil)
	} else {
		r = httptest.NewRequest(method, target, bytes.NewReader(body))
	}
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, r)
	return rec
}

// BenchmarkServeQuoteCached measures the steady-state read path: the
// per-(source, target) memo is warm, so each request is one
// atomic snapshot load, one cache hit, and the response write.
func BenchmarkServeQuoteCached(b *testing.B) {
	s := benchServer(b, 64)
	if rec := doBenchReq(s, "GET", "/quote?src=0&dst=40", nil); rec.Code != http.StatusOK {
		b.Fatalf("warmup status %d", rec.Code)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rec := doBenchReq(s, "GET", "/quote?src=0&dst=40", nil); rec.Code != http.StatusOK {
			b.Fatalf("status %d", rec.Code)
		}
	}
}

// BenchmarkServeQuoteCold measures the uncached path: every request
// lands on a fresh epoch, so the shard rebuilds its table toward the
// target (on these continuous costs a destination tree) and fills the
// quote memo — the cost an update storm imposes on the first reader
// toward each target.
func BenchmarkServeQuoteCold(b *testing.B) {
	s := benchServer(b, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		// Flip the epoch outside the timed section; vary the cost so
		// consecutive snapshots genuinely differ.
		blob, err := json.Marshal(UpdateRequest{Updates: []CostUpdate{
			{Node: 7, Cost: 1 + float64(i%9)*0.5},
		}})
		if err != nil {
			b.Fatal(err)
		}
		if rec := doBenchReq(s, "POST", "/update", blob); rec.Code != http.StatusOK {
			b.Fatalf("update status %d", rec.Code)
		}
		b.StartTimer()
		if rec := doBenchReq(s, "GET", "/quote?src=0&dst=40", nil); rec.Code != http.StatusOK {
			b.Fatalf("status %d", rec.Code)
		}
	}
}

// BenchmarkServeUpdateBatch measures an epoch flip: validate the
// batch, copy the cost vector, re-price via the shared CSR, publish
// the next snapshot.
func BenchmarkServeUpdateBatch(b *testing.B) {
	s := benchServer(b, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		blob, err := json.Marshal(UpdateRequest{Updates: []CostUpdate{
			{Node: 3, Cost: 1 + float64(i%7)},
			{Node: 41, Cost: 2 + float64(i%5)},
		}})
		if err != nil {
			b.Fatal(err)
		}
		if rec := doBenchReq(s, "POST", "/update", blob); rec.Code != http.StatusOK {
			b.Fatalf("update status %d", rec.Code)
		}
	}
}

// BenchmarkServeQuoteLoad drives the in-process server through the
// quoteload harness and reports latency percentiles and achieved
// throughput as custom metrics, folding serving performance into the
// BENCH_payments.json artifact alongside the solver benchmarks.
func BenchmarkServeQuoteLoad(b *testing.B) {
	const n = 64
	s := benchServer(b, n)
	b.ReportAllocs()
	b.ResetTimer()
	res, err := RunLoad(inProcHTTP(s), LoadOptions{N: n, Workers: 4, Requests: b.N, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	if res.Errors > 0 {
		b.Fatalf("%d load errors", res.Errors)
	}
	b.ReportMetric(float64(res.Percentile(50).Nanoseconds()), "p50-ns")
	b.ReportMetric(float64(res.Percentile(95).Nanoseconds()), "p95-ns")
	b.ReportMetric(float64(res.Percentile(99).Nanoseconds()), "p99-ns")
	b.ReportMetric(res.QPS(), "qps")
}

// BenchmarkServeBinaryQuoteFrame is the socket-free binary hot path
// and the regression gate for it: admission, snapshot load, frame
// cache hit, response enqueue — everything the server does per warm
// binary quote except the kernel. Deliberately no sockets or
// goroutine handoff, so the number is stable enough to gate on.
func BenchmarkServeBinaryQuoteFrame(b *testing.B) {
	s := benchServer(b, 64)
	out := make(chan binFrame, 1)
	req := BinaryRequest{Src: 0, Dst: 40}
	if s.handleBinaryQuote(out, 1, &req); (<-out).kind != KindQuoteResp {
		b.Fatal("warmup refused")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.handleBinaryQuote(out, uint32(i), &req)
		if f := <-out; f.kind != KindQuoteResp {
			b.Fatalf("kind %#02x", f.kind)
		}
	}
}

// BenchmarkServeBinaryQuoteCached is the binary twin of
// BenchmarkServeQuoteCached: one warm unpipelined quote round trip
// over an in-memory connection, including both per-connection loops
// and the frame codec.
func BenchmarkServeBinaryQuoteCached(b *testing.B) {
	s := benchServer(b, 64)
	c := pipeClient(b, s)
	req := BinaryRequest{Src: 0, Dst: 40}
	if res, err := c.Quote(&req); err != nil || res.Kind != KindQuoteResp {
		b.Fatalf("warmup: kind %#02x err %v", res.Kind, err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := c.Quote(&req)
		if err != nil {
			b.Fatal(err)
		}
		if res.Kind != KindQuoteResp {
			b.Fatalf("kind %#02x", res.Kind)
		}
	}
}

// BenchmarkServeBinaryQuoteLoad drives the binary plane through the
// pipelined load harness over in-memory connections — the number
// quoted next to BenchmarkServeQuoteLoad when comparing transports in
// EXPERIMENTS.md.
func BenchmarkServeBinaryQuoteLoad(b *testing.B) {
	const n = 64
	s := benchServer(b, n)
	b.ReportAllocs()
	b.ResetTimer()
	res, err := RunLoad(inProcBinary(s), LoadOptions{N: n, Workers: 4, Requests: b.N, Seed: 1, Pipeline: 128})
	if err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	if res.Errors > 0 {
		b.Fatalf("%d load errors", res.Errors)
	}
	b.ReportMetric(float64(res.Percentile(50).Nanoseconds()), "p50-ns")
	b.ReportMetric(float64(res.Percentile(95).Nanoseconds()), "p95-ns")
	b.ReportMetric(float64(res.Percentile(99).Nanoseconds()), "p99-ns")
	b.ReportMetric(res.QPS(), "qps")
}
