package serve

import (
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"sort"
	"sync"
	"time"
)

// This file is the load-test harness behind cmd/quoteload and the
// Serve*QuoteLoad benchmarks: one driver of deterministic seeded
// windowed workers at an optional target QPS, aggregating latency
// percentiles, over a two-method LoadTransport. The HTTP transport is
// its depth-1 case, the binary transport pipelines; the CLI measures
// the daemon over real sockets while benchmarks and tests drive
// ServeHTTP and net.Pipe connections in-process.

// now reads the wall clock for load measurement.
//
//lint:allow determinism the load harness measures real latency and throughput; it never feeds mechanism output
func now() time.Time { return time.Now() }

// LoadOptions configures a load run. Exactly one of Requests and
// Duration must be positive.
type LoadOptions struct {
	// N is the node-id space (src, dst) pairs are drawn from,
	// uniformly with src != dst.
	N int
	// Workers is the number of workers, each over its own transport
	// with at most Pipeline requests outstanding. Default 4.
	Workers int
	// QPS is the aggregate target rate the workers pace themselves
	// to; 0 issues as fast as the loops close. A worker that falls
	// behind its schedule does not burst to catch up.
	QPS float64
	// Requests is the total request budget, split across workers.
	Requests int
	// Duration is the wall-clock budget, an alternative stop rule.
	Duration time.Duration
	// Seed makes pair selection deterministic per (Seed, worker).
	Seed uint64
	// Pipeline is the per-worker in-flight window: each worker keeps
	// up to Pipeline requests outstanding on its transport before
	// blocking on a response. 1 (and 0) is the closed loop; the HTTP
	// transport, which has no response pipelining, issues a deeper
	// window's requests one after another.
	Pipeline int
}

// LoadResult aggregates one load run. Latency percentiles cover
// answered requests (200 and 404 both exercise the read path);
// admission refusals (429) count as backpressure, not latency.
type LoadResult struct {
	Requests int // requests issued
	OK       int // 200 responses
	NoPath   int // 404 responses (cross-component pairs)
	Rejected int // 429 admission refusals
	Errors   int // transport failures and unexpected statuses
	Elapsed  time.Duration

	latencies []time.Duration
	sorted    bool
}

// QPS is the achieved throughput: answered requests per second.
func (r *LoadResult) QPS() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.OK+r.NoPath) / r.Elapsed.Seconds()
}

// Percentile returns the p-th latency percentile (nearest-rank, p in
// (0, 100]) over answered requests, or 0 when none were answered.
func (r *LoadResult) Percentile(p float64) time.Duration {
	if len(r.latencies) == 0 {
		return 0
	}
	if !r.sorted {
		sort.Slice(r.latencies, func(i, j int) bool { return r.latencies[i] < r.latencies[j] })
		r.sorted = true
	}
	idx := int(p/100*float64(len(r.latencies))+0.5) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(r.latencies) {
		idx = len(r.latencies) - 1
	}
	return r.latencies[idx]
}

// String renders the one-line human summary quoteload prints.
func (r *LoadResult) String() string {
	return fmt.Sprintf(
		"%d requests in %.2fs: %d ok, %d no-path, %d rejected, %d errors; %.0f qps; p50 %s p95 %s p99 %s",
		r.Requests, r.Elapsed.Seconds(), r.OK, r.NoPath, r.Rejected, r.Errors,
		r.QPS(), r.Percentile(50), r.Percentile(95), r.Percentile(99))
}

// BenchLine renders the run as one `go test -bench -benchmem`-style
// line so `quoteload | benchreport -input -` folds load results into
// the BENCH_payments.json artifact next to the solver benchmarks.
func (r *LoadResult) BenchLine(name string) string {
	answered := r.OK + r.NoPath
	nsPerOp := 0.0
	if answered > 0 {
		nsPerOp = float64(r.Elapsed.Nanoseconds()) / float64(answered)
	}
	return fmt.Sprintf("%s %d %.1f ns/op %d p50-ns %d p95-ns %d p99-ns %.1f qps",
		name, answered, nsPerOp,
		r.Percentile(50).Nanoseconds(), r.Percentile(95).Nanoseconds(),
		r.Percentile(99).Nanoseconds(), r.QPS())
}

type workerStats struct {
	requests, ok, noPath, rejected, errs int
	latencies                            []time.Duration
}

// LoadTransport is one load worker's connection to a quote service.
// Send issues the quote request for one pair, possibly buffered until
// the next Recv. Recv waits for the outcome of the oldest request not
// yet received, as the HTTP status that answers it (0 for a request
// lost in transit), and errs only when the transport can answer
// nothing more. RunLoad closes a transport that is an io.Closer.
type LoadTransport interface {
	Send(req BinaryRequest) error
	Recv() (status int, err error)
}

// RunLoad drives opt.Workers workers, each over its own transport from
// dial and keeping up to opt.Pipeline requests in flight on it, and
// merges their stats. Latency is measured send-to-receive per request,
// so at depth > 1 it includes pipeline queueing, the number a real
// pipelining client experiences. Quote responses and no-path refusals
// are answered requests with latencies, overload refusals are
// backpressure, and transport failures (including requests a dead
// transport never answered) are errors.
func RunLoad(dial func() (LoadTransport, error), opt LoadOptions) (*LoadResult, error) {
	if opt.N < 2 {
		return nil, fmt.Errorf("serve: load needs at least 2 nodes, have %d", opt.N)
	}
	if opt.Requests <= 0 && opt.Duration <= 0 {
		return nil, fmt.Errorf("serve: load needs a request or duration budget")
	}
	workers := opt.Workers
	if workers <= 0 {
		workers = 4
	}
	if opt.Requests > 0 && workers > opt.Requests {
		workers = opt.Requests
	}
	depth := opt.Pipeline
	if depth <= 0 {
		depth = 1
	}
	var tick time.Duration
	if opt.QPS > 0 {
		tick = time.Duration(float64(workers) / opt.QPS * float64(time.Second))
	}
	start := now()
	var deadline time.Time
	if opt.Duration > 0 {
		deadline = start.Add(opt.Duration)
	}
	stats := make([]workerStats, workers)
	var wg sync.WaitGroup
	for wk := 0; wk < workers; wk++ {
		budget := 0
		if opt.Requests > 0 {
			budget = opt.Requests / workers
			if wk < opt.Requests%workers {
				budget++
			}
		}
		wg.Add(1)
		go func(wk, budget int) {
			defer wg.Done()
			st := &stats[wk]
			tr, err := dial()
			if err != nil {
				st.errs++
				return
			}
			if c, ok := tr.(io.Closer); ok {
				defer func() { _ = c.Close() }()
			}
			rng := rand.New(rand.NewPCG(opt.Seed, uint64(wk)+1))
			// more reports whether budget and deadline allow a send;
			// window holds the send times in flight, oldest first.
			more := func() bool {
				return (budget == 0 || st.requests < budget) && (deadline.IsZero() || now().Before(deadline))
			}
			window := make([]time.Time, 0, depth)
			// Phase-spread the workers so a paced run doesn't fire
			// all workers on the same schedule tick.
			next := start.Add(tick * time.Duration(wk) / time.Duration(workers))
			dead := false
			for {
				for !dead && len(window) < depth && more() {
					if tick > 0 {
						// Never sleep past the deadline, and recheck
						// it after waking.
						wake := next
						if !deadline.IsZero() && deadline.Before(wake) {
							wake = deadline
						}
						time.Sleep(wake.Sub(now()))
						next = next.Add(tick)
						if !more() {
							break
						}
					}
					src := rng.IntN(opt.N)
					dst := rng.IntN(opt.N - 1)
					if dst >= src {
						dst++
					}
					st.requests++
					if err := tr.Send(BinaryRequest{Src: uint32(src), Dst: uint32(dst)}); err != nil {
						st.errs++
						dead = true
						break
					}
					window = append(window, now())
				}
				if len(window) == 0 {
					return
				}
				// Receive in bursts: while more sends remain, drain only
				// to half depth before refilling, so each flush (a
				// binary Recv flushes pending sends) carries ~depth/2
				// requests instead of the one a lock-step loop would
				// send. When the budget is spent, drain the window
				// completely.
				low := 0
				if !dead && more() {
					low = depth / 2
				}
				// head indexes the oldest unanswered request; the
				// consumed prefix is compacted once per burst instead of
				// memmoving the window on every response.
				head := 0
				for len(window)-head > low {
					status, err := tr.Recv()
					if err != nil {
						// The transport died with the rest of the window
						// owed; every unanswered request is a failure.
						st.errs += len(window) - head
						return
					}
					d := now().Sub(window[head])
					head++
					switch status {
					case http.StatusOK:
						st.ok++
						st.latencies = append(st.latencies, d)
					case http.StatusNotFound:
						st.noPath++
						st.latencies = append(st.latencies, d)
					case http.StatusTooManyRequests:
						st.rejected++
					default:
						st.errs++
					}
				}
				window = append(window[:0], window[head:]...)
			}
		}(wk, budget)
	}
	wg.Wait()
	res := &LoadResult{Elapsed: now().Sub(start)}
	for i := range stats {
		st := &stats[i]
		res.Requests += st.requests
		res.OK += st.ok
		res.NoPath += st.noPath
		res.Rejected += st.rejected
		res.Errors += st.errs
		res.latencies = append(res.latencies, st.latencies...)
	}
	return res, nil
}

// httpTransport is the HTTP LoadTransport: Send queues the pair and
// Recv issues the oldest queued one as GET /quote through do, so
// HTTP/1.1, which has no response pipelining, is the depth-1 case.
type httpTransport struct {
	// do issues one GET for a /quote target and returns its status,
	// or 0 when the request failed in transit.
	do    func(target string) int
	queue []BinaryRequest
}

func (t *httpTransport) Send(req BinaryRequest) error {
	t.queue = append(t.queue, req)
	return nil
}

func (t *httpTransport) Recv() (int, error) {
	req := t.queue[0]
	t.queue = t.queue[:copy(t.queue, t.queue[1:])]
	return t.do(fmt.Sprintf("/quote?src=%d&dst=%d", req.Src, req.Dst)), nil
}

// HTTPQuoteDo returns the dial for RunLoad's HTTP transport: real
// GET /quote requests against base (e.g. "http://127.0.0.1:8437")
// using client. Response bodies are drained so connections are
// reused.
func HTTPQuoteDo(client *http.Client, base string) func() (LoadTransport, error) {
	do := func(target string) int {
		resp, err := client.Get(base + target)
		if err != nil {
			return 0
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		_ = resp.Body.Close()
		return resp.StatusCode
	}
	return func() (LoadTransport, error) { return &httpTransport{do: do}, nil }
}

// binaryTransport is the binary-protocol LoadTransport over one
// BinaryClient connection: Send buffers a request frame, Recv flushes
// and reads the next response, checking its echoed reqid.
type binaryTransport struct {
	c              *BinaryClient
	sent, received uint32 // reqids of the last request sent and answered
}

func (t *binaryTransport) Send(req BinaryRequest) error {
	t.sent++
	return t.c.Send(t.sent, &req)
}

func (t *binaryTransport) Recv() (int, error) {
	res, err := t.c.Recv()
	if err != nil {
		return 0, err
	}
	t.received++
	switch {
	case res.ReqID != t.received:
		// A desynchronized stream cannot attribute any further
		// response.
		return 0, fmt.Errorf("serve: wire: response reqid %d, want %d", res.ReqID, t.received)
	case res.Kind == KindQuoteResp:
		return http.StatusOK, nil
	case res.Kind == KindError:
		return httpStatus(res.Err.Code), nil
	}
	return 0, nil
}

func (t *binaryTransport) Close() error { return t.c.Close() }

// BinaryQuoteDo returns the dial for RunLoad's binary transport: one
// connection to the binary listener at addr (host:port) per worker,
// reused for its whole run.
func BinaryQuoteDo(addr string) func() (LoadTransport, error) {
	return func() (LoadTransport, error) {
		c, err := DialBinary(addr)
		if err != nil {
			return nil, err
		}
		return &binaryTransport{c: c}, nil
	}
}
