package cli

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"

	"truthroute/internal/serve"
)

// RunQuoteload load-tests a running truthrouted daemon with
// deterministic seeded workers (serve.RunLoad) and prints achieved
// throughput and latency percentiles. -proto selects the driver's
// transport: http drives GET /quote, one request in flight per
// worker; binary drives the framed TCP protocol with per-worker
// connection reuse and -pipeline requests in flight. With -bench
// it also emits a `go test -bench`-format line, so
//
//	quoteload -bench BenchmarkServeQuoteLoadHTTP ... | benchreport -input - -out -
//
// folds the load run into the BENCH_payments.json pipeline.
func RunQuoteload(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("quoteload", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", "127.0.0.1:8437", "daemon address: host:port, a full http:// base URL (http only), or file:PATH naming an -addr-file/-binary-addr-file written by truthrouted")
	proto := fs.String("proto", "http", "quote transport: http (GET /quote) or binary (framed TCP, DESIGN.md §15)")
	workers := fs.Int("workers", 4, "closed-loop workers (each keeps at most one request in flight over http, -pipeline over binary)")
	pipeline := fs.Int("pipeline", 1, "binary only: requests kept in flight per worker connection")
	qps := fs.Float64("qps", 0, "aggregate target rate the workers pace to (0 = as fast as the loops close)")
	requests := fs.Int("requests", 0, "total request budget (default 2000 when -duration is unset)")
	duration := fs.Duration("duration", 0, "wall-clock budget, an alternative stop rule")
	seed := fs.Uint64("seed", 1, "random seed for (src, dst) pair selection")
	nodes := fs.Int("n", 0, "node-id space to draw pairs from (0 = ask the daemon: /healthz over http, an info frame over binary)")
	benchName := fs.String("bench", "", "also emit a go-bench-format line under this Benchmark* name")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *requests <= 0 && *duration <= 0 {
		*requests = 2000
	}
	if *proto != "http" && *proto != "binary" {
		fmt.Fprintln(stderr, "quoteload: -proto must be http or binary")
		return 2
	}
	if *proto == "http" && *pipeline > 1 {
		fmt.Fprintln(stderr, "quoteload: -pipeline needs -proto binary (HTTP/1.1 has no response pipelining)")
		return 2
	}

	base := *addr
	if strings.HasPrefix(base, "file:") {
		blob, err := os.ReadFile(strings.TrimPrefix(base, "file:"))
		if err != nil {
			fmt.Fprintln(stderr, "quoteload:", err)
			return 1
		}
		base = strings.TrimSpace(string(blob))
	}

	opt := serve.LoadOptions{
		N:        *nodes,
		Workers:  *workers,
		QPS:      *qps,
		Requests: *requests,
		Duration: *duration,
		Seed:     *seed,
		Pipeline: *pipeline,
	}

	var dial func() (serve.LoadTransport, error)
	switch *proto {
	case "http":
		if !strings.HasPrefix(base, "http://") && !strings.HasPrefix(base, "https://") {
			base = "http://" + base
		}
		client := &http.Client{}
		if opt.N == 0 {
			resp, herr := client.Get(base + "/healthz")
			if herr != nil {
				fmt.Fprintln(stderr, "quoteload:", herr)
				return 1
			}
			var h serve.HealthResponse
			herr = json.NewDecoder(resp.Body).Decode(&h)
			_ = resp.Body.Close()
			if herr != nil {
				fmt.Fprintln(stderr, "quoteload: decoding /healthz:", herr)
				return 1
			}
			opt.N = h.Nodes
		}
		dial = serve.HTTPQuoteDo(client, base)
	case "binary":
		if strings.Contains(base, "://") {
			fmt.Fprintln(stderr, "quoteload: -proto binary takes a host:port address, not a URL")
			return 2
		}
		if opt.N == 0 {
			probe, derr := serve.DialBinary(base)
			if derr != nil {
				fmt.Fprintln(stderr, "quoteload:", derr)
				return 1
			}
			info, ierr := probe.Info()
			_ = probe.Close()
			if ierr != nil {
				fmt.Fprintln(stderr, "quoteload:", ierr)
				return 1
			}
			opt.N = int(info.Nodes)
		}
		dial = serve.BinaryQuoteDo(base)
	}
	res, err := serve.RunLoad(dial, opt)
	if err != nil {
		fmt.Fprintln(stderr, "quoteload:", err)
		return 1
	}
	fmt.Fprintln(stdout, res.String())
	if *benchName != "" {
		fmt.Fprintln(stdout, res.BenchLine(*benchName))
	}
	if res.Errors > 0 {
		fmt.Fprintf(stderr, "quoteload: %d requests failed\n", res.Errors)
		return 1
	}
	return 0
}
