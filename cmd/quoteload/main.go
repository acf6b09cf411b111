// Command quoteload load-tests a running truthrouted daemon with
// deterministic seeded workers and reports achieved throughput and
// latency percentiles (p50/p95/p99).
//
// Usage:
//
//	quoteload -addr 127.0.0.1:8437 -workers 8 -requests 10000 [-qps 500]
//	quoteload -proto binary -addr 127.0.0.1:8438 -workers 8 -pipeline 32 -duration 5s
//
// One driver runs both transports: -proto http (default) drives GET
// /quote, one request in flight per worker; -proto binary drives the
// framed TCP protocol (DESIGN.md §15) with one reused connection per
// worker and -pipeline requests kept in flight on each.
//
// With -bench NAME it also prints a `go test -bench`-format line so
// the run folds into the BENCH_payments.json pipeline:
//
//	quoteload -bench BenchmarkServeQuoteLoadHTTP ... | benchreport -input - -out -
package main

import (
	"os"

	"truthroute/internal/cli"
)

func main() {
	os.Exit(cli.RunQuoteload(os.Args[1:], os.Stdout, os.Stderr))
}
