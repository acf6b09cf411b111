// Command truthrouted is the concurrent quote-serving daemon: it
// loads a NodeGraph topology (netgen -model node emits one), shards
// it by connected component, and serves VCG payment quotes over
// HTTP/JSON and, with -binary-addr, over the framed binary quote
// protocol (DESIGN.md §15).
//
// Usage:
//
//	truthrouted -topology net.json [-addr 127.0.0.1:8437] [-binary-addr 127.0.0.1:8438]
//
// HTTP endpoints:
//   - GET  /quote?src=S&dst=D — one payment quote (Algorithm 1)
//   - POST /update {"updates":[{"node":N,"cost":C},...]} — batched
//     cost updates, applied atomically per shard (epoch snapshot flip)
//   - GET  /epoch, GET /healthz — shard epochs and liveness
//   - /metrics, /debug/vars, /debug/pprof — observability surface
//
// The binary listener speaks length-prefixed "TQ" frames: quote
// requests resolve to the same pre-serialized bytes the HTTP path
// serves, with pipelining and connection reuse, at a fraction of the
// per-request cost (cmd/quoteload -proto binary drives it).
//
// SIGINT/SIGTERM drains gracefully: in-flight requests finish, new
// work is refused (503 over HTTP, a draining error frame over the
// binary protocol), then the process exits 0.
package main

import (
	"os"

	"truthroute/internal/cli"
)

func main() {
	os.Exit(cli.RunTruthrouted(os.Args[1:], os.Stdout, os.Stderr))
}
