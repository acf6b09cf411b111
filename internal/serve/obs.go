package serve

import "truthroute/internal/obs"

// Server-side observability (DESIGN.md §10 conventions): every metric
// is a no-op until obs.Enable, so the daemon turns the layer on at
// startup while library users pay one atomic load per site.
var (
	// obsQuotesServed counts 200 quote responses; obsNoPath the 404s
	// (cross-component pairs); obsBadRequests the 400s.
	obsQuotesServed = obs.NewCounter("serve.quotes_served")
	obsNoPath       = obs.NewCounter("serve.no_path")
	obsBadRequests  = obs.NewCounter("serve.bad_requests")
	// obsRejected counts admission-control refusals (429) — the
	// backpressure signal, distinct from errors.
	obsRejected = obs.NewCounter("serve.rejected_overload")
	// obsBatches counts epoch flips; obsUpdatesApplied the individual
	// cost updates inside them.
	obsBatches        = obs.NewCounter("serve.batches_applied")
	obsUpdatesApplied = obs.NewCounter("serve.cost_updates_applied")
	// obsCacheHits/Misses split HTTP quote lookups by whether the
	// epoch's memo (shared with the binary plane) already held the
	// response; obsDestTables counts per-(epoch, target) table builds
	// of either kind, an all-sources quote table or a destination tree
	// (a lost concurrent build race counts too), and obsDestTableNS
	// their build time: the first miss toward a target in an epoch
	// pays it on top of its own quote.
	obsCacheHits   = obs.NewCounter("serve.quote_cache_hits")
	obsCacheMisses = obs.NewCounter("serve.quote_cache_misses")
	obsDestTables  = obs.NewCounter("serve.dest_tables_built")
	obsDestTableNS = obs.NewHistogram("serve.dest_table_build_ns", obs.LatencyBuckets())
	// obsDrains counts completed graceful drains.
	obsDrains = obs.NewCounter("serve.drains")

	// obsShards/obsNodes describe the served topology; obsEpochMax is
	// the highest epoch published by any shard; obsInflightPeak the
	// admission semaphore's high-water mark.
	obsShards       = obs.NewGauge("serve.shards")
	obsNodes        = obs.NewGauge("serve.nodes")
	obsEpochMax     = obs.NewGauge("serve.epoch_max")
	obsInflightPeak = obs.NewGauge("serve.inflight_peak")

	// obsLatencyNS is the server-side quote latency (parse to
	// response written).
	obsLatencyNS = obs.NewHistogram("serve.quote_latency_ns", obs.LatencyBuckets())

	// Binary plane (binary.go). Counters are split per protocol so
	// a mixed deployment can attribute load: serve.* above is the
	// HTTP/JSON surface, serve.binary.* the framed TCP surface.
	//
	// obsBinConns counts accepted connections; obsBinFramesIn/Out
	// the frames parsed and written across all of them.
	obsBinConns     = obs.NewCounter("serve.binary.conns_accepted")
	obsBinFramesIn  = obs.NewCounter("serve.binary.frames_in")
	obsBinFramesOut = obs.NewCounter("serve.binary.frames_out")
	// obsBinQuotesServed counts KindQuoteResp frames — the binary
	// twin of serve.quotes_served; obsBinBadRequests the
	// ErrCodeBadRequest refusals; obsBinEpochMismatch the pinned-epoch
	// refusals; obsBinProtoErrors the framing violations that
	// dropped a connection.
	obsBinQuotesServed  = obs.NewCounter("serve.binary.quotes_served")
	obsBinBadRequests   = obs.NewCounter("serve.binary.bad_requests")
	obsBinEpochMismatch = obs.NewCounter("serve.binary.epoch_mismatch")
	obsBinProtoErrors   = obs.NewCounter("serve.binary.proto_errors")
	// obsBinCacheHits/Misses split binary quote lookups by whether
	// the epoch's memo already held the payload — the binary twin of
	// serve.quote_cache_hits over the same memo, so a key first
	// filled by either plane is a hit for the other.
	obsBinCacheHits   = obs.NewCounter("serve.binary.frame_cache_hits")
	obsBinCacheMisses = obs.NewCounter("serve.binary.frame_cache_misses")

	// obsBinLatencyNS is the server-side binary quote latency
	// (request decoded to response frame queued), the per-protocol
	// histogram next to serve.quote_latency_ns.
	obsBinLatencyNS = obs.NewHistogram("serve.binary.quote_latency_ns", obs.LatencyBuckets())
)

// plane is one serving plane's request counters, handed to
// Server.resolve so both planes keep their own metric names.
type plane struct{ bad, hits, misses *obs.Counter }

var (
	httpPlane   = plane{obsBadRequests, obsCacheHits, obsCacheMisses}
	binaryPlane = plane{obsBinBadRequests, obsBinCacheHits, obsBinCacheMisses}
)
