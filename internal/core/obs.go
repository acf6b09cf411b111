package core

import "truthroute/internal/obs"

// Observability instrumentation for the quote hot path (DESIGN.md
// §10). All metrics are no-ops until obs.Enable — the disabled path
// is a single atomic load per call site, so the solver's 0 allocs/op
// steady state (TestSolverSteadyStateAllocs) is unaffected.
var (
	// obsQuotes counts successfully served quotes (Solver.QuoteInto
	// completions, which every public quote entry point routes
	// through).
	obsQuotes = obs.NewCounter("core.quotes_served")
	// obsPoolHits/obsPoolMisses split workspace acquisitions into
	// recycled vs freshly allocated — the pool's effectiveness. A
	// steady-state service should see misses stay flat while hits
	// grow.
	obsPoolHits   = obs.NewCounter("core.pool_hits")
	obsPoolMisses = obs.NewCounter("core.pool_misses")
	// obsQuoteNS is the per-quote wall latency in nanoseconds.
	obsQuoteNS = obs.NewHistogram("core.quote_latency_ns", obs.LatencyBuckets())
	// obsBatchSolves counts all-sources solves (AllUnicastQuotes and
	// AllLinkQuotes calls, one destination each); obsBatchSubtree is
	// the distribution of relay subtree sizes |T_k| their per-relay
	// searches ran over, the batch engine's counterpart of
	// sp.touched_nodes.
	obsBatchSolves  = obs.NewCounter("core.allsources_solves")
	obsBatchSubtree = obs.NewHistogram("core.allsources_subtree_nodes", obs.SizeBuckets())
)
