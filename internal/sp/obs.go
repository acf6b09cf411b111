package sp

import "truthroute/internal/obs"

// Workspace-reuse instrumentation (DESIGN.md §10). No-ops until
// obs.Enable; the disabled path is one atomic load per Dijkstra run,
// preserving the workspace's zero-allocation steady state.
var (
	// obsRuns counts workspace Dijkstra runs (node and link flavours).
	obsRuns = obs.NewCounter("sp.dijkstra_runs")
	// obsTouched is the per-run distribution of nodes a tree run
	// wrote — the "touched component" whose size, not n, bounds the
	// reset work.
	obsTouched = obs.NewHistogram("sp.touched_nodes", obs.SizeBuckets())
	// obsRollback is the per-run distribution of entries begin() had
	// to roll back from the previous run on the same workspace; its
	// shape should track obsTouched one run behind.
	obsRollback = obs.NewHistogram("sp.rollback_nodes", obs.SizeBuckets())
)
