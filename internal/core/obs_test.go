package core

import (
	"testing"

	"truthroute/internal/graph"
	"truthroute/internal/obs"
)

// TestSolverObservability checks the quote hot path feeds the obs
// layer when it is enabled: served-quote counts, pool hit/miss
// accounting and the latency histogram.
func TestSolverObservability(t *testing.T) {
	g := graph.Grid(4, 4)
	obs.Reset()
	obs.Enable()
	t.Cleanup(func() {
		obs.Disable()
		obs.Reset()
	})

	sv := NewSolver()
	q := &Quote{}
	const quotes = 5
	for i := 0; i < quotes; i++ {
		if err := sv.QuoteInto(q, g, 0, 15, EngineFast); err != nil {
			t.Fatal(err)
		}
	}
	s := obs.Default.Snapshot()
	if got := s.Counters["core.quotes_served"]; got != quotes {
		t.Errorf("core.quotes_served = %d, want %d", got, quotes)
	}
	hits, misses := s.Counters["core.pool_hits"], s.Counters["core.pool_misses"]
	if hits+misses != quotes {
		t.Errorf("pool hits %d + misses %d != %d acquisitions", hits, misses, quotes)
	}
	if misses < 1 {
		t.Errorf("first acquisition must be a pool miss; misses = %d", misses)
	}
	if hits < 1 {
		t.Errorf("a sequential warmed solver must hit the pool; hits = %d", hits)
	}
	if got := s.Histograms["core.quote_latency_ns"].Count; got != quotes {
		t.Errorf("latency histogram count = %d, want %d", got, quotes)
	}
}

// TestSolverObservabilityDisabled pins the default: with the layer
// off, instrumented runs leave every metric untouched.
func TestSolverObservabilityDisabled(t *testing.T) {
	obs.Reset()
	g := graph.Grid(3, 3)
	sv := NewSolver()
	if _, err := sv.Quote(g, 0, 8, EngineFast); err != nil {
		t.Fatal(err)
	}
	s := obs.Default.Snapshot()
	if s.Counters["core.quotes_served"] != 0 || s.Histograms["core.quote_latency_ns"].Count != 0 {
		t.Errorf("disabled obs recorded: %v", s.Counters)
	}
}

// TestAllSourcesObservability checks the batch engine's metrics: one
// solve per call and one subtree size per relay that carries traffic.
func TestAllSourcesObservability(t *testing.T) {
	obs.Reset()
	obs.Enable()
	t.Cleanup(func() {
		obs.Disable()
		obs.Reset()
	})
	// On the path 0-1-2-3 towards 0, relays 1 and 2 carry {2,3} and {3}.
	g := graph.NewNodeGraph(4)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(2, 3)
	AllUnicastQuotes(g, 0)
	s := obs.Default.Snapshot()
	if got := s.Counters["core.allsources_solves"]; got != 1 {
		t.Errorf("core.allsources_solves = %d, want 1", got)
	}
	if got := s.Histograms["core.allsources_subtree_nodes"]; got.Count != 2 || got.Sum != 3 {
		t.Errorf("subtree histogram count %d sum %v, want 2 relays over 3 sources", got.Count, got.Sum)
	}
}
