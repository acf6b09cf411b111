package core

import (
	"math/rand/v2"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"truthroute/internal/graph"
	"truthroute/internal/obs"
	"truthroute/internal/sp"
)

// refQuote is the pre-workspace UnicastQuote with the naive engine,
// reconstructed from its building blocks: the regression oracle the
// pooled solver must match bit for bit.
func refQuote(g *graph.NodeGraph, s, t int) (*Quote, error) {
	treeS := sp.NodeDijkstra(g, s, nil)
	if !treeS.Reachable(t) {
		return nil, ErrNoPath
	}
	path := treeS.PathTo(t)
	cost := treeS.Dist[t]
	q := &Quote{Source: s, Target: t, Path: path, Cost: cost, Payments: make(map[int]float64, len(path))}
	replacement := sp.ReplacementCostsNaive(g, s, t, path)
	for _, k := range q.Relays() {
		q.Payments[k] = replacement[k] - cost + g.Cost(k)
	}
	return q, nil
}

func TestSolverMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(31, 1))
	sv := NewSolver()
	for trial := 0; trial < 100; trial++ {
		n := 3 + rng.IntN(40)
		g := graph.ErdosRenyi(n, 0.15, rng)
		g.RandomizeCosts(0.1, 5, rng)
		s, tgt := rng.IntN(n), rng.IntN(n)
		if s == tgt {
			tgt = (tgt + 1) % n
		}
		want, wantErr := refQuote(g, s, tgt)
		got, gotErr := sv.Quote(g, s, tgt, EngineNaive)
		if gotErr != wantErr {
			t.Fatalf("trial %d: err %v, want %v", trial, gotErr, wantErr)
		}
		if wantErr != nil {
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: solver quote\n%+v\nreference\n%+v", trial, got, want)
		}
	}
}

func TestSolverErrors(t *testing.T) {
	g := graph.Ring(4)
	sv := NewSolver()
	if _, err := sv.Quote(g, 2, 2, EngineFast); err == nil {
		t.Error("s == t accepted")
	}
	if _, err := sv.Quote(g, 0, 1, Engine(99)); err == nil {
		t.Error("unknown engine accepted")
	}
	split := graph.NewNodeGraph(4)
	split.AddEdge(0, 1)
	split.AddEdge(2, 3)
	if _, err := sv.Quote(split, 0, 3, EngineFast); err != ErrNoPath {
		t.Errorf("disconnected pair: err = %v, want ErrNoPath", err)
	}
}

// TestQuoteIntoClearsStaleState: recycling one Quote across requests
// must not leak payments (or path nodes) from the previous request.
func TestQuoteIntoClearsStaleState(t *testing.T) {
	long := graph.Ring(8) // 0→4 uses relays 1,2,3
	long.RandomizeCosts(1, 2, rand.New(rand.NewPCG(32, 1)))
	short := graph.NewNodeGraph(2)
	short.AddEdge(0, 1)
	sv := NewSolver()
	var q Quote
	if err := sv.QuoteInto(&q, long, 0, 4, EngineFast); err != nil {
		t.Fatal(err)
	}
	if len(q.Payments) == 0 || len(q.Path) != 5 {
		t.Fatalf("ring quote unexpectedly trivial: %+v", q)
	}
	if err := sv.QuoteInto(&q, short, 0, 1, EngineFast); err != nil {
		t.Fatal(err)
	}
	if len(q.Payments) != 0 {
		t.Errorf("stale payments survived reuse: %v", q.Payments)
	}
	if !reflect.DeepEqual(q.Path, []int{0, 1}) {
		t.Errorf("stale path survived reuse: %v", q.Path)
	}
}

// TestSolverSteadyStateAllocs is the tentpole's acceptance property:
// once the workspace and the recycled Quote are warm, a quote is
// allocation-free for both engines, as is a warmed workspace Dijkstra.
func TestSolverSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	g := graph.Grid(16, 16)
	g.RandomizeCosts(0.5, 5, rand.New(rand.NewPCG(33, 1)))
	g.CSR()
	sv := NewSolver()
	var q Quote
	for _, tc := range []struct {
		name   string
		engine Engine
	}{{"fast", EngineFast}, {"naive", EngineNaive}} {
		t.Run(tc.name, func(t *testing.T) {
			// Warm the pool and the Quote's buffers, then measure.
			for i := 0; i < 3; i++ {
				if err := sv.QuoteInto(&q, g, 0, g.N()-1, tc.engine); err != nil {
					t.Fatal(err)
				}
			}
			runtime.GC()
			avg := testing.AllocsPerRun(50, func() {
				if err := sv.QuoteInto(&q, g, 0, g.N()-1, tc.engine); err != nil {
					t.Fatal(err)
				}
			})
			if avg != 0 {
				t.Errorf("QuoteInto allocates %v times per run in the steady state, want 0", avg)
			}
		})
	}
	t.Run("dijkstra", func(t *testing.T) {
		w := sp.NewWorkspace(g.N())
		w.NodeDijkstra(g, 0, nil)
		runtime.GC()
		avg := testing.AllocsPerRun(50, func() { w.NodeDijkstra(g, 0, nil) })
		if avg != 0 {
			t.Errorf("workspace Dijkstra allocates %v times per run, want 0", avg)
		}
	})
}

// TestSolverConcurrent hammers ONE solver from many goroutines (this
// is the test the race detector watches) and checks every concurrent
// answer against a sequential one.
func TestSolverConcurrent(t *testing.T) {
	rng := rand.New(rand.NewPCG(34, 1))
	g := graph.RandomBiconnected(60, 0.08, rng)
	g.RandomizeCosts(0.1, 5, rng)
	sv := NewSolver()
	n := g.N()
	type req struct{ s, t int }
	reqs := make([]req, 200)
	want := make([]*Quote, len(reqs))
	for i := range reqs {
		s, tgt := rng.IntN(n), rng.IntN(n)
		if s == tgt {
			tgt = (tgt + 1) % n
		}
		reqs[i] = req{s, tgt}
		q, err := sv.Quote(g, s, tgt, EngineFast)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = q
	}
	got := make([]*Quote, len(reqs))
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(reqs); i += 8 {
				q, err := sv.Quote(g, reqs[i].s, reqs[i].t, EngineFast)
				if err != nil {
					t.Error(err)
					return
				}
				got[i] = q
			}
		}(w)
	}
	wg.Wait()
	for i := range reqs {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("request %d (%d→%d): concurrent quote differs from sequential", i, reqs[i].s, reqs[i].t)
		}
	}
}

// TestSolverWarm: Warm absorbs all pool misses up front, so every
// quote after startup is a pool hit — the property the serving
// daemon relies on so request one doesn't pay workspace construction.
func TestSolverWarm(t *testing.T) {
	if raceEnabled {
		// sync.Pool deliberately drops a random fraction of Puts in
		// race builds, so exact hit/miss counts only hold without it.
		t.Skip("pool hit/miss counts are nondeterministic under the race detector")
	}
	g := graph.Grid(8, 8)
	g.RandomizeCosts(0.5, 5, rand.New(rand.NewPCG(7, 1)))
	g.CSR()
	obs.Reset()
	obs.Enable()
	t.Cleanup(func() {
		obs.Disable()
		obs.Reset()
	})
	sv := NewSolver()
	const warmed = 2
	sv.Warm(g.N(), warmed)
	s := obs.Default.Snapshot()
	if got := s.Counters["core.pool_misses"]; got != warmed {
		t.Fatalf("Warm(%d) recorded %d pool misses", warmed, got)
	}
	var q Quote
	const quotes = 8
	for i := 0; i < quotes; i++ {
		if err := sv.QuoteInto(&q, g, 0, g.N()-1, EngineFast); err != nil {
			t.Fatal(err)
		}
	}
	s = obs.Default.Snapshot()
	if got := s.Counters["core.pool_misses"]; got != warmed {
		t.Errorf("sequential quotes after Warm recorded %d misses, want %d (warm-up only)", got, warmed)
	}
	if got := s.Counters["core.pool_hits"]; got != quotes {
		t.Errorf("pool hits = %d, want %d", got, quotes)
	}
}
