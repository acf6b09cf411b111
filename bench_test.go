package truthroute

// One benchmark per panel of the paper's evaluation (Figure 3) plus
// the design-choice ablations called out in DESIGN.md §6. The figure
// benchmarks run the reduced (smoke) campaign per iteration so
// `go test -bench .` stays laptop-friendly; `cmd/unicast-sim -full`
// regenerates the paper-scale series (recorded in EXPERIMENTS.md).

import (
	"io"
	"math/rand/v2"
	"testing"

	"truthroute/internal/auth"
	"truthroute/internal/core"
	"truthroute/internal/dist"
	"truthroute/internal/experiment"
	"truthroute/internal/graph"
	"truthroute/internal/netsim"
	"truthroute/internal/sp"
	"truthroute/internal/wireless"
)

func benchFigure(b *testing.B, id string) {
	for i := 0; i < b.N; i++ {
		s, err := experiment.RunFigure(id, false, 2004)
		if err != nil {
			b.Fatal(err)
		}
		s.Render(io.Discard)
	}
}

func BenchmarkFigure3a(b *testing.B)   { benchFigure(b, "3a") }
func BenchmarkFigure3b(b *testing.B)   { benchFigure(b, "3b") }
func BenchmarkFigure3c(b *testing.B)   { benchFigure(b, "3c") }
func BenchmarkFigure3d(b *testing.B)   { benchFigure(b, "3d") }
func BenchmarkFigure3e(b *testing.B)   { benchFigure(b, "3e") }
func BenchmarkFigure3f(b *testing.B)   { benchFigure(b, "3f") }
func BenchmarkFigureNode(b *testing.B) { benchFigure(b, "node") }
func BenchmarkFigureTopo(b *testing.B) { benchFigure(b, "topo") }
func BenchmarkFigureLife(b *testing.B) { benchFigure(b, "life") }

// --- Worked examples (Figures 2 and 4) as micro-benchmarks: the
// full quote on each fixture.

func BenchmarkFigure2Quote(b *testing.B) {
	g := graph.Figure2()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := core.UnicastQuote(g, 1, 0, core.EngineFast); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure4Resale(b *testing.B) {
	g := graph.Figure4()
	for i := 0; i < b.N; i++ {
		if _, err := core.UnicastQuote(g, 8, 0, core.EngineFast); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablation A1: Dijkstra, one-shot and on a warmed workspace.

func BenchmarkDijkstraBinaryHeap(b *testing.B) {
	rng := rand.New(rand.NewPCG(1, 0))
	g := graph.RandomBiconnected(2048, 4.0/2048, rng)
	g.RandomizeCosts(0.5, 5, rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sp.NodeDijkstra(g, 0, nil)
	}
}

// BenchmarkDijkstraWorkspace times one source Dijkstra on a warmed
// workspace — the steady-state shape of every solver run, with no
// per-run tree allocation (BenchmarkDijkstraBinaryHeap above pays
// it). Quarter-integer costs make the instance exact
// (graph.CostQuantum), the serving regime.
func BenchmarkDijkstraWorkspace(b *testing.B) {
	rng := rand.New(rand.NewPCG(1, 0))
	g := graph.RandomBiconnected(2048, 4.0/2048, rng)
	for v := 0; v < g.N(); v++ {
		g.SetCost(v, 0.5+float64(rng.IntN(18))/4)
	}
	w := sp.NewWorkspace(g.N())
	w.NodeDijkstra(g, 0, nil) // warm the heap and the tree arrays
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.NodeDijkstra(g, 0, nil)
	}
}

// Scaling curve for the workspace Dijkstra: single-source runs at
// n ∈ {10^4, 10^5, 10^6} on sparse (deg ≈ 4) quarter-cost graphs.
// graph.RandomSparse generates in O(n·deg); the quadratic generators
// cannot reach this scale.
func quantizedSparse(n int, seed uint64) *graph.NodeGraph {
	rng := rand.New(rand.NewPCG(seed, 0))
	g := graph.RandomSparse(n, 4, rng)
	for v := 0; v < n; v++ {
		g.SetCost(v, 0.5+float64(rng.IntN(18))/4)
	}
	return g
}

func benchDijkstraScale(b *testing.B, n int) {
	g := quantizedSparse(n, uint64(n))
	w := sp.NewWorkspace(n)
	w.NodeDijkstra(g, 0, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.NodeDijkstra(g, 0, nil)
	}
}

func BenchmarkDijkstraWorkspace10k(b *testing.B)  { benchDijkstraScale(b, 10_000) }
func BenchmarkDijkstraWorkspace100k(b *testing.B) { benchDijkstraScale(b, 100_000) }
func BenchmarkDijkstraWorkspace1M(b *testing.B)   { benchDijkstraScale(b, 1_000_000) }

// --- Ablation A2: the paper's fast Algorithm 1 vs the naive
// one-Dijkstra-per-relay payment computation. Grid topologies give
// corner-to-corner routes with Θ(√n) relays — the regime the
// O((n+m) log n) bound targets, since the naive method pays one full
// Dijkstra per relay.

func benchPayment(b *testing.B, side int, e core.Engine) {
	rng := rand.New(rand.NewPCG(2, uint64(side)))
	g := graph.Grid(side, side)
	g.RandomizeCosts(0.5, 5, rng)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.UnicastQuote(g, 0, side*side-1, e); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPaymentNaive256(b *testing.B)  { benchPayment(b, 16, core.EngineNaive) }
func BenchmarkPaymentFast256(b *testing.B)   { benchPayment(b, 16, core.EngineFast) }
func BenchmarkPaymentNaive1024(b *testing.B) { benchPayment(b, 32, core.EngineNaive) }
func BenchmarkPaymentFast1024(b *testing.B)  { benchPayment(b, 32, core.EngineFast) }
func BenchmarkPaymentNaive4096(b *testing.B) { benchPayment(b, 64, core.EngineNaive) }
func BenchmarkPaymentFast4096(b *testing.B)  { benchPayment(b, 64, core.EngineFast) }

// The fully amortized path: a held Solver and a recycled Quote, the
// shape a long-lived quote server runs in. allocs/op must be 0 (the
// same property TestSolverSteadyStateAllocs asserts).
func benchPaymentSolver(b *testing.B, side int, e core.Engine) {
	rng := rand.New(rand.NewPCG(2, uint64(side)))
	g := graph.Grid(side, side)
	g.RandomizeCosts(0.5, 5, rng)
	sv := core.NewSolver()
	var q core.Quote
	if err := sv.QuoteInto(&q, g, 0, side*side-1, e); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sv.QuoteInto(&q, g, 0, side*side-1, e); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPaymentFastSolver256(b *testing.B)  { benchPaymentSolver(b, 16, core.EngineFast) }
func BenchmarkPaymentFastSolver1024(b *testing.B) { benchPaymentSolver(b, 32, core.EngineFast) }
func BenchmarkPaymentFastSolver4096(b *testing.B) { benchPaymentSolver(b, 64, core.EngineFast) }

// --- Ablation A3: batch all-sources engine (§III.C recurrence) vs
// per-source quotes, the choice that makes Figure 3 tractable.

func BenchmarkAllSourcesBatch(b *testing.B) {
	rng := rand.New(rand.NewPCG(3, 0))
	g := graph.RandomBiconnected(512, 6.0/512, rng)
	g.RandomizeCosts(0.5, 5, rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.AllUnicastQuotes(g, 0)
	}
}

func BenchmarkAllSourcesPerSource(b *testing.B) {
	rng := rand.New(rand.NewPCG(3, 0))
	g := graph.RandomBiconnected(512, 6.0/512, rng)
	g.RandomizeCosts(0.5, 5, rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for s := 1; s < g.N(); s++ {
			if _, err := core.UnicastQuote(g, s, 0, core.EngineFast); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// --- §III.C convergence claim: full two-stage distributed protocol.

func BenchmarkDistributedProtocol(b *testing.B) {
	rng := rand.New(rand.NewPCG(4, 0))
	g := graph.RandomBiconnected(64, 0.08, rng)
	g.RandomizeCosts(1, 8, rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net := dist.NewNetwork(g, 0, nil)
		net.RunProtocol(64 * 50)
	}
}

// BenchmarkProtocolUnderLoss prices the ARQ repair layer: the same
// 64-node protocol run with 10% i.i.d. frame loss and a mid-stage
// crash/recover event (compare against BenchmarkDistributedProtocol
// for the fault-free cost).
func BenchmarkProtocolUnderLoss(b *testing.B) {
	rng := rand.New(rand.NewPCG(4, 0))
	g := graph.RandomBiconnected(64, 0.08, rng)
	g.RandomizeCosts(1, 8, rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net := dist.NewNetwork(g, 0, nil)
		net.SetFaults(&dist.FaultPlan{Seed: uint64(i), Loss: 0.10,
			Crashes: []dist.CrashEvent{{Node: 5, At: 6, Recover: 18}}})
		if _, _, converged := net.RunProtocol(64 * 600); !converged {
			b.Fatal("no quiescence under loss")
		}
	}
}

// BenchmarkProtocolUnderAdversary prices the whole Byzantine
// recovery pipeline: a 64-node network with a planted underpayer,
// signed frames and quorum-1 eviction, run epochally through
// detection, eviction and self-healing re-convergence (compare
// against BenchmarkDistributedProtocol for the honest-run cost).
func BenchmarkProtocolUnderAdversary(b *testing.B) {
	rng := rand.New(rand.NewPCG(4, 0))
	g := graph.RandomBiconnected(64, 0.08, rng)
	g.RandomizeCosts(1, 8, rng)
	quotes := core.AllUnicastQuotes(g, 0)
	cheat := -1
	for v := 1; v < g.N(); v++ {
		if quotes[v] != nil && len(quotes[v].Path) >= 3 {
			cheat = v
			break
		}
	}
	if cheat < 0 {
		b.Fatal("no relayed source to plant the underpayer at")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		behaviors := make([]dist.Behavior, g.N())
		behaviors[cheat] = &dist.Underpayer{Factor: 0.6}
		net := dist.NewNetwork(g, 0, behaviors)
		net.EnableSigning(auth.NewKeyring(g.N()))
		net.EnableEviction(1)
		if _, _, converged := net.RunProtocolWithEviction(64*50, 4); !converged {
			b.Fatal("no epochal quiescence under adversary")
		}
		if !net.Evicted(cheat) {
			b.Fatal("underpayer survived the run")
		}
	}
}

// --- Edge-agent model (§II.D): Hershberger–Suri vs one Dijkstra
// per path edge, on long-path grids.

func benchEdgePayment(b *testing.B, side int, e core.Engine) {
	rng := rand.New(rand.NewPCG(7, uint64(side)))
	g := graph.NewEdgeWeighted(side * side)
	id := func(r, c int) int { return r*side + c }
	for r := 0; r < side; r++ {
		for c := 0; c < side; c++ {
			if c+1 < side {
				g.AddEdge(id(r, c), id(r, c+1), 0.5+4*rng.Float64())
			}
			if r+1 < side {
				g.AddEdge(id(r, c), id(r+1, c), 0.5+4*rng.Float64())
			}
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.EdgeVCGQuote(g, 0, side*side-1, e); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEdgePaymentNaive1024(b *testing.B) { benchEdgePayment(b, 32, core.EngineNaive) }
func BenchmarkEdgePaymentFast1024(b *testing.B)  { benchEdgePayment(b, 32, core.EngineFast) }
func BenchmarkEdgePaymentNaive4096(b *testing.B) { benchEdgePayment(b, 64, core.EngineNaive) }
func BenchmarkEdgePaymentFast4096(b *testing.B)  { benchEdgePayment(b, 64, core.EngineFast) }

// --- Packet-level session simulation (the §I motivation study).

func BenchmarkNetsimCompensated(b *testing.B) {
	rng := rand.New(rand.NewPCG(8, 0))
	dep := wireless.PlaceUniform(80, 1000, 320, rng)
	lg := dep.LinkGraph(wireless.PathLoss{Kappa: 2, Unit: 100})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim := netsim.New(lg, 0, netsim.Compensated, 1e7)
		wl := rand.New(rand.NewPCG(9, uint64(i)))
		sim.Run(2000, 1, wl)
	}
}

// --- Collusion-resistant p̃: the per-quote price of defending
// against neighbour coalitions.

func BenchmarkNeighborhoodQuote(b *testing.B) {
	rng := rand.New(rand.NewPCG(5, 0))
	g := graph.RandomBiconnected(256, 0.05, rng)
	g.RandomizeCosts(0.5, 5, rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.NeighborhoodQuote(g, 1, 0); err != nil {
			b.Fatal(err)
		}
	}
}
