package core

import (
	"math"
	"math/rand/v2"
	"slices"
	"testing"
	"testing/quick"

	"truthroute/internal/graph"
	"truthroute/internal/sp"
)

// almostEqual compares costs and payments with a relative tolerance;
// the engines add the same float terms in different orders.
func almostEqual(a, b float64) bool {
	if math.IsInf(a, 1) || math.IsInf(b, 1) {
		return math.IsInf(a, 1) && math.IsInf(b, 1)
	}
	diff := math.Abs(a - b)
	scale := math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
	return diff <= 1e-9*scale
}

// fastVsNaive quotes s→tgt with both engines. They share the source
// tree, so paths must match exactly and payments to 1e-9 relative.
func fastVsNaive(t *testing.T, g *graph.NodeGraph, s, tgt int) bool {
	t.Helper()
	naive, nerr := UnicastQuote(g, s, tgt, EngineNaive)
	fast, ferr := UnicastQuote(g, s, tgt, EngineFast)
	if nerr != nil || ferr != nil {
		if nerr != ferr {
			t.Logf("errors: fast %v naive %v", ferr, nerr)
			return false
		}
		return true
	}
	if !slices.Equal(fast.Path, naive.Path) || len(fast.Payments) != len(naive.Payments) {
		t.Logf("fast %v naive %v", fast, naive)
		return false
	}
	for k, want := range naive.Payments {
		if got, ok := fast.Payments[k]; !ok || !almostEqual(got, want) {
			t.Logf("node %d: fast %v naive %v (path %v)", k, got, want, naive.Path)
			return false
		}
	}
	return true
}

// TestQuickFastMatchesNaiveRandomBiconnected is the main correctness
// property for Algorithm 1: on random biconnected graphs with
// continuous positive costs, the fast engine must produce exactly
// the replacement costs the per-node Dijkstra baseline does.
func TestQuickFastMatchesNaiveRandomBiconnected(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 10))
		n := 4 + rng.IntN(60)
		g := graph.RandomBiconnected(n, 0.08, rng)
		g.RandomizeCosts(0.1, 10, rng)
		s := rng.IntN(n)
		tgt := rng.IntN(n)
		if s == tgt {
			tgt = (tgt + 1) % n
		}
		return fastVsNaive(t, g, s, tgt)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickFastMatchesNaiveSparse stresses long paths and monopolies:
// sparse Erdős–Rényi graphs that are often barely connected, so many
// relays have +Inf replacement cost.
func TestQuickFastMatchesNaiveSparse(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 11))
		n := 4 + rng.IntN(40)
		g := graph.ErdosRenyi(n, 1.8/float64(n), rng)
		g.RandomizeCosts(0.1, 5, rng)
		return fastVsNaive(t, g, 0, n-1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickFastMatchesNaiveGeometricLike uses grid graphs with random
// costs — the closest combinatorial analogue of the UDG topologies
// in the paper's simulations, with plenty of equal-length detours.
func TestQuickFastMatchesNaiveGrid(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 12))
		rows := 2 + rng.IntN(6)
		cols := 2 + rng.IntN(6)
		g := graph.Grid(rows, cols)
		g.RandomizeCosts(0.5, 4, rng)
		return fastVsNaive(t, g, 0, rows*cols-1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestFastMatchesNaiveBitwiseOnTies: small integer costs make
// equal-cost paths common, so the destination-tree path both engines
// follow on exact costs often differs from s's path in its own source
// tree. Algorithm 1 must still match the naive engine bit for bit.
func TestFastMatchesNaiveBitwiseOnTies(t *testing.T) {
	sv := NewSolver()
	differ := 0
	for seed := uint64(0); seed < 100; seed++ {
		rng := rand.New(rand.NewPCG(seed, 13))
		n := 6 + rng.IntN(40)
		g := graph.RandomBiconnected(n, 0.1+0.3*rng.Float64(), rng)
		for v := 0; v < n; v++ {
			g.SetCost(v, float64(1+rng.IntN(3)))
		}
		tgt := rng.IntN(n)
		for s := 0; s < n; s++ {
			if s == tgt {
				continue
			}
			naive, err := sv.Quote(g, s, tgt, EngineNaive)
			if err != nil {
				t.Fatal(err)
			}
			fast, err := sv.Quote(g, s, tgt, EngineFast)
			if err != nil {
				t.Fatal(err)
			}
			sameQuoteBits(t, "ties", fast, naive)
			if !slices.Equal(sp.NodeDijkstra(g, s, nil).PathTo(tgt), fast.Path) {
				differ++
			}
		}
	}
	if differ == 0 {
		t.Fatal("no source took a path other than its source-tree path; the fixture exercises no ties")
	}

	// Second regime: costs drawn from {0, 1, 2}, so runs of zero-cost
	// relays sit on many paths (the case fast.go's header argues).
	// The batch engine is held to the same bits.
	zeroRelay := 0
	for seed := uint64(0); seed < 100; seed++ {
		rng := rand.New(rand.NewPCG(seed, 17))
		n := 6 + rng.IntN(40)
		g := graph.RandomBiconnected(n, 0.1+0.3*rng.Float64(), rng)
		for v := 0; v < n; v++ {
			g.SetCost(v, float64(rng.IntN(3)))
		}
		tgt := rng.IntN(n)
		batch := AllUnicastQuotes(g, tgt)
		for s := 0; s < n; s++ {
			if s == tgt {
				continue
			}
			naive, err := sv.Quote(g, s, tgt, EngineNaive)
			if err != nil {
				t.Fatal(err)
			}
			fast, err := sv.Quote(g, s, tgt, EngineFast)
			if err != nil {
				t.Fatal(err)
			}
			sameQuoteBits(t, "zero costs, fast", fast, naive)
			sameQuoteBits(t, "zero costs, batch", batch[s], naive)
			for _, k := range naive.Path[1 : len(naive.Path)-1] {
				if g.Cost(k) == 0 {
					zeroRelay++
					break
				}
			}
		}
	}
	if zeroRelay == 0 {
		t.Fatal("no quote has a zero-cost relay on its path; the zero-cost regime exercises nothing")
	}
}

func TestFastOnFixtures(t *testing.T) {
	for name, g := range map[string]*graph.NodeGraph{"fig2": graph.Figure2(), "fig4": graph.Figure4()} {
		t.Run(name, func(t *testing.T) {
			for s := 1; s < g.N(); s++ {
				if !fastVsNaive(t, g, s, 0) {
					t.Errorf("fast != naive for source %d", s)
				}
			}
		})
	}
}

func TestFastTrivialPaths(t *testing.T) {
	// Direct edge: no interior nodes, no payments.
	g := graph.NewNodeGraph(2)
	g.AddEdge(0, 1)
	q, err := UnicastQuote(g, 0, 1, EngineFast)
	if err != nil || len(q.Payments) != 0 {
		t.Errorf("direct edge payments = %v (err %v), want none", q, err)
	}
	// Single relay with a single detour: p^1 = 5 − 1 + 1.
	h2 := graph.NewNodeGraph(4)
	h2.AddEdge(0, 1)
	h2.AddEdge(1, 2)
	h2.AddEdge(0, 3)
	h2.AddEdge(3, 2)
	h2.SetCosts([]float64{0, 1, 0, 5})
	q, err = UnicastQuote(h2, 0, 2, EngineFast)
	if err != nil || !almostEqual(q.Payments[1], 5) {
		t.Errorf("payment to lone relay = %v (err %v), want 5", q, err)
	}
}

func BenchmarkReplacementNaive(b *testing.B) { benchReplacement(b, EngineNaive) }
func BenchmarkReplacementFast(b *testing.B)  { benchReplacement(b, EngineFast) }

// benchReplacement quotes the source whose least cost path to 0 has
// the most hops, so the replacement step has many relays to price and
// the two engines' difference shows. The ring-plus-chords graph is
// kept sparse (1.5 chords per node on average) so that path is long:
// at 4 chords per node no route has 8 relays.
func benchReplacement(b *testing.B, e Engine) {
	rng := rand.New(rand.NewPCG(99, 0))
	g := graph.RandomBiconnected(1024, 1.5/1024, rng)
	g.RandomizeCosts(0.5, 5, rng)
	var far *Quote
	for _, q := range AllUnicastQuotes(g, 0) {
		if q != nil && (far == nil || len(q.Path) > len(far.Path)) {
			far = q
		}
	}
	if relays := len(far.Relays()); relays < 8 {
		b.Fatalf("farthest source %d has %d relays, want at least 8", far.Source, relays)
	}
	src := far.Source
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := UnicastQuote(g, src, 0, e); err != nil {
			b.Fatal(err)
		}
	}
}
