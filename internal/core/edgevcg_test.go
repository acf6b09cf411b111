package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"truthroute/internal/graph"
	"truthroute/internal/sp"
)

// diamondEW: two s-t routes, s=0, t=3: 0-1-3 (1+1) and 0-2-3 (2+2).
func diamondEW() *graph.EdgeWeighted {
	g := graph.NewEdgeWeighted(4)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 3, 1)
	g.AddEdge(0, 2, 2)
	g.AddEdge(2, 3, 2)
	return g
}

func TestEdgeVCGQuoteDiamond(t *testing.T) {
	for name, e := range engines {
		t.Run(name, func(t *testing.T) {
			q, err := EdgeVCGQuote(diamondEW(), 0, 3, e)
			if err != nil {
				t.Fatal(err)
			}
			if q.Cost != 2 || len(q.Path) != 3 || q.Path[1] != 1 {
				t.Fatalf("quote = %+v", q)
			}
			// Nisan–Ronen: p^e = D_{G−e} − (D_G − w_e) = 4 − (2−1) = 3
			// for both path edges.
			for _, key := range [][2]int{{0, 1}, {1, 3}} {
				if got := q.Payments[key]; got != 3 {
					t.Errorf("p^%v = %v, want 3", key, got)
				}
			}
			if q.Total() != 6 {
				t.Errorf("total = %v, want 6", q.Total())
			}
		})
	}
}

// TestEdgeQuoteTotalIsOrderFree: Total sums in key order, so it is
// bit-identical on every call. The payments are built so that order
// matters: after the leading 1 each 2^-53 rounds away (to even), but
// summed before the 1 they add up to more than an ulp of it.
func TestEdgeQuoteTotalIsOrderFree(t *testing.T) {
	q := &EdgeQuote{Payments: map[[2]int]float64{{0, 1}: 1}}
	for v := 2; v <= 12; v++ {
		q.Payments[[2]int{v - 1, v}] = 0x1p-53
	}
	for i := 0; i < 50; i++ {
		if got := q.Total(); got != 1 {
			t.Fatalf("call %d: total %v (bits %#x), want exactly 1", i, got, math.Float64bits(got))
		}
	}
}

func TestEdgeVCGBridgeMonopoly(t *testing.T) {
	// Path graph: every edge is a bridge.
	g := graph.NewEdgeWeighted(3)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 1)
	q, err := EdgeVCGQuote(g, 0, 2, EngineFast)
	if err != nil {
		t.Fatal(err)
	}
	if got := q.Monopolists(); len(got) != 2 {
		t.Fatalf("monopolists = %v, want both bridges", got)
	}
	if !math.IsInf(q.Total(), 1) {
		t.Error("bridge payments should be unbounded")
	}
}

func TestEdgeVCGErrors(t *testing.T) {
	g := graph.NewEdgeWeighted(3)
	g.AddEdge(0, 1, 1)
	if _, err := EdgeVCGQuote(g, 0, 2, EngineFast); !errors.Is(err, ErrNoPath) {
		t.Errorf("err = %v, want ErrNoPath", err)
	}
	if _, err := EdgeVCGQuote(g, 1, 1, EngineFast); err == nil {
		t.Error("source == target accepted")
	}
	if _, err := EdgeVCGQuote(g, 0, 1, Engine(9)); err == nil {
		t.Error("bogus engine accepted")
	}
}

// randomEW builds a random connected edge-weighted graph (ring +
// chords) with continuous weights.
func randomEW(n int, p float64, rng *rand.Rand) *graph.EdgeWeighted {
	g := graph.NewEdgeWeighted(n)
	for i := 0; i < n; i++ {
		g.AddEdge(i, (i+1)%n, 0.1+5*rng.Float64())
	}
	for i := 0; i < n; i++ {
		for j := i + 2; j < n; j++ {
			if (i+1)%n == j || (j+1)%n == i || g.HasEdge(i, j) {
				continue
			}
			if rng.Float64() < p {
				g.AddEdge(i, j, 0.1+5*rng.Float64())
			}
		}
	}
	return g
}

// TestQuickEdgeFastMatchesNaive is the Hershberger–Suri correctness
// property: on random graphs with continuous weights the sweep
// produces exactly the per-edge replacement costs of the
// one-Dijkstra-per-edge baseline.
func TestQuickEdgeFastMatchesNaive(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 110))
		n := 4 + rng.IntN(50)
		g := randomEW(n, 0.1, rng)
		s := rng.IntN(n)
		tgt := (s + 1 + rng.IntN(n-1)) % n
		if ok, msg := edgeFastMatchesNaive(g, s, tgt, almostEqual); !ok {
			t.Logf("seed %d: %s", seed, msg)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestEdgeFastMatchesNaiveZeroWeights holds Hershberger–Suri to the
// naive engine bit for bit where edgeReplacementCostsFast's argument
// leaves a case open: small dense graphs whose weights 0..2 put
// zero-weight edges and ties on most paths. On integer weights every
// sum is exact, so any difference is a wrong replacement cost.
func TestEdgeFastMatchesNaiveZeroWeights(t *testing.T) {
	bitwise := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	for seed := uint64(0); seed < 20000; seed++ {
		rng := rand.New(rand.NewPCG(seed, 112))
		n := 3 + rng.IntN(10)
		g := graph.NewEdgeWeighted(n)
		p := 0.3 + 0.5*rng.Float64()
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if rng.Float64() < p {
					g.AddEdge(i, j, float64(max(0, rng.IntN(4)-1)))
				}
			}
		}
		s := rng.IntN(n)
		tgt := (s + 1 + rng.IntN(n-1)) % n
		if ok, msg := edgeFastMatchesNaive(g, s, tgt, bitwise); !ok {
			t.Fatalf("seed %d: %s", seed, msg)
		}
	}
}

// edgeFastMatchesNaive compares the two replacement-cost engines on
// one s–t pair under eq; an unreachable target passes trivially.
func edgeFastMatchesNaive(g *graph.EdgeWeighted, s, t int, eq func(a, b float64) bool) (bool, string) {
	tree := sp.LinkDijkstra(g.Arcs(), s, nil)
	if !tree.Reachable(t) {
		return true, ""
	}
	path := tree.PathTo(t)
	fast := edgeReplacementCostsFast(g, s, t, tree, path)
	naive := edgeReplacementCostsNaive(g, s, t, path)
	for j, want := range naive {
		if !eq(fast[j], want) {
			return false, fmt.Sprintf("%d->%d edge {%d,%d}: fast %v naive %v", s, t, path[j], path[j+1], fast[j], want)
		}
	}
	return true, ""
}

// TestQuickEdgeVCGStrategyproof: the edge-agent payment is VCG, so no
// edge profits from misreporting its cost (utility = payment − true
// cost when used, payment when not; only the edge's own declaration
// varies).
func TestQuickEdgeVCGStrategyproof(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 111))
		n := 4 + rng.IntN(12)
		g := randomEW(n, 0.3, rng)
		s, tgt := 0, n/2
		truthQ, err := EdgeVCGQuote(g, s, tgt, EngineFast)
		if err != nil {
			return true
		}
		utility := func(q *EdgeQuote, key [2]int, trueW float64) float64 {
			u := q.Payments[key]
			for i := 0; i+1 < len(q.Path); i++ {
				a, b := q.Path[i], q.Path[i+1]
				if (min(a, b) == key[0]) && (max(a, b) == key[1]) {
					return u - trueW
				}
			}
			return u
		}
		for _, e := range g.Edges() {
			key := [2]int{e.U, e.V} // Edges lists U < V
			truthU := utility(truthQ, key, e.W)
			for _, f := range []float64{0, 0.5, 0.9, 1.1, 2, 10} {
				lied := g.WithWeight(e.U, e.V, e.W*f)
				lieQ, err := EdgeVCGQuote(lied, s, tgt, EngineNaive)
				var lieU float64
				if err == nil {
					lieU = utility(lieQ, key, e.W)
				}
				if lieU > truthU+1e-9 {
					t.Logf("seed %d edge %v: lie x%g raises %v -> %v", seed, key, f, truthU, lieU)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestEdgeWeightedBasics(t *testing.T) {
	g := diamondEW()
	if g.N() != 4 || g.M() != 4 {
		t.Fatalf("N=%d M=%d", g.N(), g.M())
	}
	if w := g.Weight(1, 0); w != 1 {
		t.Errorf("Weight(1,0) = %v (must be symmetric)", w)
	}
	if a := g.Arcs(); a.M() != 2*g.M() || a.Weight(3, 1) != 1 || a.Weight(1, 3) != 1 {
		t.Errorf("arc view: %d arcs for %d edges, 3->1 weighs %v", a.M(), g.M(), a.Weight(3, 1))
	}
	if !g.SetWeight(0, 1, 7) || g.Weight(1, 0) != 7 {
		t.Error("SetWeight not mirrored")
	}
	if g.SetWeight(0, 3, 1) {
		t.Error("SetWeight invented an edge")
	}
	mustPanic := func(desc string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", desc)
			}
		}()
		f()
	}
	mustPanic("self loop", func() { g.AddEdge(2, 2, 1) })
	mustPanic("negative weight", func() { g.AddEdge(0, 3, -1) })
	mustPanic("duplicate", func() { g.AddEdge(0, 1, 1) })
	mustPanic("WithWeight absent", func() { g.WithWeight(0, 3, 1) })
}
