package core

import (
	"errors"
	"math"
	"math/rand/v2"
	"slices"
	"testing"

	"truthroute/internal/graph"
	"truthroute/internal/wireless"
)

// quarterUDG draws the serving fixture shape: n nodes uniform in a
// 2000 m square with a 300 m range, one connected component, declared
// costs in quarter units on [1, 10] (exact, see graph.CostQuantum),
// and the node nearest the centre as the access point.
func quarterUDG(n int, seed uint64) (*graph.NodeGraph, int) {
	const side, radio = 2000.0, 300.0
	for attempt := uint64(0); ; attempt++ {
		rng := rand.New(rand.NewPCG(seed, attempt))
		dep := wireless.PlaceUniform(n, side, radio, rng)
		g := dep.UDG()
		if !g.Connected() {
			continue
		}
		for v := 0; v < n; v++ {
			g.SetCost(v, 1+float64(rng.IntN(37))/4)
		}
		centre := wireless.Point{X: side / 2, Y: side / 2}
		ap := 0
		for v := range dep.Pos {
			if dep.Pos[v].Dist(centre) < dep.Pos[ap].Dist(centre) {
				ap = v
			}
		}
		return g, ap
	}
}

// sameQuoteBits demands bitwise equality: identical path, and equal
// Float64bits for the cost and every payment.
func sameQuoteBits(t *testing.T, label string, got, want *Quote) {
	t.Helper()
	if !slices.Equal(got.Path, want.Path) {
		t.Fatalf("%s: path %v, want %v", label, got.Path, want.Path)
	}
	if math.Float64bits(got.Cost) != math.Float64bits(want.Cost) {
		t.Fatalf("%s: cost %v, want %v", label, got.Cost, want.Cost)
	}
	if len(got.Payments) != len(want.Payments) {
		t.Fatalf("%s: payments %v, want %v", label, got.Payments, want.Payments)
	}
	for k, w := range want.Payments {
		if p, ok := got.Payments[k]; !ok || math.Float64bits(p) != math.Float64bits(w) {
			t.Fatalf("%s: p^%d = %v, want %v", label, k, p, w)
		}
	}
}

// TestQuoteIntoTowardBitIdentical quotes every source toward a
// central access point through the table-taking entry, with one
// DestTable shared across all sources, and through QuoteInto, with
// both engines, on the quarter-unit serving fixture and on a
// continuous-cost UDG. The two entries must agree bit for bit.
func TestQuoteIntoTowardBitIdentical(t *testing.T) {
	quarter, qap := quarterUDG(300, 1)
	continuous, _, cAP := udgFixture(300, 2)
	if _, ok := quarter.CostQuantum(); !ok {
		t.Fatal("quarter-unit fixture is not exact")
	}
	if _, ok := continuous.CostQuantum(); ok {
		t.Fatal("continuous-cost fixture is exact")
	}
	sv := NewSolver()
	for _, fx := range []struct {
		name string
		g    *graph.NodeGraph
		dest int
	}{{"quarter", quarter, qap}, {"continuous", continuous, cAP}} {
		table := sv.DestTable(fx.g, fx.dest)
		if len(table.Dist) != fx.g.N() || table.Dist[fx.dest] != 0 || table.Parent[fx.dest] != -1 {
			t.Fatalf("%s: DestTable has %d entries, self-distance %v, root parent %d",
				fx.name, len(table.Dist), table.Dist[fx.dest], table.Parent[fx.dest])
		}
		compared := 0
		for _, engine := range []Engine{EngineFast, EngineNaive} {
			var got, want Quote
			for s := 0; s < fx.g.N(); s++ {
				if s == fx.dest {
					continue
				}
				errGot := sv.QuoteIntoToward(&got, fx.g, s, fx.dest, engine, table)
				errWant := sv.QuoteInto(&want, fx.g, s, fx.dest, engine)
				if !errors.Is(errGot, errWant) {
					t.Fatalf("%s engine %d source %d: err %v, want %v", fx.name, engine, s, errGot, errWant)
				}
				if errWant != nil {
					continue
				}
				sameQuoteBits(t, fx.name, &got, &want)
				compared++
			}
		}
		if compared < fx.g.N() {
			t.Errorf("%s: only %d quotes compared", fx.name, compared)
		}
	}
}

// TestQuoteIntoTowardSteadyStateAllocs: a warmed quote on a shared
// table allocates nothing, like QuoteInto.
func TestQuoteIntoTowardSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	g, ap := quarterUDG(300, 4)
	sv := NewSolver()
	table := sv.DestTable(g, ap)
	var q Quote
	s := 0
	next := func() int {
		s = (s + 1) % g.N()
		if s == ap {
			s = (s + 1) % g.N()
		}
		return s
	}
	for i := 0; i < g.N(); i++ { // grow q's buffers to the longest path
		if err := sv.QuoteIntoToward(&q, g, next(), ap, EngineFast, table); err != nil {
			t.Fatal(err)
		}
	}
	avg := testing.AllocsPerRun(100, func() {
		if err := sv.QuoteIntoToward(&q, g, next(), ap, EngineFast, table); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Errorf("QuoteIntoToward allocates %v times per run in the steady state, want 0", avg)
	}
}
