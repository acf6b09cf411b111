package graph

import (
	"sync"
	"testing"
)

func quantGraph(costs []float64) *NodeGraph {
	g := NewNodeGraph(len(costs))
	for v, c := range costs {
		g.SetCost(v, c)
	}
	return g
}

func TestCostQuantumNegotiation(t *testing.T) {
	cases := []struct {
		name      string
		costs     []float64
		wantOK    bool
		wantScale float64
	}{
		{"integers", []float64{0, 1, 5, 3}, true, 1},
		{"all zero", []float64{0, 0, 0}, true, 1},
		{"quarters", []float64{0.25, 1.75, 2}, true, 4},
		{"halves and integers", []float64{0.5, 3}, true, 2},
		{"finest allowed", []float64{1.0 / (1 << 20)}, true, 1 << 20},
		{"too fine", []float64{1.0 / (1 << 21)}, false, 0},
		{"not dyadic", []float64{1.0 / 3.0}, false, 0},
		{"infinite cost", []float64{Inf}, false, 0},
		// Exactness has no window: a wide span of grid costs is exact
		// as long as the path sums stay below 2^52 quanta.
		{"span at limit", []float64{1 << 16}, true, 1},
		{"span overflow", []float64{1<<16 + 1}, true, 1},
		{"mixed scale overflow", []float64{1.0 / 1024, 1 << 7}, true, 1024},
		// n·max must stay exactly summable: two nodes of 2^51 sum to
		// 2^52 quanta, two of 2^52 do not, and a fine quantum forced by
		// one cost scales the other's quanta up with it.
		{"sum at limit", []float64{1 << 51, 1 << 51}, true, 1},
		{"sum overflow", []float64{1 << 52, 1}, false, 0},
		{"fine grid sum overflow", []float64{1.0 / (1 << 20), 1 << 32}, false, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g := quantGraph(tc.costs)
			q, ok := g.CostQuantum()
			if ok != tc.wantOK {
				t.Fatalf("ok = %v, want %v (q=%+v)", ok, tc.wantOK, q)
			}
			if !ok {
				return
			}
			if q.Scale != tc.wantScale {
				t.Fatalf("quantum = %+v, want {Scale:%v}", q, tc.wantScale)
			}
			// The negotiated contract: every cost lands exactly on the
			// grid, and n times the largest stays exactly summable.
			for v := range tc.costs {
				s := g.Cost(v) * q.Scale
				if s != float64(int64(s)) || float64(len(tc.costs))*s > 1<<52 {
					t.Fatalf("cost %v scales to %v, off the grid or beyond exact sums", g.Cost(v), s)
				}
			}
		})
	}
}

func TestCostQuantumInvalidatedBySetCost(t *testing.T) {
	g := quantGraph([]float64{1, 2, 3})
	if _, ok := g.CostQuantum(); !ok {
		t.Fatal("integer costs must negotiate")
	}
	g.SetCost(1, 1.0/3.0)
	if _, ok := g.CostQuantum(); ok {
		t.Fatal("quantum survived SetCost to a non-dyadic value")
	}
	g.SetCost(1, 0.5)
	q, ok := g.CostQuantum()
	if !ok || q.Scale != 2 {
		t.Fatalf("renegotiation = (%+v, %v), want scale 2", q, ok)
	}
}

func TestCostQuantumViewsAreIndependent(t *testing.T) {
	g := quantGraph([]float64{1, 2, 3})
	if _, ok := g.CostQuantum(); !ok {
		t.Fatal("base graph must negotiate")
	}
	v := g.WithCost(1, 1.0/3.0)
	if _, ok := v.CostQuantum(); ok {
		t.Fatal("view with non-dyadic cost negotiated")
	}
	if _, ok := g.CostQuantum(); !ok {
		t.Fatal("view negotiation leaked into the base graph")
	}
	w := g.WithCosts([]float64{0.25, 0.5, 0.75})
	if q, ok := w.CostQuantum(); !ok || q.Scale != 4 {
		t.Fatalf("WithCosts view = (%+v, %v), want scale 4", q, ok)
	}
}

func TestCostQuantumConcurrentNegotiation(t *testing.T) {
	g := quantGraph([]float64{0.5, 1.5, 2})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			q, ok := g.CostQuantum()
			if !ok || q.Scale != 2 {
				t.Errorf("concurrent negotiation = (%+v, %v)", q, ok)
			}
		}()
	}
	wg.Wait()
}
