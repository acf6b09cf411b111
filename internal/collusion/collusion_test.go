package collusion

import (
	"math"
	"reflect"
	"testing"

	"truthroute/internal/core"
	"truthroute/internal/graph"
	"truthroute/internal/mechanism"
)

func TestTwoNodeCuts(t *testing.T) {
	// Two disjoint 0→3 routes through 1 and 2: {1,2} is the only cut.
	g := graph.NewNodeGraph(4)
	for _, e := range [][2]int{{0, 1}, {1, 3}, {0, 2}, {2, 3}} {
		g.AddEdge(e[0], e[1])
	}
	cuts := TwoNodeCuts(g, 0, 3)
	if len(cuts) != 1 || cuts[0] != [2]int{1, 2} {
		t.Fatalf("cuts = %v, want [[1 2]]", cuts)
	}
	// Three disjoint routes: no pair cuts.
	h := graph.NewNodeGraph(5)
	for _, e := range [][2]int{{0, 1}, {1, 4}, {0, 2}, {2, 4}, {0, 3}, {3, 4}} {
		h.AddEdge(e[0], e[1])
	}
	if cuts := TwoNodeCuts(h, 0, 4); len(cuts) != 0 {
		t.Errorf("three-route cuts = %v, want none", cuts)
	}
}

func TestTwoNodeCutsExcludesSingletonMonopolies(t *testing.T) {
	// Path 0-1-2: node 1 alone is a cut, so no *pair* is reported.
	g := graph.NewNodeGraph(3)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	if cuts := TwoNodeCuts(g, 0, 2); len(cuts) != 0 {
		t.Errorf("cuts = %v, want none (singleton monopoly dominates)", cuts)
	}
}

// TestFigure4Resale reproduces the paper's §III.H worked example
// (scaled ×3): v8 pays 60 directly but only 46.5 by reselling
// through v4, which itself gains 13.5.
func TestFigure4Resale(t *testing.T) {
	g := graph.Figure4()
	deals, err := FindResale(g, 8, 0, core.EngineFast)
	if err != nil {
		t.Fatal(err)
	}
	if len(deals) == 0 {
		t.Fatal("no resale deal found; the paper's example guarantees one")
	}
	d := deals[0]
	if d.Via != 4 {
		t.Fatalf("deal via %d, want 4", d.Via)
	}
	if d.DirectTotal != 60 {
		t.Errorf("direct total = %v, want 60", d.DirectTotal)
	}
	if d.ViaObligation != 33 { // p_4 (18) + max(p_8^4=0, c_4=15)
		t.Errorf("via obligation = %v, want 33", d.ViaObligation)
	}
	if d.Savings != 27 {
		t.Errorf("savings = %v, want 27", d.Savings)
	}
	if d.SourcePays() != 46.5 {
		t.Errorf("source pays = %v, want 46.5 (= 3 x paper's 15.5)", d.SourcePays())
	}
	if d.ViaGains() != 13.5 {
		t.Errorf("via gains = %v, want 13.5 (= 3 x paper's 4.5)", d.ViaGains())
	}
}

func TestFindResaleFigure2(t *testing.T) {
	// Even Figure 2 admits resale: v5 sits next to the access point
	// (own payment 0), so v1 can route through it for
	// p_5 + max(p_1^5, c_5) = 0 + 4 = 4 instead of paying 6.
	g := graph.Figure2()
	deals, err := FindResale(g, 1, 0, core.EngineFast)
	if err != nil {
		t.Fatal(err)
	}
	if len(deals) != 2 {
		t.Fatalf("deals = %v, want two (via 5 and via 6)", deals)
	}
	if deals[0].Via != 5 || deals[0].Savings != 2 {
		t.Errorf("best deal = %v, want via 5 saving 2", deals[0])
	}
	// No deal once payments are already minimal: a direct neighbour
	// of the AP pays nothing.
	direct, err := FindResale(g, 5, 0, core.EngineFast)
	if err != nil {
		t.Fatal(err)
	}
	if len(direct) != 0 {
		t.Errorf("AP-adjacent source found deals: %v", direct)
	}
}

func TestFindResaleMonopolyError(t *testing.T) {
	g := graph.NewNodeGraph(3)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.SetCosts([]float64{0, 1, 0})
	if _, err := FindResale(g, 2, 0, core.EngineNaive); err == nil {
		t.Error("monopoly-facing source should error")
	}
}

// TestScanResaleOrdersBySavings: scanning every source of Figure 4
// yields each source's deals most profitable first, and the paper's
// 8-via-4 deal is among them.
func TestScanResaleOrdersBySavings(t *testing.T) {
	g := graph.Figure4()
	found, total := false, 0
	for src := 1; src < g.N(); src++ {
		deals, err := FindResale(g, src, 0, core.EngineFast)
		if err != nil {
			continue
		}
		total += len(deals)
		for i := 1; i < len(deals); i++ {
			if deals[i].Savings > deals[i-1].Savings {
				t.Fatalf("source %d: deals not sorted by savings: %v", src, deals)
			}
		}
		for _, d := range deals {
			if d.Source == 8 && d.Via == 4 && d.Savings == 27 {
				found = true
			}
		}
	}
	if total == 0 {
		t.Fatal("scan found nothing on Figure 4")
	}
	if !found {
		t.Error("scan missed the paper's 8-via-4 deal")
	}
}

// TestScanResaleSkipsMonopolySources: a source whose own quote is
// unbounded is refused rather than offered a deal.
func TestScanResaleSkipsMonopolySources(t *testing.T) {
	// On the chain 0-1-2-3 every source behind relay 1 faces a
	// monopoly and is refused; 1 itself pays nothing and has no deal.
	h := graph.NewNodeGraph(4)
	h.AddEdge(0, 1)
	h.AddEdge(1, 2)
	h.AddEdge(2, 3)
	h.SetCosts([]float64{0, 2, 2, 0})
	for _, src := range []int{2, 3} {
		if deals, err := FindResale(h, src, 0, core.EngineNaive); err == nil {
			t.Errorf("monopoly-facing source %d not refused: %v", src, deals)
		}
	}
	if deals, err := FindResale(h, 1, 0, core.EngineNaive); err != nil || len(deals) != 0 {
		t.Errorf("AP-adjacent source 1: deals %v, err %v; want none, nil", deals, err)
	}
}

// TestScanResaleTieOrdering: deals come most profitable first, equal
// savings by ascending Via.
func TestScanResaleTieOrdering(t *testing.T) {
	// Source 6's least cost path 6-1-2-0 costs 2 and each relay's
	// replacement leaves through 4 or 5 (cost 2.5), so p_6 = 2·1.5 = 3:
	// reselling through 4 or 5 saves 0.5 each, through 3 (cost 2.75)
	// 0.25. Neighbours are listed 1, 3, 5, 4, so the order is the
	// sort's doing.
	h := graph.NewNodeGraph(7)
	for _, e := range [][2]int{{6, 1}, {1, 2}, {2, 0}, {6, 3}, {3, 0}, {6, 5}, {5, 0}, {6, 4}, {4, 0}} {
		h.AddEdge(e[0], e[1])
	}
	h.SetCosts([]float64{0, 1, 1, 2.75, 2.5, 2.5, 1})
	deals, err := FindResale(h, 6, 0, core.EngineNaive)
	if err != nil {
		t.Fatal(err)
	}
	var got []Resale
	for _, d := range deals {
		got = append(got, Resale{Via: d.Via, Savings: d.Savings})
	}
	if want := []Resale{{Via: 4, Savings: 0.5}, {Via: 5, Savings: 0.5}, {Via: 3, Savings: 0.25}}; !reflect.DeepEqual(got, want) {
		t.Errorf("deal order (via, savings) = %v, want %v", got, want)
	}
}

func TestCoalitionUtility(t *testing.T) {
	g := graph.Figure2()
	q, err := core.UnicastQuote(g, 1, 0, core.EngineFast)
	if err != nil {
		t.Fatal(err)
	}
	// Relays 2,3,4 each have utility 1; off-path 5 has 0.
	if u := CoalitionUtility(q, []int{2, 3, 4}, g.Costs()); u != 3 {
		t.Errorf("coalition utility = %v, want 3", u)
	}
	if u := CoalitionUtility(q, []int{5}, g.Costs()); u != 0 {
		t.Errorf("off-path utility = %v, want 0", u)
	}
}

func TestResaleStringer(t *testing.T) {
	r := Resale{Source: 8, Via: 4, DirectTotal: 60, ViaObligation: 33, Savings: 27}
	if r.String() == "" || math.IsNaN(r.SourcePays()) {
		t.Error("stringer or helpers broken")
	}
}

// TestFindResaleSkipsAPAdjacentVia: a neighbour that IS the
// destination is never a resale intermediary.
func TestFindResaleSkipsAPAdjacentVia(t *testing.T) {
	// Source 1 adjacent to the AP and to relay 2 (2's own route is a
	// monopoly through 1 → skipped); no deal possible.
	g := graph.NewNodeGraph(3)
	g.AddEdge(1, 0)
	g.AddEdge(1, 2)
	g.SetCosts([]float64{0, 1, 1})
	deals, err := FindResale(g, 1, 0, core.EngineNaive)
	if err != nil {
		t.Fatal(err)
	}
	if len(deals) != 0 {
		t.Errorf("deals = %v, want none", deals)
	}
}

// TestFindResaleSkipsUnreachableAndMonopolyVias: neighbours that
// cannot reach the destination, or whose own quote is monopolized,
// are skipped rather than crashing the scan.
func TestFindResaleSkipsUnreachableAndMonopolyVias(t *testing.T) {
	// Source 4's route: 4-1-0 or 4-2-0 (biconnected for 4). Its
	// neighbour 3 dangles off 4 only: removing 4 disconnects 3, so
	// 3's own quote has a monopoly; neighbour 5... keep simple.
	g := graph.NewNodeGraph(5)
	for _, e := range [][2]int{{4, 1}, {1, 0}, {4, 2}, {2, 0}, {4, 3}} {
		g.AddEdge(e[0], e[1])
	}
	g.SetCosts([]float64{0, 5, 6, 1, 0})
	deals, err := FindResale(g, 4, 0, core.EngineNaive)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range deals {
		if d.Via == 3 {
			t.Errorf("monopoly-routed neighbour used as via: %v", d)
		}
	}
}

// CoalitionUtility sums the true-cost utilities of a coalition under
// a quote computed from some declared profile.
func CoalitionUtility(q *core.Quote, coalition []int, trueCosts []float64) float64 {
	u := 0.0
	for _, k := range coalition {
		u += mechanism.Utility(q, k, trueCosts[k])
	}
	return u
}
