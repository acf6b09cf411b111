package core

import (
	"encoding/json"
	"errors"
	"math"
	"strings"
	"testing"

	"truthroute/internal/graph"
)

var engines = map[string]Engine{"fast": EngineFast, "naive": EngineNaive}

// TestFigure2Payments checks the numbers the paper states for its
// Figure-2 example: the LCP v1→v0 is v1-v4-v3-v2-v0 and each relay
// is paid 2, for a total of 6.
func TestFigure2Payments(t *testing.T) {
	g := graph.Figure2()
	for name, e := range engines {
		t.Run(name, func(t *testing.T) {
			q, err := UnicastQuote(g, 1, 0, e)
			if err != nil {
				t.Fatal(err)
			}
			wantPath := []int{1, 4, 3, 2, 0}
			if len(q.Path) != len(wantPath) {
				t.Fatalf("path = %v, want %v", q.Path, wantPath)
			}
			for i := range wantPath {
				if q.Path[i] != wantPath[i] {
					t.Fatalf("path = %v, want %v", q.Path, wantPath)
				}
			}
			if q.Cost != 3 {
				t.Errorf("cost = %v, want 3", q.Cost)
			}
			for _, k := range []int{2, 3, 4} {
				if q.Payments[k] != 2 {
					t.Errorf("payment to v%d = %v, want 2", k, q.Payments[k])
				}
			}
			if q.Total() != 6 {
				t.Errorf("total = %v, want 6", q.Total())
			}
			if len(q.Monopolists()) != 0 {
				t.Errorf("unexpected monopolists %v", q.Monopolists())
			}
			if r := q.OverpaymentRatio(); r != 2 {
				t.Errorf("overpayment ratio = %v, want 2", r)
			}
		})
	}
}

// TestFigure2LieLowersPayment reproduces the §III.D attack: if the
// source hides the edge v1-v4, the LCP becomes v1-v5-v0 and the
// total payment drops from 6 to 5 — the least cost path is not the
// path you pay least on.
func TestFigure2LieLowersPayment(t *testing.T) {
	g := graph.Figure2()
	lied := g.Clone()
	e := figure2LiedEdge()
	if !lied.RemoveEdge(e[0], e[1]) {
		t.Fatal("fixture lied edge missing")
	}
	q, err := UnicastQuote(lied, 1, 0, EngineFast)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Path) != 3 || q.Path[1] != 5 {
		t.Fatalf("lied path = %v, want [1 5 0]", q.Path)
	}
	if q.Payments[5] != 5 {
		t.Errorf("payment to v5 = %v, want 5", q.Payments[5])
	}
	if q.Total() != 5 {
		t.Errorf("lied total = %v, want 5 (< truthful 6)", q.Total())
	}
}

// TestFigure4Payments checks the numbers the paper states for its
// Figure-4 resale example (×3 scaling, see graph.Figure4): p_8 = 60,
// p_4 = 18, p_8^4 = 0, c_4 = 15.
func TestFigure4Payments(t *testing.T) {
	g := graph.Figure4()
	for name, e := range engines {
		t.Run(name, func(t *testing.T) {
			q8, err := UnicastQuote(g, 8, 0, e)
			if err != nil {
				t.Fatal(err)
			}
			if q8.Cost != 16 {
				t.Errorf("||P(v8,v0)|| = %v, want 16", q8.Cost)
			}
			if got := q8.Total(); got != 60 {
				t.Errorf("p_8 = %v, want 60 (= 3 x paper's 20)", got)
			}
			if p, ok := q8.Payments[4]; ok && p != 0 {
				t.Errorf("p_8^4 = %v, want 0 (v4 off-path)", p)
			}
			for _, k := range []int{1, 5, 6, 7} {
				if q8.Payments[k] != 15 {
					t.Errorf("p_8^%d = %v, want 15", k, q8.Payments[k])
				}
			}
			q4, err := UnicastQuote(g, 4, 0, e)
			if err != nil {
				t.Fatal(err)
			}
			if got := q4.Total(); got != 18 {
				t.Errorf("p_4 = %v, want 18 (= 3 x paper's 6)", got)
			}
			if g.Cost(4) != 15 {
				t.Errorf("c_4 = %v, want 15 (= 3 x paper's 5)", g.Cost(4))
			}
		})
	}
}

func TestQuoteErrors(t *testing.T) {
	g := graph.NewNodeGraph(4)
	g.AddEdge(0, 1)
	// 2 and 3 are isolated.
	if _, err := UnicastQuote(g, 0, 2, EngineFast); !errors.Is(err, ErrNoPath) {
		t.Errorf("unreachable target: err = %v, want ErrNoPath", err)
	}
	if _, err := UnicastQuote(g, 1, 1, EngineFast); err == nil {
		t.Error("source == target accepted")
	}
	if _, err := UnicastQuote(g, 0, 1, Engine(99)); err == nil {
		t.Error("bogus engine accepted")
	}
}

func TestQuoteDirectEdgeHasNoPayments(t *testing.T) {
	g := graph.NewNodeGraph(2)
	g.AddEdge(0, 1)
	q, err := UnicastQuote(g, 0, 1, EngineFast)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Payments) != 0 || q.Cost != 0 || q.Total() != 0 {
		t.Errorf("direct edge quote = %+v, want empty payments", q)
	}
	if rs := q.Relays(); rs != nil {
		t.Errorf("Relays = %v, want nil", rs)
	}
	if !math.IsNaN(q.OverpaymentRatio()) {
		t.Error("relay-free ratio should be NaN")
	}
}

func TestQuoteMonopoly(t *testing.T) {
	// 0-1-2 path: node 1 is a monopolist.
	g := graph.NewNodeGraph(3)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.SetCosts([]float64{0, 7, 0})
	for name, e := range engines {
		t.Run(name, func(t *testing.T) {
			q, err := UnicastQuote(g, 0, 2, e)
			if err != nil {
				t.Fatal(err)
			}
			mono := q.Monopolists()
			if len(mono) != 1 || mono[0] != 1 {
				t.Fatalf("Monopolists = %v, want [1]", mono)
			}
			if !math.IsInf(q.Payments[1], 1) {
				t.Errorf("monopoly payment = %v, want +Inf", q.Payments[1])
			}
			if !math.IsInf(q.OverpaymentRatio(), 1) {
				t.Errorf("ratio = %v, want +Inf", q.OverpaymentRatio())
			}
		})
	}
}

// TestPaymentAtLeastDeclaredCost checks individual rationality on a
// fixture: every relay is paid at least its declared cost (the VCG
// bonus term is non-negative).
func TestPaymentAtLeastDeclaredCost(t *testing.T) {
	for _, g := range []*graph.NodeGraph{graph.Figure2(), graph.Figure4()} {
		for s := 1; s < g.N(); s++ {
			q, err := UnicastQuote(g, s, 0, EngineFast)
			if err != nil {
				t.Fatal(err)
			}
			for _, k := range q.Relays() {
				if q.Payments[k] < g.Cost(k) {
					t.Errorf("src %d: payment to %d = %v < declared %v", s, k, q.Payments[k], g.Cost(k))
				}
			}
		}
	}
}

func TestLinkQuote(t *testing.T) {
	// Two directed routes 0→3: via 1 (1+1=2) and via 2 (2+2=4).
	g := graph.NewLinkGraph(4)
	g.AddArc(0, 1, 1)
	g.AddArc(1, 3, 1)
	g.AddArc(0, 2, 2)
	g.AddArc(2, 3, 2)
	q, err := LinkQuote(g, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if q.Cost != 2 || len(q.Path) != 3 || q.Path[1] != 1 {
		t.Fatalf("quote = %v", q)
	}
	// p^1 = d_{1,3} + (4 - 2) = 3.
	if q.Payments[1] != 3 {
		t.Errorf("p^1 = %v, want 3", q.Payments[1])
	}
	if q.Total() != 3 {
		t.Errorf("total = %v, want 3", q.Total())
	}
}

func TestLinkQuoteMonopolyAndErrors(t *testing.T) {
	g := graph.NewLinkGraph(3)
	g.AddArc(0, 1, 1)
	g.AddArc(1, 2, 1)
	q, err := LinkQuote(g, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Monopolists()) != 1 {
		t.Errorf("Monopolists = %v, want [1]", q.Monopolists())
	}
	if _, err := LinkQuote(g, 2, 0); !errors.Is(err, ErrNoPath) {
		t.Errorf("reverse direction err = %v, want ErrNoPath", err)
	}
	if _, err := LinkQuote(g, 1, 1); err == nil {
		t.Error("source == target accepted")
	}
}

// TestLinkQuoteFirstHopCostCounts: in the link model the source's
// own out-link weight is part of the path cost (it burns the
// source's energy), unlike the node model where endpoints relay
// nothing.
func TestLinkQuoteFirstHopCostCounts(t *testing.T) {
	g := graph.NewLinkGraph(3)
	g.AddArc(0, 1, 5)
	g.AddArc(1, 2, 1)
	g.AddArc(0, 2, 7)
	q, err := LinkQuote(g, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if q.Cost != 6 {
		t.Errorf("cost = %v, want 6 (5 first hop + 1 relay)", q.Cost)
	}
	// p^1 = 1 + (7 − 6) = 2.
	if q.Payments[1] != 2 {
		t.Errorf("p^1 = %v, want 2", q.Payments[1])
	}
}

func TestQuoteJSONMarshal(t *testing.T) {
	q, err := UnicastQuote(graph.Figure2(), 1, 0, EngineFast)
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(q)
	if err != nil {
		t.Fatal(err)
	}
	var decoded map[string]any
	if err := json.Unmarshal(data, &decoded); err != nil {
		t.Fatal(err)
	}
	if decoded["total"].(float64) != 6 {
		t.Errorf("total = %v", decoded["total"])
	}
	// Monopoly payments serialize as "inf" instead of failing.
	m := graph.NewNodeGraph(3)
	m.AddEdge(0, 1)
	m.AddEdge(1, 2)
	m.SetCosts([]float64{0, 1, 0})
	mq, err := UnicastQuote(m, 2, 0, EngineNaive)
	if err != nil {
		t.Fatal(err)
	}
	data, err = json.Marshal(mq)
	if err != nil {
		t.Fatalf("monopoly quote failed to marshal: %v", err)
	}
	if !strings.Contains(string(data), `"inf"`) {
		t.Errorf("monopoly marker missing: %s", data)
	}
}

func TestEdgeQuoteJSONMarshal(t *testing.T) {
	q, err := EdgeVCGQuote(diamondEW(), 0, 3, EngineFast)
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(q)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"0-1":3`) {
		t.Errorf("edge payment key missing: %s", data)
	}
	// A path of bridges: every payment and the total are +Inf, which
	// encode as "inf", as in Quote.MarshalJSON.
	g := graph.NewEdgeWeighted(3)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 1)
	q, err = EdgeVCGQuote(g, 0, 2, EngineFast)
	if err != nil {
		t.Fatal(err)
	}
	data, err = json.Marshal(q)
	if err != nil {
		t.Fatal(err)
	}
	if want := `"payments":{"0-1":"inf","1-2":"inf"},"total":"inf"`; !strings.Contains(string(data), want) {
		t.Errorf("bridge quote = %s, want it to contain %s", data, want)
	}
}

func TestQuoteString(t *testing.T) {
	q, err := UnicastQuote(graph.Figure2(), 1, 0, EngineFast)
	if err != nil {
		t.Fatal(err)
	}
	s := q.String()
	for _, want := range []string{"Quote{1->0", "path=", "cost=", "total="} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q, missing %q", s, want)
		}
	}
}

func TestParseEngine(t *testing.T) {
	for _, e := range []Engine{EngineFast, EngineNaive} {
		got, err := ParseEngine(engineNames[e])
		if err != nil || got != e {
			t.Errorf("ParseEngine(%q) = %d, %v; want %d", engineNames[e], got, err, e)
		}
	}
	for _, bad := range []string{"", "fsat", "Fast", "quantum"} {
		if _, err := ParseEngine(bad); err == nil {
			t.Errorf("ParseEngine(%q) accepted", bad)
		}
	}
}

// figure2LiedEdge returns the edge v1 hides in the Figure-2 attack.
func figure2LiedEdge() [2]int { return [2]int{1, 4} }
