package core

import (
	"math"
	"reflect"
	"testing"

	"truthroute/internal/graph"
)

// threePaths builds three internally disjoint 0→10 routes with
// interior costs 3 (nodes 1,2,3), 6 (nodes 4,5,6) and 9 (nodes
// 7,8,9), plus an expensive appendix node 11 attached to relay 2 and
// to the source — an off-path node with a neighbour on the LCP.
func threePaths() *graph.NodeGraph {
	g := graph.NewNodeGraph(12)
	for _, e := range [][2]int{
		{0, 1}, {1, 2}, {2, 3}, {3, 10},
		{0, 4}, {4, 5}, {5, 6}, {6, 10},
		{0, 7}, {7, 8}, {8, 9}, {9, 10},
		{0, 11}, {11, 2},
	} {
		g.AddEdge(e[0], e[1])
	}
	g.SetCosts([]float64{0, 1, 1, 1, 2, 2, 2, 3, 3, 3, 0, 50})
	return g
}

func TestNeighborhoodQuotePayments(t *testing.T) {
	g := threePaths()
	q, err := NeighborhoodQuote(g, 0, 10)
	if err != nil {
		t.Fatal(err)
	}
	if q.Cost != 3 {
		t.Fatalf("cost = %v, want 3", q.Cost)
	}
	// On-path relays: removing any closed neighbourhood kills route A
	// entirely, so the avoiding path is route B at cost 6.
	for _, k := range []int{1, 2, 3} {
		want := 6 - 3 + g.Cost(k)
		if q.Payments[k] != want {
			t.Errorf("p̃ to relay %d = %v, want %v", k, q.Payments[k], want)
		}
	}
	// Off-path node 11 is adjacent to relay 2, so removing N(11)
	// breaks the LCP: it is owed 6−3 = 3 even though it relays
	// nothing (§III.E: "the payment to a node v_k ∉ P could be
	// positive when v_k has a neighbor on P").
	if q.Payments[11] != 3 {
		t.Errorf("p̃ to off-path 11 = %v, want 3", q.Payments[11])
	}
	// Nodes with no neighbour on the LCP get nothing.
	for _, k := range []int{4, 5, 6, 7, 8, 9} {
		if p, ok := q.Payments[k]; ok && p != 0 {
			t.Errorf("p̃ to %d = %v, want 0", k, p)
		}
	}
	// p̃ always pays at least the plain VCG payment: it removes a
	// superset of {v_k}.
	plain, err := UnicastQuote(g, 0, 10, EngineNaive)
	if err != nil {
		t.Fatal(err)
	}
	for k, p := range plain.Payments {
		if q.Payments[k] < p {
			t.Errorf("p̃ to %d = %v < plain VCG %v", k, q.Payments[k], p)
		}
	}
}

func TestSetQuoteEqualsPlainVCGForSingletons(t *testing.T) {
	g := graph.Figure4()
	plain, err := UnicastQuote(g, 8, 0, EngineNaive)
	if err != nil {
		t.Fatal(err)
	}
	setq, err := SetQuote(g, 8, 0, func(k int) []int { return []int{k} })
	if err != nil {
		t.Fatal(err)
	}
	if len(setq.Payments) != len(plain.Payments) {
		t.Fatalf("payment sets differ: %v vs %v", setq.Payments, plain.Payments)
	}
	for k, p := range plain.Payments {
		if setq.Payments[k] != p {
			t.Errorf("node %d: set %v plain %v", k, setq.Payments[k], p)
		}
	}

	// A set beyond the singleton moves the payment to the avoiding-set
	// cost. Three disjoint 0→4 routes through 1, 2, 3 (costs 1, 2, 3);
	// if 2 colludes with every relay, relay 1's avoiding path is route
	// 3 at cost 3, against 2 for the plain payment.
	h := graph.NewNodeGraph(5)
	for _, e := range [][2]int{{0, 1}, {1, 4}, {0, 2}, {2, 4}, {0, 3}, {3, 4}} {
		h.AddEdge(e[0], e[1])
	}
	h.SetCosts([]float64{0, 1, 2, 3, 0})
	colluded, err := SetQuote(h, 0, 4, func(k int) []int { return []int{k, 2} })
	if err != nil {
		t.Fatal(err)
	}
	if len(colluded.Path) != 3 || colluded.Path[1] != 1 || colluded.Cost != 1 {
		t.Fatalf("LCP = %v cost %v, want via node 1 at cost 1", colluded.Path, colluded.Cost)
	}
	if want := map[int]float64{1: 3 - 1 + 1}; !reflect.DeepEqual(colluded.Payments, want) {
		t.Errorf("payments = %v, want %v", colluded.Payments, want)
	}
}

func TestNeighborhoodQuoteMonopoly(t *testing.T) {
	// Diamond 0-1-2 / 0-3-2 with the chord 1-3: removing N(1) also
	// removes 3, killing both routes, so relay 1 holds a
	// neighbourhood monopoly.
	g := graph.NewNodeGraph(4)
	for _, e := range [][2]int{{0, 1}, {1, 2}, {0, 3}, {3, 2}, {1, 3}} {
		g.AddEdge(e[0], e[1])
	}
	g.SetCosts([]float64{0, 1, 0, 2})
	q, err := NeighborhoodQuote(g, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Monopolists()) == 0 {
		t.Fatal("expected a neighbourhood monopolist on the chorded diamond")
	}
	for _, k := range q.Monopolists() {
		if !math.IsInf(q.Payments[k], 1) {
			t.Errorf("monopolist %d payment = %v", k, q.Payments[k])
		}
	}
}

func TestSetQuoteErrors(t *testing.T) {
	g := graph.NewNodeGraph(3)
	g.AddEdge(0, 1)
	if _, err := SetQuote(g, 0, 2, func(k int) []int { return []int{k} }); err == nil {
		t.Error("unreachable target accepted")
	}
	if _, err := SetQuote(g, 1, 1, func(k int) []int { return []int{k} }); err == nil {
		t.Error("source == target accepted")
	}
}

// TestNeighborhoodAssumptionMatchesQuote ties the graph-level
// assumption check to the mechanism: when NeighborhoodConnected
// holds there are no monopolists, and vice versa on a violating
// graph.
func TestNeighborhoodAssumptionMatchesQuote(t *testing.T) {
	ok := threePaths()
	if !ok.NeighborhoodConnected(0, 10) {
		t.Fatal("threePaths should satisfy the assumption")
	}
	q, err := NeighborhoodQuote(ok, 0, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Monopolists()) != 0 {
		t.Errorf("monopolists on a compliant graph: %v", q.Monopolists())
	}

	bad := graph.NewNodeGraph(4)
	for _, e := range [][2]int{{0, 1}, {1, 2}, {0, 3}, {3, 2}, {1, 3}} {
		bad.AddEdge(e[0], e[1])
	}
	if bad.NeighborhoodConnected(0, 2) {
		t.Fatal("chorded diamond should violate the assumption")
	}
}
