package graph

import (
	"math"
	"math/rand/v2"
	"slices"
	"testing"
)

// rowsOf flattens a node graph's rows into the form
// NewNodeGraphFromRows takes.
func rowsOf(g *NodeGraph) (start, nbr []int) {
	start = []int{0}
	for v := 0; v < g.N(); v++ {
		nbr = append(nbr, g.Neighbors(v)...)
		start = append(start, len(nbr))
	}
	return start, nbr
}

func TestNodeGraphFromRowsMatchesAddEdge(t *testing.T) {
	for seed := uint64(0); seed < 20; seed++ {
		want := ErdosRenyi(int(seed*7), 0.2, rand.New(rand.NewPCG(seed, 5)))
		got := NewNodeGraphFromRows(rowsOf(want))
		if got.N() != want.N() || !slices.Equal(got.Edges(), want.Edges()) {
			t.Fatalf("seed %d: edges %v, want %v", seed, got.Edges(), want.Edges())
		}
		for v := 0; v < got.N(); v++ {
			if row := got.Neighbors(v); cap(row) != len(row) || (len(row) == 0) != (row == nil) {
				t.Fatalf("seed %d: row %d has len %d, cap %d, nil %v", seed, v, len(row), cap(row), row == nil)
			}
			if got.Cost(v) != 0 {
				t.Fatalf("seed %d: node %d cost %v", seed, v, got.Cost(v))
			}
		}
	}
}

func TestNodeGraphFromRowsRefusesBadRows(t *testing.T) {
	cases := []struct {
		name       string
		start, nbr []int
	}{
		{"no starts", nil, nil},
		{"first start not 0", []int{1, 1}, []int{0}},
		{"last start short of the entries", []int{0, 1, 1}, []int{1, 0}},
		{"decreasing starts", []int{0, 2, 1, 2}, []int{1, 2}},
		{"neighbour out of range", []int{0, 1, 1}, []int{2}},
		{"negative neighbour", []int{0, 1, 1}, []int{-1}},
		{"duplicate neighbour", []int{0, 2, 4}, []int{1, 1, 0, 0}},
		{"decreasing row", []int{0, 2, 3, 4}, []int{2, 1, 0, 0}},
		{"self-loop", []int{0, 1}, []int{0}},
		{"edge missing from the higher row", []int{0, 1, 1}, []int{1}},
		{"edge missing from the lower row", []int{0, 0, 1}, []int{0}},
		{"rows pair up the wrong nodes", []int{0, 1, 3, 4}, []int{1, 0, 2, 0}},
	}
	for _, c := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: accepted starts %v, rows %v", c.name, c.start, c.nbr)
				}
			}()
			NewNodeGraphFromRows(c.start, c.nbr)
		}()
	}
}

// TestNodeGraphFromRowsRowsAreCapped: the rows share one backing
// array, so growing one row must reallocate it and leave the next
// row's entries alone.
func TestNodeGraphFromRowsRowsAreCapped(t *testing.T) {
	// Path 0-1-2-3: rows [1] [0 2] [1 3] [2], back to back.
	g := NewNodeGraphFromRows([]int{0, 1, 3, 5, 6}, []int{1, 0, 2, 1, 3, 2})
	g.AddEdge(0, 3)
	g.AddEdge(1, 3)
	_ = append(g.Neighbors(2), 0)
	want := [][]int{{1, 3}, {0, 2, 3}, {1, 3}, {0, 1, 2}}
	for v, w := range want {
		if !slices.Equal(g.Neighbors(v), w) {
			t.Errorf("row %d = %v, want %v", v, g.Neighbors(v), w)
		}
	}
	if !g.RemoveEdge(1, 2) || g.HasEdge(2, 1) || !slices.Equal(g.Neighbors(3), []int{0, 1, 2}) {
		t.Errorf("RemoveEdge on a shared row: rows %v %v %v", g.Neighbors(1), g.Neighbors(2), g.Neighbors(3))
	}
}

func TestLinkGraphFromRows(t *testing.T) {
	start := []int{0, 2, 2, 3}
	arcs := []Arc{{To: 1, W: 0.5}, {To: 2, W: math.Inf(1)}, {To: 0, W: 0}}
	g := NewLinkGraphFromRows(start, arcs)
	if g.N() != 3 || g.M() != 3 || g.Out(1) != nil || g.Weight(0, 1) != 0.5 || g.Weight(2, 0) != 0 || !math.IsInf(g.Weight(0, 2), 1) {
		t.Fatalf("rows %v %v %v", g.Out(0), g.Out(1), g.Out(2))
	}
	defer func() {
		if recover() == nil {
			t.Error("AddArc accepted a duplicate of a bulk-built arc")
		}
	}()
	g.AddArc(0, 2, 1)
}

func TestLinkGraphFromRowsRefusesBadRows(t *testing.T) {
	cases := []struct {
		name  string
		start []int
		arcs  []Arc
	}{
		{"no starts", nil, nil},
		{"first start not 0", []int{1, 1}, []Arc{{To: 0}}},
		{"last start past the entries", []int{0, 2, 2}, []Arc{{To: 1}}},
		{"decreasing starts", []int{0, 1, 0, 1}, []Arc{{To: 1}}},
		{"head out of range", []int{0, 1, 1}, []Arc{{To: 2}}},
		{"negative head", []int{0, 1, 1}, []Arc{{To: -1}}},
		{"duplicate head", []int{0, 2, 2, 2}, []Arc{{To: 1}, {To: 1}}},
		{"decreasing heads", []int{0, 2, 2, 2}, []Arc{{To: 2}, {To: 1}}},
		{"self-arc", []int{0, 0, 1}, []Arc{{To: 1}}},
		{"negative weight", []int{0, 1, 1}, []Arc{{To: 1, W: -1}}},
		{"NaN weight", []int{0, 1, 1}, []Arc{{To: 1, W: math.NaN()}}},
	}
	for _, c := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: accepted starts %v, rows %v", c.name, c.start, c.arcs)
				}
			}()
			NewLinkGraphFromRows(c.start, c.arcs)
		}()
	}
}

// TestLinkGraphFromRowsRowsAreCapped is the capped-row test for arcs.
func TestLinkGraphFromRowsRowsAreCapped(t *testing.T) {
	g := NewLinkGraphFromRows([]int{0, 1, 2, 3}, []Arc{{To: 1, W: 1}, {To: 2, W: 2}, {To: 0, W: 3}})
	g.AddArc(0, 2, 4)
	_ = append(g.Out(1), Arc{To: 0, W: 9})
	want := [][]Arc{{{To: 1, W: 1}, {To: 2, W: 4}}, {{To: 2, W: 2}}, {{To: 0, W: 3}}}
	for u, w := range want {
		if !slices.Equal(g.Out(u), w) {
			t.Errorf("row %d = %v, want %v", u, g.Out(u), w)
		}
	}
}
