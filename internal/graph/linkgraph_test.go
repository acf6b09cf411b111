package graph

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"testing"
)

func TestLinkGraphBasics(t *testing.T) {
	g := NewLinkGraph(3)
	g.AddArc(0, 1, 2.5)
	g.AddArc(1, 2, 1.0)
	g.AddArc(1, 0, 7.0)
	if g.N() != 3 || g.M() != 3 {
		t.Fatalf("N=%d M=%d, want 3 3", g.N(), g.M())
	}
	if !g.HasArc(0, 1) || g.HasArc(2, 1) {
		t.Error("arc presence wrong")
	}
	if w := g.Weight(0, 1); w != 2.5 {
		t.Errorf("Weight(0,1) = %v, want 2.5", w)
	}
	if w := g.Weight(0, 2); !math.IsInf(w, 1) {
		t.Errorf("Weight of absent arc = %v, want +Inf", w)
	}
	if !g.SetWeight(0, 1, 3.5) || g.Weight(0, 1) != 3.5 {
		t.Error("SetWeight on existing arc failed")
	}
	if g.SetWeight(2, 0, 1) {
		t.Error("SetWeight invented an arc")
	}
	ow := g.OutWeights(1)
	if len(ow) != 2 || ow[0] != 7.0 || ow[2] != 1.0 {
		t.Errorf("OutWeights(1) = %v", ow)
	}
}

func TestLinkGraphSilenced(t *testing.T) {
	g := NewLinkGraph(3)
	g.AddArc(0, 1, 1)
	g.AddArc(1, 2, 1)
	g.AddArc(0, 2, 5)
	s := g.WithNodeSilenced(1)
	if !math.IsInf(s.Weight(1, 2), 1) {
		t.Error("silenced node still has finite out-arcs")
	}
	if s.Weight(0, 1) != 1 {
		t.Error("arcs into the silenced node should keep their weight")
	}
	if g.Weight(1, 2) != 1 {
		t.Error("WithNodeSilenced mutated the original")
	}
}

func TestLinkGraphPathCost(t *testing.T) {
	g := NewLinkGraph(3)
	g.AddArc(0, 1, 1)
	g.AddArc(1, 2, 2)
	c, err := g.PathCost([]int{0, 1, 2})
	if err != nil || c != 3 {
		t.Fatalf("PathCost = %v, %v; want 3, nil", c, err)
	}
	if _, err := g.PathCost([]int{2, 1}); err == nil {
		t.Error("PathCost accepted a reverse hop with no arc")
	}
}

func TestLinkGraphPanics(t *testing.T) {
	mustPanic := func(desc string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", desc)
			}
		}()
		f()
	}
	g := NewLinkGraph(2)
	g.AddArc(0, 1, 1)
	mustPanic("self arc", func() { g.AddArc(0, 0, 1) })
	mustPanic("duplicate arc", func() { g.AddArc(0, 1, 2) })
	mustPanic("negative weight", func() { g.AddArc(1, 0, -1) })
	mustPanic("negative set", func() { g.SetWeight(0, 1, -3) })
}

func TestStronglyReachable(t *testing.T) {
	g := NewLinkGraph(4)
	g.AddArc(1, 0, 1)
	g.AddArc(2, 1, 1)
	g.AddArc(0, 3, 1) // 3 cannot reach 0
	reach := g.StronglyReachable(0)
	want := []bool{true, true, true, false}
	for v, w := range want {
		if reach[v] != w {
			t.Errorf("reach[%d] = %v, want %v", v, reach[v], w)
		}
	}
}

func TestNodeGraphJSONRoundTrip(t *testing.T) {
	g := Figure2()
	data, err := json.Marshal(g)
	if err != nil {
		t.Fatal(err)
	}
	back, err := ReadNodeGraph(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if back.N() != g.N() || back.M() != g.M() {
		t.Fatalf("round trip changed size: %d/%d -> %d/%d", g.N(), g.M(), back.N(), back.M())
	}
	for v := 0; v < g.N(); v++ {
		if back.Cost(v) != g.Cost(v) {
			t.Errorf("cost of %d changed: %v -> %v", v, g.Cost(v), back.Cost(v))
		}
	}
	for _, e := range g.Edges() {
		if !back.HasEdge(e[0], e[1]) {
			t.Errorf("edge %v lost", e)
		}
	}
}

func TestNodeGraphJSONRejectsBadInput(t *testing.T) {
	cases := map[string]string{
		"negative cost":  `{"nodes":[-1,0],"edges":[]}`,
		"edge range":     `{"nodes":[0,0],"edges":[[0,5]]}`,
		"self loop":      `{"nodes":[0,0],"edges":[[1,1]]}`,
		"duplicate edge": `{"nodes":[0,0],"edges":[[0,1],[1,0]]}`,
		"not json":       `{"nodes":`,
	}
	for name, in := range cases {
		if _, err := ReadNodeGraph(strings.NewReader(in)); err == nil {
			t.Errorf("%s: accepted %q", name, in)
		}
	}
}

func TestLinkGraphJSONRoundTrip(t *testing.T) {
	g := NewLinkGraph(4)
	g.AddArc(0, 1, 1.5)
	g.AddArc(1, 2, 2.5)
	g.AddArc(3, 0, 0)
	g.AddArc(2, 3, Inf) // must be dropped on marshal
	data, err := json.Marshal(g)
	if err != nil {
		t.Fatal(err)
	}
	back, err := ReadLinkGraph(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if back.M() != 3 {
		t.Fatalf("round trip arc count = %d, want 3 (Inf arc dropped)", back.M())
	}
	if back.Weight(1, 2) != 2.5 || back.Weight(3, 0) != 0 {
		t.Error("weights changed in round trip")
	}
}

func TestLinkGraphJSONRejectsBadInput(t *testing.T) {
	cases := map[string]string{
		"arc range":     `{"n":2,"arcs":[{"from":0,"to":9,"w":1}]}`,
		"self arc":      `{"n":2,"arcs":[{"from":0,"to":0,"w":1}]}`,
		"negative w":    `{"n":2,"arcs":[{"from":0,"to":1,"w":-2}]}`,
		"duplicate arc": `{"n":2,"arcs":[{"from":0,"to":1,"w":1},{"from":0,"to":1,"w":2}]}`,
		"negative n":    `{"n":-1,"arcs":[]}`,
		// Unchecked, 2^62 rows overflow makeslice and panic before
		// any memory is taken, so this claim never allocates.
		"n past the bound": `{"n":4611686018427387904,"arcs":[]}`,
	}
	for name, in := range cases {
		if _, err := ReadLinkGraph(strings.NewReader(in)); err == nil {
			t.Errorf("%s: accepted %q", name, in)
		}
	}
}

// TestJSONNodeCountBound: a link or edge list may declare 2^16 nodes
// plus two per entry, and no more.
func TestJSONNodeCountBound(t *testing.T) {
	for _, c := range []struct {
		n  int
		ok bool
	}{{freeNodes + 2, true}, {freeNodes + 3, false}} {
		link := fmt.Sprintf(`{"n":%d,"arcs":[{"from":0,"to":1,"w":1}]}`, c.n)
		edge := fmt.Sprintf(`{"n":%d,"edges":[{"u":0,"v":1,"w":1}]}`, c.n)
		lg, err := ReadLinkGraph(strings.NewReader(link))
		if (err == nil) != c.ok || (c.ok && lg.N() != c.n) {
			t.Errorf("link graph of %d nodes and 1 arc: err %v, want ok=%v", c.n, err, c.ok)
		}
		if _, err := ReadEdgeWeighted(strings.NewReader(edge)); (err == nil) != c.ok {
			t.Errorf("edge graph of %d nodes and 1 edge: err %v, want ok=%v", c.n, err, c.ok)
		}
	}
}

func TestFixturesAreBiconnected(t *testing.T) {
	if !Figure2().IsBiconnected() {
		t.Error("Figure2 fixture not biconnected")
	}
	if !Figure4().IsBiconnected() {
		t.Error("Figure4 fixture not biconnected")
	}
}

func TestSymmetrized(t *testing.T) {
	g := NewLinkGraph(3)
	g.AddArc(0, 1, 1)
	g.AddArc(1, 0, 2)
	g.AddArc(1, 2, 3) // one-way: must not appear
	ng := g.Symmetrized([]float64{5, 6, 7})
	if !ng.HasEdge(0, 1) {
		t.Error("bidirectional pair lost")
	}
	if ng.HasEdge(1, 2) {
		t.Error("one-way arc symmetrized")
	}
	if ng.Cost(2) != 7 {
		t.Error("costs not applied")
	}
}

func TestEdgeWeightedJSONRoundTrip(t *testing.T) {
	g := NewEdgeWeighted(4)
	g.AddEdge(0, 1, 1.5)
	g.AddEdge(1, 2, 2.5)
	g.AddEdge(0, 3, 0)
	data, err := json.Marshal(g)
	if err != nil {
		t.Fatal(err)
	}
	back, err := ReadEdgeWeighted(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if back.N() != 4 || back.M() != 3 {
		t.Fatalf("round trip size %d/%d", back.N(), back.M())
	}
	if back.Weight(2, 1) != 2.5 || back.Weight(3, 0) != 0 {
		t.Error("weights changed in round trip")
	}
}

func TestEdgeWeightedJSONRejectsBadInput(t *testing.T) {
	cases := map[string]string{
		"edge range":       `{"n":2,"edges":[{"u":0,"v":9,"w":1}]}`,
		"self loop":        `{"n":2,"edges":[{"u":1,"v":1,"w":1}]}`,
		"negative w":       `{"n":2,"edges":[{"u":0,"v":1,"w":-2}]}`,
		"duplicate":        `{"n":2,"edges":[{"u":0,"v":1,"w":1},{"u":1,"v":0,"w":2}]}`,
		"negative n":       `{"n":-1,"edges":[]}`,
		"not json":         `{"n":`,
		"n past the bound": `{"n":4611686018427387904,"edges":[]}`,
	}
	for name, in := range cases {
		if _, err := ReadEdgeWeighted(strings.NewReader(in)); err == nil {
			t.Errorf("%s: accepted %q", name, in)
		}
	}
}

// StronglyReachable returns the set of nodes from which t is
// reachable in the directed graph following arcs forward, i.e. the
// nodes that can route to t. Arcs with +Inf weight are treated as
// absent.
func (g *LinkGraph) StronglyReachable(t int) []bool {
	// Walk the reverse graph from t.
	rev := make([][]int, g.N())
	for u, arcs := range g.out {
		for _, a := range arcs {
			if a.W < Inf {
				rev[a.To] = append(rev[a.To], u)
			}
		}
	}
	seen := make([]bool, g.N())
	seen[t] = true
	stack := []int{t}
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, v := range rev[u] {
			if !seen[v] {
				seen[v] = true
				stack = append(stack, v)
			}
		}
	}
	return seen
}

// OutWeights returns a copy of u's declared out-cost vector as a map
// from head to weight; this is the agent's declared type d_u.
func (g *LinkGraph) OutWeights(u int) map[int]float64 {
	m := make(map[int]float64, len(g.out[u]))
	for _, a := range g.out[u] {
		m[a.To] = a.W
	}
	return m
}

// WithNodeSilenced returns a copy of the graph in which node v's
// *out*-arcs all have weight +Inf. This is how §III.F computes the
// v-avoiding least cost path: "to calculate the least cost
// v_k-avoiding-path, we set d_{k,j} = ∞ for each node v_j". Arcs
// *into* v keep their weights but lead nowhere useful, which is
// equivalent to removing the node for s→t paths that would have to
// leave v again.
func (g *LinkGraph) WithNodeSilenced(v int) *LinkGraph {
	c := &LinkGraph{out: make([][]Arc, g.N())}
	copy(c.out, g.out)
	silenced := append([]Arc(nil), g.out[v]...)
	for i := range silenced {
		silenced[i].W = Inf
	}
	c.out[v] = silenced
	return c
}
