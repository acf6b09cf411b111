package core

import (
	"fmt"
	"math"
	"math/rand/v2"
	"reflect"
	"slices"
	"sync"
	"testing"

	"truthroute/internal/graph"
	"truthroute/internal/sp"
	"truthroute/internal/wireless"
)

// udgFixture draws a paper-scale deployment: n nodes uniform in a
// 2000 m square with a 300 m common range. It returns the node model
// (U[1,10) relay costs), the link model (path loss κ=2, distances in
// thirds of the range) and the node nearest the centre, which the
// tests use as the access point.
func udgFixture(n int, seed uint64) (*graph.NodeGraph, *graph.LinkGraph, int) {
	const side, radio = 2000.0, 300.0
	rng := rand.New(rand.NewPCG(seed, uint64(n)))
	dep := wireless.PlaceUniform(n, side, radio, rng)
	centre := wireless.Point{X: side / 2, Y: side / 2}
	dest := 0
	for v := range dep.Pos {
		if dep.Pos[v].Dist(centre) < dep.Pos[dest].Dist(centre) {
			dest = v
		}
	}
	return dep.NodeCostUDG(1, 10, rng), dep.LinkGraph(wireless.PathLoss{Kappa: 2, Unit: radio / 3}), dest
}

// sameQuote checks a batch quote against the single-source engine's:
// identical path, cost and payments within 1e-9 relative, +Inf only
// where the reference has +Inf.
func sameQuote(t *testing.T, model string, got, want *Quote, err error) {
	t.Helper()
	if err != nil {
		if got != nil {
			t.Errorf("%s: batch quoted %v where the single-source engine failed: %v", model, got, err)
		}
		return
	}
	if got == nil {
		t.Errorf("%s %d->%d: batch has no quote", model, want.Source, want.Target)
		return
	}
	if !slices.Equal(got.Path, want.Path) {
		t.Errorf("%s %d->%d: path %v, want %v", model, want.Source, want.Target, got.Path, want.Path)
		return
	}
	if !almostEqual(got.Cost, want.Cost) {
		t.Errorf("%s %d->%d: cost %v, want %v", model, want.Source, want.Target, got.Cost, want.Cost)
	}
	if len(got.Payments) != len(want.Payments) {
		t.Errorf("%s %d->%d: payments %v, want %v", model, want.Source, want.Target, got.Payments, want.Payments)
		return
	}
	for k, w := range want.Payments {
		if p, ok := got.Payments[k]; !ok || !almostEqual(p, w) {
			t.Errorf("%s %d->%d: p^%d = %v, want %v", model, want.Source, want.Target, k, p, w)
		}
	}
}

func checkAllUnicast(t *testing.T, g *graph.NodeGraph, dest int) {
	t.Helper()
	all := AllUnicastQuotes(g, dest)
	if all[dest] != nil {
		t.Errorf("node: destination entry %v, want nil", all[dest])
	}
	for s := 0; s < g.N(); s++ {
		if s != dest {
			want, err := UnicastQuote(g, s, dest, EngineNaive)
			sameQuote(t, "node", all[s], want, err)
		}
	}
}

func checkAllLink(t *testing.T, g *graph.LinkGraph, dest int) {
	t.Helper()
	all := AllLinkQuotes(g, dest)
	if all[dest] != nil {
		t.Errorf("link: destination entry %v, want nil", all[dest])
	}
	for s := 0; s < g.N(); s++ {
		if s != dest {
			want, err := LinkQuote(g, s, dest)
			sameQuote(t, "link", all[s], want, err)
		}
	}
}

// TestAllSourcesMatchPerSourceUDG is the paper-scale differential:
// every source of a Figure-3 style deployment, both cost models,
// against the single-source engines.
func TestAllSourcesMatchPerSourceUDG(t *testing.T) {
	for _, n := range []int{100, 300} {
		g, lg, dest := udgFixture(n, 1)
		checkAllUnicast(t, g, dest)
		checkAllLink(t, lg, dest)
	}
}

// bitwiseQuote fails unless got carries exactly want's path, cost bits
// and payment bits.
func bitwiseQuote(t *testing.T, label string, got, want *Quote) {
	t.Helper()
	if got == nil || !slices.Equal(got.Path, want.Path) {
		t.Fatalf("%s %d->%d: batch %v, want path %v", label, want.Source, want.Target, got, want.Path)
	}
	if math.Float64bits(got.Cost) != math.Float64bits(want.Cost) || len(got.Payments) != len(want.Payments) {
		t.Fatalf("%s %d->%d: batch cost %v payments %v, want %v %v",
			label, want.Source, want.Target, got.Cost, got.Payments, want.Cost, want.Payments)
	}
	for k, w := range want.Payments {
		if p, ok := got.Payments[k]; !ok || math.Float64bits(p) != math.Float64bits(w) {
			t.Fatalf("%s %d->%d: p^%d = %v (bits %x), want %v (bits %x)",
				label, want.Source, want.Target, k, p, math.Float64bits(p), w, math.Float64bits(w))
		}
	}
}

// TestAllSourcesBitwiseQuantized: on exact costs (quarter-grid, or
// wide-span integers) every sum is exact and every node-model engine
// routes along the destination tree, so the batch engine's quotes
// equal Solver.Quote's bit for bit, path included, for both engines
// and every source. The oracle's engine-batch check relies on this.
func TestAllSourcesBitwiseQuantized(t *testing.T) {
	sv := NewSolver()
	check := func(label string, g *graph.NodeGraph, dest int) {
		t.Helper()
		if _, ok := g.CostQuantum(); !ok {
			t.Fatalf("%s: costs are not exact", label)
		}
		all := AllUnicastQuotes(g, dest)
		for s := 0; s < g.N(); s++ {
			if s == dest {
				continue
			}
			for _, engine := range []Engine{EngineFast, EngineNaive} {
				want, err := sv.Quote(g, s, dest, engine)
				if err != nil {
					if all[s] != nil {
						t.Fatalf("%s: batch quoted unreachable source %d", label, s)
					}
					continue
				}
				bitwiseQuote(t, label, all[s], want)
			}
		}
	}
	for _, n := range []int{100, 300} {
		for seed := uint64(1); seed <= 2; seed++ {
			g0, _, dest := udgFixture(n, seed)
			costs := g0.Costs()
			for v := range costs {
				costs[v] = math.Round(costs[v]*4) / 4
			}
			check(fmt.Sprintf("udg n=%d seed=%d", n, seed), g0.WithCosts(costs), dest)
		}
	}
	for seed := uint64(1); seed <= 3; seed++ {
		g, ap := quarterUDG(300, seed)
		check(fmt.Sprintf("serving seed=%d", seed), g, ap)
	}
	// Wide span: integer costs up to 2^20. Exactness rests on exact
	// sums alone, not on how far apart the costs lie. Four cost levels
	// on a grid make equal-cost ties everywhere, so a source-tree path
	// would differ from the destination tree's.
	grid := graph.Grid(12, 12)
	rng := rand.New(rand.NewPCG(20, 1))
	for v := 0; v < grid.N(); v++ {
		grid.SetCost(v, float64((1+rng.IntN(4))<<18))
	}
	check("wide-span grid corner", grid, 0)
	check("wide-span grid centre", grid, 6*12+6)
	for seed := uint64(1); seed <= 2; seed++ {
		g0, _, dest := udgFixture(300, seed)
		costs := g0.Costs()
		for v := range costs {
			costs[v] = math.Round(costs[v] * (1 << 16))
		}
		check(fmt.Sprintf("wide-span udg seed=%d", seed), g0.WithCosts(costs), dest)
	}
}

// TestAllSourcesNodePaymentOrder pins the float order of the node
// payment A − cost + c_k on continuous costs. Source 1 reaches
// destination 0 over parallel chains of one or two relays, so every
// path sum it needs has at most two terms and is the same float
// whichever end it is summed from; only the order of the final
// combination can then make the batch payment differ from QuoteInto's.
func TestAllSourcesNodePaymentOrder(t *testing.T) {
	rng := rand.New(rand.NewPCG(15, 1))
	sv := NewSolver()
	for trial := 0; trial < 200; trial++ {
		chains := 2 + rng.IntN(4)
		g := graph.NewNodeGraph(2 + 2*chains)
		next := 2
		for c := 0; c < chains; c++ {
			if rng.IntN(2) == 0 {
				g.AddEdge(1, next)
				g.AddEdge(next, 0)
				next++
				continue
			}
			g.AddEdge(1, next)
			g.AddEdge(next, next+1)
			g.AddEdge(next+1, 0)
			next += 2
		}
		for v := 1; v < g.N(); v++ {
			g.SetCost(v, 1+9*rng.Float64())
		}
		got := AllUnicastQuotes(g, 0)[1]
		for _, engine := range []Engine{EngineFast, EngineNaive} {
			want, err := sv.Quote(g, 1, 0, engine)
			if err != nil {
				t.Fatal(err)
			}
			bitwiseQuote(t, "chains", got, want)
		}
	}
}

// reversed returns g with every arc turned around, weights kept.
func reversed(g *graph.LinkGraph) *graph.LinkGraph {
	r := graph.NewLinkGraph(g.N())
	for u := 0; u < g.N(); u++ {
		for _, a := range g.Out(u) {
			r.AddArc(a.To, u, a.W)
		}
	}
	return r
}

// TestLinkDestTreeBitIdentical pins the link engine's destination
// tree to a forward Dijkstra from dest on the reversed graph: the
// same distances bit for bit and the same parent for every node.
func TestLinkDestTreeBitIdentical(t *testing.T) {
	for _, n := range []int{100, 300} {
		_, lg, dest := udgFixture(n, 2)
		want := sp.LinkDijkstra(reversed(lg), dest, nil)
		bs := acquireBatch(n)
		bs.loadLink(lg)
		bs.destTree(dest)
		for v := 0; v < n; v++ {
			if math.Float64bits(bs.dist[v]) != math.Float64bits(want.Dist[v]) || int(bs.parent[v]) != want.Parent[v] {
				t.Fatalf("n=%d node %d: dist %v parent %d, want %v parent %d",
					n, v, bs.dist[v], bs.parent[v], want.Dist[v], want.Parent[v])
			}
		}
		batchPool.Put(bs)
	}
}

// TestNodeDestTreeSharedBySolver pins the one tie rule's tree: on
// quantized serving fixtures the batch engine's node-model destination
// tree equals Solver.DestTable parent for parent and distance for
// distance.
func TestNodeDestTreeSharedBySolver(t *testing.T) {
	sv := NewSolver()
	for seed := uint64(1); seed <= 4; seed++ {
		g, ap := quarterUDG(300, seed)
		bs := acquireBatch(g.N())
		bs.loadNode(g, ap)
		bs.destTree(ap)
		want := sv.DestTable(g, ap)
		for v := 0; v < g.N(); v++ {
			if math.Float64bits(bs.dist[v]) != math.Float64bits(want.Dist[v]) || int(bs.parent[v]) != want.Parent[v] {
				t.Fatalf("seed=%d node %d: dist %v parent %d, want %v parent %d",
					seed, v, bs.dist[v], bs.parent[v], want.Dist[v], want.Parent[v])
			}
		}
		batchPool.Put(bs)
	}
}

// TestAllSourcesEdgeCases covers the inputs the UDG fixtures do not
// reach: zero-cost relays, a component cut off from the destination,
// a monopolist (a pendant source whose only neighbour is a relay) and
// +Inf arcs.
func TestAllSourcesEdgeCases(t *testing.T) {
	// 0 is the destination. The ring 0-1-2-3-4-0 has zero-cost relays
	// 1 and 2 on the cheap side; 7 hangs off 3 (so 3 is 7's
	// monopolist); 5-6 is a component of its own.
	g := graph.NewNodeGraph(8)
	for _, e := range [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 0}, {5, 6}, {3, 7}} {
		g.AddEdge(e[0], e[1])
	}
	g.SetCosts([]float64{0, 0, 0, 1, 5, 2, 2, 3})
	checkAllUnicast(t, g, 0)
	all := AllUnicastQuotes(g, 0)
	if all[5] != nil || all[6] != nil {
		t.Errorf("cut-off component quoted: %v %v", all[5], all[6])
	}
	if m := all[7].Monopolists(); !slices.Equal(m, []int{3}) {
		t.Errorf("monopolists of 7 = %v, want [3]", m)
	}
	// Source 3 reaches 0 through the two free relays; avoiding either
	// forces the detour through 4.
	if q := all[3]; !slices.Equal(q.Path, []int{3, 2, 1, 0}) || q.Payments[1] != 5 || q.Payments[2] != 5 {
		t.Errorf("source 3: %v payments %v, want path [3 2 1 0] paying 5 to each relay", q.Path, q.Payments)
	}

	// The same topology as a link graph: distinct weights keep every
	// least cost path unique. The +Inf arc 2->1 is a link out of range,
	// so 2 must go round through 3 and 4, and 4 joins 3 as a
	// monopolist for 7.
	lg := graph.NewLinkGraph(8)
	rng := rand.New(rand.NewPCG(7, 7))
	for _, e := range g.Edges() {
		lg.AddArc(e[0], e[1], 1+rng.Float64())
		lg.AddArc(e[1], e[0], 1+rng.Float64())
	}
	lg.SetWeight(2, 1, graph.Inf)
	lg.SetWeight(1, 0, 0)
	checkAllLink(t, lg, 0)
	la := AllLinkQuotes(lg, 0)
	if la[5] != nil || la[6] != nil {
		t.Errorf("link: cut-off component quoted: %v %v", la[5], la[6])
	}
	if p := la[2].Path; !slices.Equal(p, []int{2, 3, 4, 0}) {
		t.Errorf("link: path of 2 = %v, want [2 3 4 0]", p)
	}
	if m := la[7].Monopolists(); !slices.Equal(m, []int{3, 4}) {
		t.Errorf("link: monopolists of 7 = %v, want [3 4]", m)
	}
}

// TestAllSourcesConcurrent runs both engines from several goroutines
// at once on instances of two sizes, so pooled workspaces pass
// between callers and regrow, and checks every result against a
// sequential solve.
func TestAllSourcesConcurrent(t *testing.T) {
	type instance struct {
		g          *graph.NodeGraph
		lg         *graph.LinkGraph
		dest       int
		node, link []*Quote
	}
	var insts []instance
	for _, n := range []int{100, 300} {
		for seed := uint64(1); seed <= 2; seed++ {
			g, lg, dest := udgFixture(n, seed)
			insts = append(insts, instance{g, lg, dest, AllUnicastQuotes(g, dest), AllLinkQuotes(lg, dest)})
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < 2*len(insts); r++ {
				in := insts[(w+r)%len(insts)]
				if !reflect.DeepEqual(AllUnicastQuotes(in.g, in.dest), in.node) ||
					!reflect.DeepEqual(AllLinkQuotes(in.lg, in.dest), in.link) {
					t.Errorf("worker %d round %d: concurrent solve differs from the sequential one", w, r)
				}
			}
		}(w)
	}
	wg.Wait()
}

// The all-sources engines on one n=300 deployment, the size of the
// serving fixture and the middle of the Figure-3 sweep, and on one
// n=500 deployment, the sweep's largest size, where link-model paths
// are longest.
func BenchmarkAllSourcesLinkUDG300(b *testing.B) { benchAllLink(b, 300) }
func BenchmarkAllSourcesNodeUDG300(b *testing.B) { benchAllNode(b, 300) }
func BenchmarkAllSourcesLinkUDG500(b *testing.B) { benchAllLink(b, 500) }
func BenchmarkAllSourcesNodeUDG500(b *testing.B) { benchAllNode(b, 500) }

func benchAllLink(b *testing.B, n int) {
	_, lg, dest := udgFixture(n, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		AllLinkQuotes(lg, dest)
	}
}

func benchAllNode(b *testing.B, n int) {
	g, _, dest := udgFixture(n, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		AllUnicastQuotes(g, dest)
	}
}
