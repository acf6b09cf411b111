package core

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"testing"
	"testing/quick"

	"truthroute/internal/graph"
	"truthroute/internal/pq"
)

func TestAllUnicastQuotesFigures(t *testing.T) {
	for name, g := range map[string]*graph.NodeGraph{"fig2": graph.Figure2(), "fig4": graph.Figure4()} {
		t.Run(name, func(t *testing.T) {
			all := AllUnicastQuotes(g, 0)
			if all[0] != nil {
				t.Error("destination entry should be nil")
			}
			for i := 1; i < g.N(); i++ {
				want, err := UnicastQuote(g, i, 0, EngineNaive)
				if err != nil {
					t.Fatal(err)
				}
				got := all[i]
				if got == nil {
					t.Fatalf("no quote for %d", i)
				}
				if !almostEqual(got.Cost, want.Cost) {
					t.Errorf("node %d: cost %v, want %v", i, got.Cost, want.Cost)
				}
				if len(got.Payments) != len(want.Payments) {
					t.Fatalf("node %d: payments %v vs %v", i, got.Payments, want.Payments)
				}
				for k, w := range want.Payments {
					if !almostEqual(got.Payments[k], w) {
						t.Errorf("node %d: p^%d = %v, want %v", i, k, got.Payments[k], w)
					}
				}
			}
		})
	}
}

func TestQuickAllUnicastQuotesMatchPerSource(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 60))
		n := 4 + rng.IntN(30)
		g := graph.ErdosRenyi(n, 0.25, rng)
		g.RandomizeCosts(0.1, 5, rng)
		all := AllUnicastQuotes(g, 0)
		for i := 1; i < n; i++ {
			want, err := UnicastQuote(g, i, 0, EngineNaive)
			if err != nil {
				if all[i] != nil {
					t.Logf("seed %d: quote for unreachable %d", seed, i)
					return false
				}
				continue
			}
			got := all[i]
			if got == nil || !almostEqual(got.Cost, want.Cost) || len(got.Payments) != len(want.Payments) {
				t.Logf("seed %d node %d: %v vs %v", seed, i, got, want)
				return false
			}
			for k, w := range want.Payments {
				if !almostEqual(got.Payments[k], w) {
					t.Logf("seed %d node %d: p^%d = %v want %v", seed, i, k, got.Payments[k], w)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickAllLinkQuotesMatchPerSource(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 61))
		n := 4 + rng.IntN(25)
		g := graph.RandomLinkGraph(n, 0.3, 0.1, 5, rng)
		all := AllLinkQuotes(g, 0)
		for i := 1; i < n; i++ {
			want, err := LinkQuote(g, i, 0)
			if err != nil {
				if all[i] != nil {
					t.Logf("seed %d: quote for unreachable %d", seed, i)
					return false
				}
				continue
			}
			got := all[i]
			if got == nil || !almostEqual(got.Cost, want.Cost) || len(got.Payments) != len(want.Payments) {
				t.Logf("seed %d node %d: %v vs %v", seed, i, got, want)
				return false
			}
			for k, w := range want.Payments {
				if !almostEqual(got.Payments[k], w) {
					t.Logf("seed %d node %d: p^%d = %v want %v", seed, i, k, got.Payments[k], w)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

func TestAllQuotesMonopoly(t *testing.T) {
	// 0-1-2 path: node 2's only route transits the monopolist 1.
	g := graph.NewNodeGraph(3)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.SetCosts([]float64{0, 7, 0})
	all := AllUnicastQuotes(g, 0)
	if got := all[2].Monopolists(); len(got) != 1 || got[0] != 1 {
		t.Errorf("monopolists = %v, want [1]", got)
	}
}

// TestAllSourcesOutOfRangeDest pins the input contract of both batch
// entry points: a destination outside the graph, or a graph too small
// to route in, yields g.N() nil entries rather than a panic.
func TestAllSourcesOutOfRangeDest(t *testing.T) {
	ring := graph.Ring(5)
	lg := graph.NewLinkGraph(3)
	lg.AddArc(0, 1, 1)
	lg.AddArc(1, 2, 1)
	single := graph.NewNodeGraph(1)
	for _, c := range []struct {
		name string
		out  []*Quote
		n    int
	}{
		{"node dest=-1", AllUnicastQuotes(ring, -1), 5},
		{"node dest=n", AllUnicastQuotes(ring, 5), 5},
		{"node n=1", AllUnicastQuotes(single, 0), 1},
		{"link dest=-1", AllLinkQuotes(lg, -1), 3},
		{"link dest=n", AllLinkQuotes(lg, 3), 3},
	} {
		if len(c.out) != c.n {
			t.Errorf("%s: %d entries, want %d", c.name, len(c.out), c.n)
		}
		for s, q := range c.out {
			if q != nil {
				t.Errorf("%s: entry %d = %v, want nil", c.name, s, q)
			}
		}
	}
}

// scanAvoidRows recomputes every avoid row the way the engine did
// before it moved to preorder space, from bs's destination tree and
// layout: for each relay k it seeds every i ∈ T_k by rescanning all of
// i's out-arcs (out, original ids) and then runs one Dijkstra over T_k
// along bs.in, testing each tail's slot. rows[i] lists A_i^k for i's
// relays in path order.
func scanAvoidRows(bs *batchSpace, out *arcs) (rows [][]float64) {
	n := len(bs.pre)
	rows = make([][]float64, n)
	for _, v := range bs.settled[1:] {
		rows[v] = make([]float64, bs.hops[v]-1)
	}
	in, pre, dist := &bs.in, bs.pre, bs.dist
	a := make([]float64, n)
	h := pq.NewBinary(n)
	for _, k := range bs.settled[1:] {
		lo, hi := pre[k], pre[k]+bs.size[k]
		sub := bs.order[lo+1 : hi]
		for _, i := range sub {
			best := math.Inf(1)
			for e := out.off[i]; e < out.off[i+1]; e++ {
				if p := pre[out.head[e]]; p >= lo && p < hi {
					continue // the arc stays in T_k ∪ {k}
				}
				if c := out.w[e] + dist[out.head[e]]; c < best {
					best = c
				}
			}
			a[i] = best
			if !math.IsInf(best, 1) {
				h.Push(int(i), best)
			}
		}
		for h.Len() > 0 {
			x, ax := h.Pop()
			for e := in.off[x]; e < in.off[x+1]; e++ {
				b := int(in.head[e])
				if p := pre[b]; p <= lo || p >= hi {
					continue // b is k itself or outside T_k
				}
				if nd := in.w[e] + ax; nd < a[b] {
					a[b] = nd
					if h.Contains(b) {
						h.DecreaseKey(b, nd)
					} else {
						h.Push(b, nd)
					}
				}
			}
		}
		for _, i := range sub {
			rows[i][bs.hops[i]-bs.hops[k]-1] = a[i]
		}
	}
	return rows
}

// nodeOutArcs lists the node model's arcs by tail: entering j costs
// c_j, entering dest nothing.
func nodeOutArcs(g *graph.NodeGraph, dest int) *arcs {
	csr := g.CSR()
	out := &arcs{off: slices.Clone(csr.Offsets), head: slices.Clone(csr.Targets), w: make([]float64, len(csr.Targets))}
	for e, j := range csr.Targets {
		if int(j) != dest {
			out.w[e] = g.Cost(int(j))
		}
	}
	return out
}

// linkOutArcs lists a link graph's arcs by tail.
func linkOutArcs(g *graph.LinkGraph) *arcs {
	out := &arcs{off: make([]int32, 1, g.N()+1)}
	for u := 0; u < g.N(); u++ {
		for _, a := range g.Out(u) {
			out.head = append(out.head, int32(a.To))
			out.w = append(out.w, a.W)
		}
		out.off = append(out.off, int32(len(out.head)))
	}
	return out
}

// TestAvoidRowsMatchPerRelayScan holds the preorder-space seeding and
// search to the per-relay scan they replaced, bit for bit, on every
// avoid row: UDG deployments in both models, quarter-grid costs,
// zero-cost relays and zero-weight arcs, +Inf arcs, and sources that
// cannot reach dest.
func TestAvoidRowsMatchPerRelayScan(t *testing.T) {
	rows, unreachable := 0, 0
	check := func(label string, n, dest int, load func(*batchSpace), out *arcs) {
		t.Helper()
		bs := acquireBatch(n)
		defer batchPool.Put(bs)
		load(bs)
		bs.solve(dest)
		want := scanAvoidRows(bs, out)
		for _, v := range bs.settled[1:] {
			got := bs.avoidRow(int(v))
			for idx, w := range want[v] {
				if math.Float64bits(got[idx]) != math.Float64bits(w) {
					t.Fatalf("%s: source %d relay #%d: A = %v, per-relay scan %v", label, v, idx, got[idx], w)
				}
			}
			rows++
		}
		unreachable += n - len(bs.settled)
	}
	quarter := func(x float64) float64 { return math.Round(x*4) / 4 }
	for _, n := range []int{100, 300, 500} {
		g, lg, dest := udgFixture(n, 1)
		rng := rand.New(rand.NewPCG(uint64(n), 28))
		dests := []int{dest, rng.IntN(n)}
		grid, zeros := g.Costs(), g.Costs()
		for v := range grid {
			grid[v] = quarter(grid[v])
			zeros[v] = grid[v]
			if rng.IntN(4) == 0 {
				zeros[v] = 0
			}
		}
		snapped := lg.Clone()
		for u := 0; u < n; u++ {
			for _, a := range snapped.Out(u) {
				w := quarter(a.W)
				switch rng.IntN(8) {
				case 0:
					w = 0
				case 1:
					w = graph.Inf
				}
				snapped.SetWeight(u, a.To, w)
			}
		}
		for _, d := range dests {
			for _, c := range []struct {
				name string
				g    *graph.NodeGraph
			}{{"continuous", g}, {"quarter", g.WithCosts(grid)}, {"zero-cost", g.WithCosts(zeros)}} {
				check(fmt.Sprintf("node %s n=%d dest=%d", c.name, n, d), n, d,
					func(bs *batchSpace) { bs.loadNode(c.g, d) }, nodeOutArcs(c.g, d))
			}
			for _, c := range []struct {
				name string
				g    *graph.LinkGraph
			}{{"continuous", lg}, {"quarter", snapped}} {
				check(fmt.Sprintf("link %s n=%d dest=%d", c.name, n, d), n, d,
					func(bs *batchSpace) { bs.loadLink(c.g) }, linkOutArcs(c.g))
			}
		}
	}
	if unreachable == 0 {
		t.Fatal("no instance has a source that cannot reach dest")
	}
	t.Logf("%d avoid rows match; %d sources could not reach dest", rows, unreachable)
}

// TestAvoidingPathInsideOneChildSubtree pins why the per-relay search
// cannot be cut down to arcs between different child subtrees of k.
// On the 6-cycle 0–1–2–3–4–5–0 with dest 0, costs c1..c4 = 1 and
// c5 = 100, source 3 routes 3→2→1→0 and relay 1 has the single child
// 2. Source 3 has no exit seed for either relay, since both its
// neighbours lie in T_1 ∪ {1} and T_2 ∪ {2}; its only avoiding path
// 3→4→5→0 starts with the arc 3→4 inside that one child subtree. So
// p^1 = p^2 = 101 − 2 + 1 = 100, in both batch engines and in the
// naive single-source engine. The link model charges each node its
// cost on its outgoing arcs.
func TestAvoidingPathInsideOneChildSubtree(t *testing.T) {
	costs := []float64{0, 1, 1, 1, 1, 100}
	g := graph.NewNodeGraph(len(costs))
	lg := graph.NewLinkGraph(len(costs))
	for u := range costs {
		v := (u + 1) % len(costs)
		g.AddEdge(u, v)
		lg.AddArc(u, v, costs[u])
		lg.AddArc(v, u, costs[v])
	}
	g.SetCosts(costs)
	naive, err := UnicastQuote(g, 3, 0, EngineNaive)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		q    *Quote
	}{{"naive", naive}, {"node batch", AllUnicastQuotes(g, 0)[3]}, {"link batch", AllLinkQuotes(lg, 0)[3]}} {
		if c.q == nil || !slices.Equal(c.q.Path, []int{3, 2, 1, 0}) || len(c.q.Payments) != 2 ||
			c.q.Payments[1] != 100 || c.q.Payments[2] != 100 {
			t.Errorf("%s: %v, want path [3 2 1 0] paying 100 to relays 1 and 2", c.name, c.q)
		}
	}
}
