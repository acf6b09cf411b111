package wireless

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"testing"

	"truthroute/internal/graph"
)

// The all-pairs builders the grid search replaced, kept as the
// reference the differential tests hold the grid builders to. refUDG
// leaves out the common-range check; its callers guarantee it.

// CanReach reports whether node i's transmitter covers node j, the
// arc predicate of the all-pairs reference.
func (d *Deployment) CanReach(i, j int) bool {
	return i != j && d.Pos[i].Dist(d.Pos[j]) <= d.Range[i]
}

func refLinkGraph(d *Deployment, m CostModel) *graph.LinkGraph {
	g := graph.NewLinkGraph(d.N())
	for i := 0; i < d.N(); i++ {
		for j := 0; j < d.N(); j++ {
			if d.CanReach(i, j) {
				g.AddArc(i, j, m.LinkCost(i, d.Pos[i].Dist(d.Pos[j])))
			}
		}
	}
	return g
}

func refUDG(d *Deployment) *graph.NodeGraph {
	g := graph.NewNodeGraph(d.N())
	for i := 0; i < d.N(); i++ {
		for j := i + 1; j < d.N(); j++ {
			if d.Pos[i].Dist(d.Pos[j]) <= d.Range[0] {
				g.AddEdge(i, j)
			}
		}
	}
	return g
}

func refGabriel(d *Deployment) *graph.NodeGraph {
	g := refUDG(d)
	out := graph.NewNodeGraph(d.N())
	for _, e := range g.Edges() {
		u, v := e[0], e[1]
		mid := Point{X: (d.Pos[u].X + d.Pos[v].X) / 2, Y: (d.Pos[u].Y + d.Pos[v].Y) / 2}
		r := d.Pos[u].Dist(d.Pos[v]) / 2
		blocked := false
		for w := 0; w < d.N(); w++ {
			if w == u || w == v {
				continue
			}
			if mid.Dist(d.Pos[w]) < r-1e-12 {
				blocked = true
				break
			}
		}
		if !blocked {
			out.AddEdge(u, v)
		}
	}
	return out
}

func refRNG(d *Deployment) *graph.NodeGraph {
	g := refUDG(d)
	out := graph.NewNodeGraph(d.N())
	for _, e := range g.Edges() {
		u, v := e[0], e[1]
		duv := d.Pos[u].Dist(d.Pos[v])
		blocked := false
		for w := 0; w < d.N(); w++ {
			if w == u || w == v {
				continue
			}
			if d.Pos[u].Dist(d.Pos[w]) < duv-1e-12 && d.Pos[v].Dist(d.Pos[w]) < duv-1e-12 {
				blocked = true
				break
			}
		}
		if !blocked {
			out.AddEdge(u, v)
		}
	}
	return out
}

// sameNodeGraph reports the first difference between two node graphs:
// node count, edge list, or any adjacency row's contents. A row may
// not be allocated larger than the reference's.
func sameNodeGraph(got, want *graph.NodeGraph) error {
	if got.N() != want.N() {
		return fmt.Errorf("N = %d, want %d", got.N(), want.N())
	}
	if !slices.Equal(got.Edges(), want.Edges()) {
		return fmt.Errorf("edges differ: %d vs %d", got.M(), want.M())
	}
	for i := 0; i < got.N(); i++ {
		g, w := got.Neighbors(i), want.Neighbors(i)
		if !slices.Equal(g, w) {
			return fmt.Errorf("row %d = %v, want %v", i, g, w)
		}
		if cap(g) > cap(w) {
			return fmt.Errorf("row %d capacity %d, reference %d", i, cap(g), cap(w))
		}
	}
	return nil
}

// sameLinkGraph reports the first difference between two link graphs,
// comparing every arc's head and the bits of its weight.
func sameLinkGraph(got, want *graph.LinkGraph) error {
	if got.N() != want.N() {
		return fmt.Errorf("N = %d, want %d", got.N(), want.N())
	}
	for i := 0; i < got.N(); i++ {
		g, w := got.Out(i), want.Out(i)
		if len(g) != len(w) {
			return fmt.Errorf("row %d has %d arcs, want %d", i, len(g), len(w))
		}
		for k := range g {
			if g[k].To != w[k].To || math.Float64bits(g[k].W) != math.Float64bits(w[k].W) {
				return fmt.Errorf("row %d arc %d = %v, want %v", i, k, g[k], w[k])
			}
		}
		if cap(g) > cap(w) {
			return fmt.Errorf("row %d capacity %d, reference %d", i, cap(g), cap(w))
		}
	}
	return nil
}

// diffBuilders holds every graph builder of d to its all-pairs
// reference: LinkGraph always, and UDG, RNG and Gabriel when the
// deployment has a common range (their precondition).
func diffBuilders(d *Deployment) error {
	m := PathLoss{Kappa: 2, Unit: 100}
	if err := sameLinkGraph(d.LinkGraph(m), refLinkGraph(d, m)); err != nil {
		return fmt.Errorf("LinkGraph: %w", err)
	}
	for i := 1; i < d.N(); i++ {
		if d.Range[i] != d.Range[0] {
			return nil
		}
	}
	for _, b := range []struct {
		name      string
		got, want func(*Deployment) *graph.NodeGraph
	}{
		{"UDG", (*Deployment).UDG, refUDG},
		{"RNG", (*Deployment).RNG, refRNG},
		{"Gabriel", (*Deployment).Gabriel, refGabriel},
	} {
		if err := sameNodeGraph(b.got(d), b.want(d)); err != nil {
			return fmt.Errorf("%s: %w", b.name, err)
		}
	}
	return nil
}

func common(pos []Point, r float64) *Deployment {
	d := &Deployment{Pos: pos, Range: make([]float64, len(pos))}
	for i := range d.Range {
		d.Range[i] = r
	}
	return d
}

// TestGridMatchesAllPairsRandom: 200 seeded deployments, n from 0 to
// 600, region and range drawn per seed so density runs from isolated
// nodes to near-complete graphs, every fourth one shifted to negative
// coordinates and every fifth given per-node ranges.
func TestGridMatchesAllPairsRandom(t *testing.T) {
	for seed := uint64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewPCG(seed, 17))
		n := rng.IntN(601)
		side := 200 + 3800*rng.Float64()
		r := 20 + 480*rng.Float64()
		var d *Deployment
		if seed%5 == 4 {
			d = PlaceUniformRanges(n, side, r/4, r, rng)
		} else {
			d = PlaceUniform(n, side, r, rng)
		}
		if seed%4 == 3 {
			for i := range d.Pos {
				d.Pos[i].X -= 1e6
				d.Pos[i].Y -= 3 * side
			}
		}
		if err := coverErr(d.Pos, r); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := diffBuilders(d); err != nil {
			t.Fatalf("seed %d (n=%d, side %.0f, range %.0f): %v", seed, n, side, r, err)
		}
	}
}

// TestGridMatchesAllPairsBorders: pairs exactly one range apart, and
// pairs one range apart straddling the cell borders the grid draws,
// at small and large coordinate magnitudes and at ranges that are not
// dyadic numbers.
func TestGridMatchesAllPairsBorders(t *testing.T) {
	for _, r := range []float64{300, 0.1, 7} {
		for _, base := range []float64{0, -1e9, 3.7e12} {
			var pos []Point
			for i := 0; i < 7; i++ {
				for j := 0; j < 7; j++ {
					pos = append(pos, Point{base + float64(i)*r, base + float64(j)*r})
				}
			}
			// The borders sit at base + k·side. The extra points stay
			// inside the lattice and are too few to move the side.
			s := newGrid(pos, r).side
			for k := 1; float64(k)*s+r < 6*r; k++ {
				b := base + float64(k)*s
				below := math.Nextafter(b, math.Inf(-1))
				pos = append(pos,
					Point{b, base + r/2},
					Point{below, base + r/3}, Point{below + r, base + r/3},
					Point{base + r/5, below}, Point{base + r/5, below + r})
			}
			if got := newGrid(pos, r).side; got != s {
				t.Fatalf("range %v, base %v: border points moved the side %v -> %v", r, base, s, got)
			}
			d := common(pos, r)
			if err := coverErr(d.Pos, r); err != nil {
				t.Fatalf("range %v, base %v: %v", r, base, err)
			}
			if err := diffBuilders(d); err != nil {
				t.Fatalf("range %v, base %v: %v", r, base, err)
			}
		}
	}
}

// TestGridMatchesAllPairsNearRange: pairs whose length is R·(1 + k·2^-52)
// for |k| ≤ 8, where rounding decides the predicate, and pairs at the
// edges of the 2^-40 band the squared-distance prefilter hands to
// Hypot, at coordinate magnitudes 0, −1e9 and 3.7e12 and at ranges
// from tiny to huge, both sides of the prefilter's [2^-500, 2^500]
// guard. Each pair sits 4R from the next, and random draws near R add
// pairs that a prefilter without the band, a plain s ≤ R², decides
// against Hypot; the test requires some.
func TestGridMatchesAllPairsNearRange(t *testing.T) {
	var scales []float64
	for k := -8.0; k <= 8; k++ {
		scales = append(scales, 1+k*0x1p-52)
	}
	for _, edge := range []float64{math.Sqrt(1 - 0x1p-40), math.Sqrt(1 + 0x1p-40)} {
		for k := -3.0; k <= 3; k++ {
			scales = append(scales, edge*(1+k*0x1p-52))
		}
	}
	rng := rand.New(rand.NewPCG(52, 40))
	plain := 0
	for _, r := range []float64{300, 7, 0.1, 0x1p-500, 1e-160, 1e-200, 1e150, 0x1p500, 1e200} {
		for _, base := range []float64{0, -1e9, 3.7e12} {
			var pos []Point
			pair := func(f, theta float64) (a, b Point) {
				a = Point{base + 4*r*float64(len(pos)/2), base}
				return a, Point{a.X + r*f*math.Cos(theta), a.Y + r*f*math.Sin(theta)}
			}
			for _, theta := range []float64{0, 0.3, 1, math.Pi / 2} {
				for _, f := range scales {
					a, b := pair(f, theta)
					pos = append(pos, a, b)
				}
			}
			for tries, found := 0, 0; tries < 2000 && found < 8; tries++ {
				a, b := pair(1+float64(rng.IntN(17)-8)*0x1p-52, rng.Float64()*math.Pi/2)
				dx, dy := a.X-b.X, a.Y-b.Y
				if s, h := dx*dx+dy*dy, math.Hypot(dx, dy); (s < r*r && h > r) || (s > r*r && h <= r) {
					pos = append(pos, a, b)
					found++
					plain++
				}
			}
			if err := diffBuilders(common(pos, r)); err != nil {
				t.Fatalf("range %v, base %v: %v", r, base, err)
			}
		}
	}
	if plain == 0 {
		t.Fatal("no pair on which s ≤ R² and Hypot disagree: the cases cannot catch a prefilter without its band")
	}
	t.Logf("%d pairs decided differently by s ≤ R² and by Hypot", plain)
}

// coverErr checks the grid's covering property directly: every pair
// whose rounded coordinate differences are both within reach — a
// superset of the pairs Dist accepts — must be in each other's block,
// and every block must be in increasing order, which the builders'
// append path relies on.
func coverErr(pos []Point, reach float64) error {
	g := newGrid(pos, reach)
	for i := range pos {
		if !slices.IsSorted(g.block(i)) {
			return fmt.Errorf("block of node %d is not in increasing order", i)
		}
		for j := range pos {
			if math.Abs(pos[i].X-pos[j].X) <= reach && math.Abs(pos[i].Y-pos[j].Y) <= reach &&
				!slices.Contains(g.block(i), int32(j)) {
				return fmt.Errorf("pair {%d,%d} within reach %v is not in one block (cells %d, %d)", i, j, reach, g.cell[i], g.cell[j])
			}
		}
	}
	return nil
}

// TestGridMatchesAllPairsDegenerate covers the inputs that fall back
// to a single cell or sit at the edges of the rounding argument:
// coincident points, zero, infinite, negative and NaN ranges, ±1e308
// coordinates, NaN coordinates built in code, and n ∈ {0, 1, 2}.
func TestGridMatchesAllPairsDegenerate(t *testing.T) {
	stack := func(n int, p Point) []Point {
		out := make([]Point, n)
		for i := range out {
			out[i] = p
		}
		return out
	}
	huge := []Point{{1e308, -1e308}, {-1e308, 1e308}, {1e308, 1e308}, {0, 0}, {1, 0}, {-1e308, -1e308}}
	near308 := []Point{{1e308, 1e308}, {1e308 - 1e292, 1e308}, {1e308, 1e308 - 3e292}, {1e308 - 2e292, 1e308 - 2e292}}
	nanPos := []Point{{0, 0}, {math.NaN(), 1}, {1, 0}, {2, math.NaN()}, {0.5, 0.5}}
	rng := rand.New(rand.NewPCG(3, 3))
	het := PlaceUniformRanges(40, 800, 0, 400, rng)
	het.Range[7], het.Range[9] = 0, math.NaN()
	cases := []struct {
		name string
		d    *Deployment
	}{
		{"empty", common(nil, 300)},
		{"one", common([]Point{{5, 5}}, 300)},
		{"two in range", common([]Point{{0, 0}, {300, 0}}, 300)},
		{"two out of range", common([]Point{{0, 0}, {300, 1e-9}}, 300)},
		{"coincident", common(stack(12, Point{-4, 9}), 300)},
		{"coincident zero range", common(append(stack(6, Point{1, 1}), stack(5, Point{2, 1})...), 0)},
		{"zero range", common(PlaceUniform(80, 1000, 0, rng).Pos, 0)},
		{"all at origin, zero range", common(stack(4, Point{}), 0)},
		{"infinite range", common(PlaceUniform(30, 1000, 0, rng).Pos, math.Inf(1))},
		{"negative range", common(PlaceUniform(30, 1000, 0, rng).Pos, -5)},
		{"NaN range", common(PlaceUniform(3, 1000, 0, rng).Pos[:1], math.NaN())},
		{"±1e308", common(huge, 300)},
		{"±1e308 infinite range", common(huge, math.Inf(1))},
		{"near 1e308", common(near308, 3e292)},
		{"NaN coordinates", common(nanPos, 2)},
		{"tiny coordinates", common([]Point{{0, 0}, {5e-324, 0}, {1e-320, 1e-320}, {2e-320, 0}}, 1e-320)},
		{"heterogeneous with zero and NaN", het},
	}
	for _, c := range cases {
		if err := diffBuilders(c.d); err != nil {
			t.Errorf("%s: %v", c.name, err)
		}
	}
}

// BenchmarkDeploymentGraphsUDG300 builds the UDG and the κ=2 link graph
// of one n=300 paper deployment (2000 m square, 300 m range), the graph
// construction behind every Figure-3 instance.
func BenchmarkDeploymentGraphsUDG300(b *testing.B) {
	d := PlaceUniform(300, 2000, 300, rand.New(rand.NewPCG(2004, 300)))
	m := PathLoss{Kappa: 2, Unit: 100}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.UDG()
		d.LinkGraph(m)
	}
}
