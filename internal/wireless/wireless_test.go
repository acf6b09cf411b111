package wireless

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand/v2"
	"strings"
	"testing"
	"testing/quick"
)

func TestPointDist(t *testing.T) {
	a := Point{0, 0}
	b := Point{3, 4}
	if d := a.Dist(b); d != 5 {
		t.Errorf("Dist = %v, want 5", d)
	}
	if d := a.Dist(a); d != 0 {
		t.Errorf("self Dist = %v, want 0", d)
	}
}

func TestPlaceUniformBounds(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 0))
	d := PlaceUniform(200, 2000, 300, rng)
	if d.N() != 200 {
		t.Fatalf("N = %d, want 200", d.N())
	}
	for i, p := range d.Pos {
		if p.X < 0 || p.X >= 2000 || p.Y < 0 || p.Y >= 2000 {
			t.Fatalf("node %d at %v outside the region", i, p)
		}
		if d.Range[i] != 300 {
			t.Fatalf("node %d range %v, want 300", i, d.Range[i])
		}
	}
}

func TestPlaceUniformRangesBounds(t *testing.T) {
	rng := rand.New(rand.NewPCG(2, 0))
	d := PlaceUniformRanges(100, 2000, 100, 500, rng)
	for i := range d.Range {
		if d.Range[i] < 100 || d.Range[i] >= 500 {
			t.Fatalf("node %d range %v outside [100,500)", i, d.Range[i])
		}
	}
}

func TestCanReachAsymmetry(t *testing.T) {
	d := &Deployment{
		Pos:   []Point{{0, 0}, {200, 0}},
		Range: []float64{300, 100},
	}
	if !d.CanReach(0, 1) {
		t.Error("node 0 (range 300) should reach node 1 at 200m")
	}
	if d.CanReach(1, 0) {
		t.Error("node 1 (range 100) should not reach node 0 at 200m")
	}
	if d.CanReach(0, 0) {
		t.Error("a node never 'reaches' itself")
	}
}

func TestPathLossCost(t *testing.T) {
	m := PathLoss{Kappa: 2}
	if c := m.LinkCost(0, 10); c != 100 {
		t.Errorf("kappa=2 cost = %v, want 100", c)
	}
	m25 := PathLoss{Kappa: 2.5}
	want := math.Pow(10, 2.5)
	if c := m25.LinkCost(0, 10); math.Abs(c-want) > 1e-9 {
		t.Errorf("kappa=2.5 cost = %v, want %v", c, want)
	}
	scaled := PathLoss{Kappa: 2, Unit: 10}
	if c := scaled.LinkCost(0, 10); c != 1 {
		t.Errorf("scaled cost = %v, want 1", c)
	}
}

// TestPowKappaTwoMatchesMathPow holds the κ=2 fast path to math.Pow
// bit for bit at every binary exponent, from the subnormals to the
// overflow edge, on both signs, and around the square roots of the
// smallest normal and of the largest finite value.
func TestPowKappaTwoMatchesMathPow(t *testing.T) {
	rng := rand.New(rand.NewPCG(2, 2))
	xs := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(), 1,
		math.SmallestNonzeroFloat64, math.MaxFloat64, math.Sqrt(math.MaxFloat64), 0x1p-511, 0x1p-537}
	for _, edge := range []float64{0x1p-511, math.Sqrt(0x1p-1022), math.Sqrt(math.MaxFloat64), 0x1p512} {
		x := edge
		for k := 0; k < 64; k++ {
			x = math.Nextafter(x, 0)
		}
		for k := 0; k < 128; k++ {
			xs = append(xs, x)
			x = math.Nextafter(x, math.Inf(1))
		}
	}
	for e := -1074; e <= 1023; e++ {
		for _, m := range []float64{1, 1.5, math.Nextafter(2, 0), 1 + rng.Float64(), 1 + rng.Float64()} {
			xs = append(xs, math.Ldexp(m, e))
		}
	}
	// Where x² is subnormal, math.Pow rounds twice (to 53 bits, then
	// to the subnormal's precision) and x*x once; they differ on
	// roughly one draw in a hundred, so the fast path must stay off.
	for e := -538; e < -511; e++ {
		for k := 0; k < 400; k++ {
			xs = append(xs, math.Ldexp(1+rng.Float64(), e))
		}
	}
	for _, x := range xs {
		for _, v := range []float64{x, -x} {
			if got, want := pow(v, 2), math.Pow(v, 2); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("pow(%v, 2) = %v (%#x), math.Pow %v (%#x)", v, got, math.Float64bits(got), want, math.Float64bits(want))
			}
			if got, want := pow(v, 2.5), math.Pow(v, 2.5); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("pow(%v, 2.5) = %v, math.Pow %v", v, got, want)
			}
		}
	}
}

func TestAffinePowerCost(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 0))
	m := NewAffinePower(5, 2, 300, 500, 10, 50, rng)
	for i := 0; i < 5; i++ {
		if m.C1[i] < 300 || m.C1[i] >= 500 || m.C2[i] < 10 || m.C2[i] >= 50 {
			t.Fatalf("coefficients out of range: c1=%v c2=%v", m.C1[i], m.C2[i])
		}
		// Zero-length link still costs the overhead c1.
		if c := m.LinkCost(i, 0); c != m.C1[i] {
			t.Errorf("zero-length cost = %v, want c1 = %v", c, m.C1[i])
		}
		// Default unit is 100 m: at 100 m the cost is c1 + c2.
		if c := m.LinkCost(i, 100); math.Abs(c-(m.C1[i]+m.C2[i])) > 1e-9 {
			t.Errorf("100m cost = %v, want %v", c, m.C1[i]+m.C2[i])
		}
	}
}

func TestLinkGraphRespectsRangeAndOwner(t *testing.T) {
	d := &Deployment{
		Pos:   []Point{{0, 0}, {100, 0}, {1000, 0}},
		Range: []float64{150, 150, 1500},
	}
	g := d.LinkGraph(PathLoss{Kappa: 2})
	if !g.HasArc(0, 1) || !g.HasArc(1, 0) {
		t.Error("close pair should be linked both ways")
	}
	if g.HasArc(0, 2) {
		t.Error("node 0 cannot reach node 2 at 1000m")
	}
	if !g.HasArc(2, 0) {
		t.Error("node 2 (range 1500) should reach node 0")
	}
	if w := g.Weight(0, 1); w != 100*100 {
		t.Errorf("arc 0->1 weight = %v, want 10000", w)
	}
}

func TestUDGSymmetricAndPanics(t *testing.T) {
	rng := rand.New(rand.NewPCG(4, 0))
	dep := PlaceUniform(60, 1000, 400, rng)
	g := dep.UDG()
	for i := 0; i < g.N(); i++ {
		for _, j := range g.Neighbors(i) {
			if dep.Pos[i].Dist(dep.Pos[j]) > 400 {
				t.Fatalf("edge {%d,%d} longer than the range", i, j)
			}
		}
	}
	het := PlaceUniformRanges(5, 1000, 100, 500, rng)
	defer func() {
		if recover() == nil {
			t.Error("UDG on heterogeneous ranges did not panic")
		}
	}()
	het.UDG()
}

// TestQuickUDGMatchesLinkGraphSymmetrization: with a common range,
// the symmetrized link graph has exactly the UDG's edges.
func TestQuickUDGMatchesLinkGraphSymmetrization(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 30))
		dep := PlaceUniform(3+rng.IntN(40), 1500, 350, rng)
		udg := dep.UDG()
		lg := dep.LinkGraph(PathLoss{Kappa: 2})
		sym := lg.Symmetrized(make([]float64, dep.N()))
		if sym.M() != udg.M() {
			t.Logf("seed %d: %d vs %d edges", seed, sym.M(), udg.M())
			return false
		}
		for _, e := range udg.Edges() {
			if !sym.HasEdge(e[0], e[1]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestNodeCostUDG(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 0))
	dep := PlaceUniform(50, 1000, 400, rng)
	g := dep.NodeCostUDG(1, 3, rng)
	for v := 0; v < g.N(); v++ {
		if c := g.Cost(v); c < 1 || c >= 3 {
			t.Fatalf("node cost %v outside [1,3)", c)
		}
	}
}

func TestDeploymentJSONRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewPCG(8, 0))
	d := PlaceUniformRanges(25, 1000, 100, 500, rng)
	data, err := json.Marshal(d)
	if err != nil {
		t.Fatal(err)
	}
	back, err := ReadDeployment(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if back.N() != d.N() {
		t.Fatalf("N changed: %d -> %d", d.N(), back.N())
	}
	for i := 0; i < d.N(); i++ {
		if back.Pos[i] != d.Pos[i] || back.Range[i] != d.Range[i] {
			t.Fatalf("node %d changed in round trip", i)
		}
	}
	// The derived UDG must be identical too.
	if got, want := back.LinkGraph(PathLoss{Kappa: 2}).M(), d.LinkGraph(PathLoss{Kappa: 2}).M(); got != want {
		t.Errorf("derived graph changed: %d vs %d arcs", got, want)
	}
}

func TestDeploymentJSONRejectsBadInput(t *testing.T) {
	cases := map[string]string{
		"huge x":    `{"nodes":[{"x":1e999,"y":0,"range":1}]}`,
		"neg range": `{"nodes":[{"x":0,"y":0,"range":-1}]}`,
		"not json":  `{"nodes":`,
	}
	for name, in := range cases {
		if _, err := ReadDeployment(strings.NewReader(in)); err == nil {
			t.Errorf("%s: accepted %q", name, in)
		}
	}
}
