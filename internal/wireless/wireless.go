// Package wireless is the physical-layer substrate for the paper's
// simulations (§III.G): node placement in a planar region, the
// power-attenuation radio model p(e) = α + β·‖v_i v_j‖^κ, unit disk
// graphs (every node has the same transmission range) and
// heterogeneous-range topologies (each node draws its own range),
// plus the cost laws the two simulation campaigns use.
//
// All randomness flows through explicitly seeded *rand.Rand streams
// so every instance in EXPERIMENTS.md is reproducible bit-for-bit.
package wireless

import (
	"fmt"
	"math"
	"math/rand/v2"

	"truthroute/internal/graph"
)

// Point is a node position in metres.
type Point struct {
	X, Y float64
}

// Dist returns the Euclidean distance between two points.
func (p Point) Dist(q Point) float64 {
	return math.Hypot(p.X-q.X, p.Y-q.Y)
}

// Deployment is a set of placed wireless nodes. Node 0 is the access
// point by the paper's convention.
type Deployment struct {
	Pos []Point
	// Range[i] is node i's transmission range in metres.
	Range []float64
}

// N reports the number of deployed nodes.
func (d *Deployment) N() int { return len(d.Pos) }

// PlaceUniform scatters n nodes independently and uniformly in a
// side×side square with a common transmission range, the paper's
// first campaign (2000 m × 2000 m, range 300 m).
func PlaceUniform(n int, side, commonRange float64, rng *rand.Rand) *Deployment {
	d := &Deployment{Pos: make([]Point, n), Range: make([]float64, n)}
	for i := range d.Pos {
		d.Pos[i] = Point{X: side * rng.Float64(), Y: side * rng.Float64()}
		d.Range[i] = commonRange
	}
	return d
}

// PlaceUniformRanges scatters n nodes uniformly and draws each node's
// transmission range independently from U[rangeLo, rangeHi], the
// paper's second campaign (ranges 100 m to 500 m).
func PlaceUniformRanges(n int, side, rangeLo, rangeHi float64, rng *rand.Rand) *Deployment {
	d := PlaceUniform(n, side, 0, rng)
	for i := range d.Range {
		d.Range[i] = rangeLo + (rangeHi-rangeLo)*rng.Float64()
	}
	return d
}

// CostModel maps a transmitter i and a link length to the power cost
// node i declares for that link.
type CostModel interface {
	// LinkCost returns node i's cost to send one packet across a
	// link of the given length (metres).
	LinkCost(i int, length float64) float64
	// String describes the model for experiment logs.
	String() string
}

// PathLoss is the first campaign's cost law: cost = ‖v_i v_j‖^κ (the
// paper uses κ = 2 and κ = 2.5). Distances are rescaled by Unit
// before exponentiation to keep κ-sweeps comparable; the paper's
// plots use raw metres, i.e. Unit = 1.
type PathLoss struct {
	Kappa float64
	// Unit rescales distances (metres per unit); 0 means 1.
	Unit float64
}

// LinkCost implements CostModel.
func (m PathLoss) LinkCost(_ int, length float64) float64 {
	u := m.Unit
	if u == 0 {
		u = 1
	}
	return pow(length/u, m.Kappa)
}

// pow returns math.Pow(x, kappa) bit for bit, and for κ = 2 takes x*x
// whenever that is a normal number. math.Pow, generic Go code on every
// platform but s390x, splits x into a mantissa x1 ∈ [0.5, 1) and an
// exponent e and returns Ldexp(fl(x1²), 2e). Scaling by a power of two commutes with
// rounding while the result stays normal, so that equals fl(x²). Zero,
// subnormal, infinite and NaN squares take math.Pow.
func pow(x, kappa float64) float64 {
	//lint:allow floatcmp κ is a configured exponent matched verbatim, not an arithmetic result
	if kappa == 2 {
		if r := x * x; r >= 0x1p-1022 && r <= math.MaxFloat64 {
			return r
		}
	}
	return math.Pow(x, kappa)
}

func (m PathLoss) String() string { return fmt.Sprintf("pathloss(kappa=%g)", m.Kappa) }

// AffinePower is the second campaign's cost law: cost = c1 + c2·‖·‖^κ
// with per-node coefficients c1 ∈ U[300,500] and c2 ∈ U[10,50]
// ("reflects the actual power cost in one second of a node to send
// data at 2Mbps rate"). Distances are in units of 100 m so the two
// terms have comparable magnitude, as in the paper's parameters.
type AffinePower struct {
	C1, C2 []float64
	Kappa  float64
	// Unit rescales distances before exponentiation (metres per
	// unit); 0 means 100 m, matching the paper's coefficient ranges.
	Unit float64
}

// NewAffinePower draws per-node coefficients for n nodes: c1 from
// U[c1Lo, c1Hi] and c2 from U[c2Lo, c2Hi].
func NewAffinePower(n int, kappa, c1Lo, c1Hi, c2Lo, c2Hi float64, rng *rand.Rand) *AffinePower {
	m := &AffinePower{C1: make([]float64, n), C2: make([]float64, n), Kappa: kappa}
	for i := 0; i < n; i++ {
		m.C1[i] = c1Lo + (c1Hi-c1Lo)*rng.Float64()
		m.C2[i] = c2Lo + (c2Hi-c2Lo)*rng.Float64()
	}
	return m
}

// LinkCost implements CostModel.
func (m *AffinePower) LinkCost(i int, length float64) float64 {
	u := m.Unit
	if u == 0 {
		u = 100
	}
	return m.C1[i] + m.C2[i]*pow(length/u, m.Kappa)
}

func (m *AffinePower) String() string { return fmt.Sprintf("affine(kappa=%g)", m.Kappa) }

// LinkGraph builds the directed link-weighted communication graph of
// the deployment under a cost model: the arc i→j exists iff j is
// within i's transmission range, weighted by the model's cost for
// node i on that link (§III.F: each node's type is its out-cost
// vector). Candidates come from a grid of cells at least the largest
// range wide (grid.go). One pass meets each candidate pair once,
// computes its length once for both arcs, and counts the rows; a
// second pass fills exact-size rows from the last pair back, calling
// LinkCost once per arc.
func (d *Deployment) LinkGraph(m CostModel) *graph.LinkGraph {
	reach := math.Inf(-1)
	for _, r := range d.Range {
		reach = max(reach, r)
	}
	cells, far := newGrid(d.Pos, reach), newDisk(reach)
	n := d.N()
	type pair struct {
		i, j int32
		l    float64
	}
	var pairs []pair
	row := make([]int, n+1)
	for i := range n {
		for _, j := range cells.above(i) {
			p, q := d.Pos[i], d.Pos[j]
			if far.beyond(p, q) {
				continue
			}
			l := p.Dist(q)
			out, in := l <= d.Range[i], l <= d.Range[j]
			if out {
				row[i]++
			}
			if in {
				row[j]++
			}
			if out || in {
				pairs = append(pairs, pair{int32(i), j, l})
			}
		}
	}
	for v := 1; v <= n; v++ {
		row[v] += row[v-1]
	}
	arcs := make([]graph.Arc, row[n])
	for k := len(pairs) - 1; k >= 0; k-- {
		i, j, l := int(pairs[k].i), int(pairs[k].j), pairs[k].l
		if l <= d.Range[j] {
			row[j]--
			arcs[row[j]] = graph.Arc{To: i, W: m.LinkCost(j, l)}
		}
		if l <= d.Range[i] {
			row[i]--
			arcs[row[i]] = graph.Arc{To: j, W: m.LinkCost(i, l)}
		}
	}
	return graph.NewLinkGraphFromRows(row, arcs)
}

// UDG builds the undirected unit-disk communication graph: {i,j} is
// an edge iff the nodes are within each other's (common) range. It
// panics if ranges are heterogeneous — use LinkGraph for those.
func (d *Deployment) UDG() *graph.NodeGraph {
	g, _ := d.udg()
	return g
}

// udg builds the UDG and returns it with the grid it searched, which
// the proximity graphs reuse for their witness search. The pair pass
// is LinkGraph's with one range for both ends: it counts the rows, and
// the fill from the last pair back leaves every row increasing.
func (d *Deployment) udg() (*graph.NodeGraph, *grid) {
	var reach float64
	if d.N() > 0 {
		reach = d.Range[0]
	}
	for i := 1; i < d.N(); i++ {
		//lint:allow floatcmp ranges are configured inputs compared verbatim, not arithmetic results
		if d.Range[i] != reach {
			panic("wireless: UDG requires a common transmission range")
		}
	}
	cells, near := newGrid(d.Pos, reach), newDisk(reach)
	n := d.N()
	var pairs [][2]int32
	row := make([]int, n+1)
	for i := range n {
		for _, j := range cells.above(i) {
			if near.within(d.Pos[i], d.Pos[j]) {
				pairs = append(pairs, [2]int32{int32(i), j})
				row[i]++
				row[j]++
			}
		}
	}
	for v := 1; v <= n; v++ {
		row[v] += row[v-1]
	}
	nbr := make([]int, row[n])
	for k := len(pairs) - 1; k >= 0; k-- {
		i, j := int(pairs[k][0]), int(pairs[k][1])
		row[i]--
		nbr[row[i]] = j
		row[j]--
		nbr[row[j]] = i
	}
	return graph.NewNodeGraphFromRows(row, nbr), cells
}

// NodeCostUDG builds the undirected node-weighted model of §II.B on
// the UDG topology, assigning every node an independent uniform
// relay cost in [lo, hi) — the "cost of each node is chosen
// independently and uniformly from a range" setting of §III.G's
// opening paragraph.
func (d *Deployment) NodeCostUDG(lo, hi float64, rng *rand.Rand) *graph.NodeGraph {
	g := d.UDG()
	g.RandomizeCosts(lo, hi, rng)
	return g
}
