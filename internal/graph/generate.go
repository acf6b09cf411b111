package graph

import (
	"fmt"
	"math/rand/v2"
)

// Ring returns the cycle graph C_n (n ≥ 3), the smallest biconnected
// topology; useful as a scaffold for random biconnected instances.
func Ring(n int) *NodeGraph {
	if n < 3 {
		panic(fmt.Sprintf("graph: ring needs n >= 3, got %d", n))
	}
	g := NewNodeGraph(n)
	for i := 0; i < n; i++ {
		g.AddEdge(i, (i+1)%n)
	}
	return g
}

// Grid returns the rows×cols grid graph (node r*cols+c), biconnected
// for rows, cols ≥ 2.
func Grid(rows, cols int) *NodeGraph {
	g := NewNodeGraph(rows * cols)
	id := func(r, c int) int { return r*cols + c }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				g.AddEdge(id(r, c), id(r, c+1))
			}
			if r+1 < rows {
				g.AddEdge(id(r, c), id(r+1, c))
			}
		}
	}
	return g
}

// ErdosRenyi returns G(n, p): every unordered pair is an edge
// independently with probability p. Connectivity is not guaranteed.
func ErdosRenyi(n int, p float64, rng *rand.Rand) *NodeGraph {
	g := NewNodeGraph(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < p {
				g.AddEdge(i, j)
			}
		}
	}
	return g
}

// RandomBiconnected returns a biconnected graph on n ≥ 3 nodes: a
// Hamiltonian ring (guaranteeing biconnectivity) plus each chord
// independently with probability p.
func RandomBiconnected(n int, p float64, rng *rand.Rand) *NodeGraph {
	g := Ring(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if g.HasEdge(i, j) {
				continue
			}
			if rng.Float64() < p {
				g.AddEdge(i, j)
			}
		}
	}
	return g
}

// RandomSparse returns a connected graph with roughly deg·n/2 edges
// in O(n·deg) expected time: a Hamiltonian ring (guaranteeing
// connectivity and biconnectivity) plus (deg−2)·n/2 uniformly random
// chords, duplicates and self-loops skipped. ErdosRenyi and
// RandomBiconnected enumerate all Θ(n²) node pairs, which is
// prohibitive at the 10^5–10^6 node scale the SSSP scaling
// benchmarks run; this generator only ever touches the edges it
// creates. Requires deg ≥ 2 (the ring) and n ≥ 3.
//
//lint:allow testonly sparse-graph generator for the graph tests and the root package's SSSP benchmarks
func RandomSparse(n int, deg float64, rng *rand.Rand) *NodeGraph {
	if deg < 2 {
		panic(fmt.Sprintf("graph: RandomSparse needs deg >= 2, got %g", deg))
	}
	g := Ring(n)
	extra := int(float64(n) * (deg - 2) / 2)
	for e := 0; e < extra; e++ {
		u, v := rng.IntN(n), rng.IntN(n)
		if u == v || g.HasEdge(u, v) {
			continue // skipped draws only lower the density slightly
		}
		g.AddEdge(u, v)
	}
	return g
}

// RandomizeCosts assigns every node an independent uniform cost in
// [lo, hi). The paper's simulations draw "the cost of each node ...
// independently and uniformly from a range" (§III.G).
func (g *NodeGraph) RandomizeCosts(lo, hi float64, rng *rand.Rand) {
	if hi < lo {
		panic("graph: RandomizeCosts hi < lo")
	}
	for v := range g.cost {
		g.SetCost(v, lo+(hi-lo)*rng.Float64())
	}
}

// RandomLinkGraph returns a directed graph where each ordered pair
// carries an arc with probability p and uniform weight in [lo, hi).
//
//lint:allow testonly random link-model fixture for the core, mechanism and sp tests
func RandomLinkGraph(n int, p, lo, hi float64, rng *rand.Rand) *LinkGraph {
	g := NewLinkGraph(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			if rng.Float64() < p {
				g.AddArc(i, j, lo+(hi-lo)*rng.Float64())
			}
		}
	}
	return g
}

// Symmetrized returns the undirected node-weighted projection of a
// link graph: an edge {u,v} exists when both arcs do, and each node's
// scalar cost is supplied by costs. Useful for comparing the two
// models on the same topology.
func (g *LinkGraph) Symmetrized(costs []float64) *NodeGraph {
	ng := NewNodeGraph(g.N())
	ng.SetCosts(costs)
	for u, arcs := range g.out {
		for _, a := range arcs {
			if a.To > u && a.W < Inf && g.HasArc(a.To, u) && g.Weight(a.To, u) < Inf {
				ng.AddEdge(u, a.To)
			}
		}
	}
	return ng
}
