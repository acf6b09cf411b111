package graph

import (
	"sync/atomic"
)

// CSR is a compressed-sparse-row view of an undirected NodeGraph's
// adjacency: node v's neighbours are Targets[Offsets[v]:Offsets[v+1]],
// in the same increasing order the [][]int adjacency stores them, so
// traversals over either layout settle ties identically. The flat
// int32 arrays keep the whole structure in two cache-friendly
// allocations — the layout a steady-state quote server walks on every
// Dijkstra, built once per topology and shared by every cost view.
//
// A CSR is immutable once built; mutating the owning graph's topology
// invalidates the cached view and the next CSR() call rebuilds it.
type CSR struct {
	Offsets []int32 // len N+1, Offsets[0] = 0
	Targets []int32 // len 2M, neighbour ids in increasing order per row
}

// Neighbors returns v's neighbour row. The slice aliases the CSR and
// must not be modified.
func (c *CSR) Neighbors(v int) []int32 {
	return c.Targets[c.Offsets[v]:c.Offsets[v+1]]
}

// csrBox holds the lazily built CSR behind an atomic pointer so
// concurrent readers (e.g. a pooled Solver fanning one topology across
// workers) may race to build it without locking: every build of the
// same topology is identical, so the losing CompareAndSwap just
// discards its copy. Cost views (WithCost/WithCosts) share the box —
// they share the adjacency — while Clone gets a fresh one.
type csrBox struct {
	p atomic.Pointer[CSR]
}

// invalidate drops the cached view; called on every topology mutation.
// It loads first, so a graph that has no view yet, as while a builder
// adds its edges, pays no atomic store per edge.
func (b *csrBox) invalidate() {
	if b != nil && b.p.Load() != nil {
		b.p.Store(nil)
	}
}

// CSR returns the flat adjacency view of the graph, building and
// caching it on first use. The result is shared: do not modify it.
//
//lint:writer racing builders construct identical views from the same adjacency; the CAS loser discards its copy unpublished
func (g *NodeGraph) CSR() *CSR {
	if c := g.csr.p.Load(); c != nil {
		return c
	}
	c := buildCSR(g.adj)
	if g.csr.p.CompareAndSwap(nil, c) {
		return c
	}
	return g.csr.p.Load()
}

func buildCSR(adj [][]int) *CSR {
	n := len(adj)
	c := &CSR{Offsets: make([]int32, n+1)}
	total := 0
	for v, row := range adj {
		total += len(row)
		c.Offsets[v+1] = int32(total)
	}
	c.Targets = make([]int32, total)
	i := 0
	for _, row := range adj {
		for _, w := range row {
			c.Targets[i] = int32(w)
			i++
		}
	}
	return c
}
