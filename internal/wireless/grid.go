package wireless

import (
	"math"
	"slices"
)

// grid buckets a deployment's nodes into square cells whose side is at
// least the largest transmission range, so every pair Dist accepts —
// and every RNG or Gabriel witness of an accepted pair — lies in the
// 3×3 block of cells around either endpoint. The graph builders test
// that block instead of all n nodes; the predicate they apply is
// unchanged, so the graphs are the all-pairs graphs exactly. DESIGN.md
// §16 gives the rounding argument for the cell side.
type grid struct {
	side  float64 // cell width; 0 for the one fallback cell
	cell  []int32 // cell[i] is node i's cell, row-major
	start []int32 // cell c's block is ids[start[c]:start[c+1]]
	ids   []int32 // each cell's block, ascending
}

// newGrid buckets pos for the largest range reach. Inputs the rounding
// argument does not cover get one cell, which makes the block search
// the all-pairs search: no nodes, a range that is not positive and
// finite, and a NaN coordinate or infinite extent (min and max carry
// either into side as NaN or +Inf).
func newGrid(pos []Point, reach float64) *grid {
	n := len(pos)
	g := &grid{cell: make([]int32, n)}
	cols, rows := 1, 1
	minX, minY := math.Inf(1), math.Inf(1)
	maxX, maxY := math.Inf(-1), math.Inf(-1)
	mag := 0.0
	for _, p := range pos {
		minX, maxX = min(minX, p.X), max(maxX, p.X)
		minY, maxY = min(minY, p.Y), max(maxY, p.Y)
		mag = max(mag, math.Abs(p.X), math.Abs(p.Y))
	}
	ex, ey := maxX-minX, maxY-minY
	// The side is the range plus a slack 2^-40 of the range and the
	// coordinate magnitude, far above the few ulps of rounding in the
	// cell arithmetic; at most ceil(√n) cells per axis keep the grid
	// O(n) when the range is tiny against the extent.
	k := math.Ceil(math.Sqrt(float64(n)))
	side := max(reach+(reach+mag)*0x1p-40, ex/k, ey/k)
	if n > 0 && reach > 0 && side < math.Inf(1) {
		g.side = side
		cols, rows = int(ex/side)+1, int(ey/side)+1
		for i, p := range pos {
			g.cell[i] = int32(int((p.Y-minY)/side)*cols + int((p.X-minX)/side))
		}
	}
	// Node i lies in the block of every cell within one step of its
	// own. A counting sort over those memberships, filled by a pass
	// from the highest id down, leaves every block in increasing order
	// and start[b] at block b's beginning.
	span := func(c int32) (x0, x1, y0, y1 int) {
		cx, cy := int(c)%cols, int(c)/cols
		return max(cx-1, 0), min(cx+1, cols-1), max(cy-1, 0), min(cy+1, rows-1)
	}
	g.start = make([]int32, cols*rows+1)
	for _, c := range g.cell {
		x0, x1, y0, y1 := span(c)
		for y := y0; y <= y1; y++ {
			for x := x0; x <= x1; x++ {
				g.start[y*cols+x]++
			}
		}
	}
	for b := 1; b < len(g.start); b++ {
		g.start[b] += g.start[b-1]
	}
	g.ids = make([]int32, g.start[len(g.start)-1])
	for i := n - 1; i >= 0; i-- {
		x0, x1, y0, y1 := span(g.cell[i])
		for y := y0; y <= y1; y++ {
			for x := x0; x <= x1; x++ {
				b := y*cols + x
				g.start[b]--
				g.ids[g.start[b]] = int32(i)
			}
		}
	}
	return g
}

// block returns, in increasing order, the nodes of the 3×3 block of
// cells around node i's cell, i included. The slice is shared.
func (g *grid) block(i int) []int32 {
	c := g.cell[i]
	return g.ids[g.start[c]:g.start[c+1]]
}

// above returns the nodes of i's block with ids above i, in increasing
// order. Block membership is symmetric, so a walk over every i's
// above meets each unordered candidate pair once, from its lower end.
func (g *grid) above(i int) []int32 {
	b := g.block(i)
	k, _ := slices.BinarySearch(b, int32(i))
	return b[k+1:]
}

// disk decides p.Dist(q) <= r bit for bit as that predicate does, but
// from the squared distance s = dx² + dy² wherever s is clear of r² by
// a relative margin of 2^-40, the grid's slack; only pairs inside that
// band pay for Hypot. Both s and Hypot are within a few ulps of the
// exact values, far inside the margin (DESIGN.md §16). A range outside
// [2^-500, 2^500], NaN and ±Inf included, sends every pair to Hypot,
// and so does a NaN s; an s that overflows lies beyond every such r.
type disk struct {
	r, lo, hi float64
}

func newDisk(r float64) disk {
	c := disk{r: r, lo: math.Inf(-1), hi: math.Inf(1)}
	if r >= 0x1p-500 && r <= 0x1p500 {
		r2 := r * r
		c.lo, c.hi = r2*(1-0x1p-40), r2*(1+0x1p-40)
	}
	return c
}

// within reports p.Dist(q) <= r.
func (c disk) within(p, q Point) bool {
	dx, dy := p.X-q.X, p.Y-q.Y
	switch s := dx*dx + dy*dy; {
	case s < c.lo:
		return true
	case s > c.hi:
		return false
	}
	return math.Hypot(dx, dy) <= c.r
}

// beyond reports whether the squared distance alone shows
// p.Dist(q) > r. It is false in the band and on NaN.
func (c disk) beyond(p, q Point) bool {
	dx, dy := p.X-q.X, p.Y-q.Y
	return dx*dx+dy*dy > c.hi
}
