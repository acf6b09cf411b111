package graph

import (
	"math"
	"math/bits"
	"sync/atomic"
)

// This file decides whether a cost vector is exact: whether every
// declared cost is a multiple of one power-of-two quantum 1/Scale no
// finer than 2^-20, with n·max(cost)·Scale below 2^52. Then every path
// sum is an integer multiple of the quantum below 2^53, so float64
// addition of costs is exact in any order and every engine computes
// the same bits. The node-model engines rely on it to route along one
// destination tree and to skip the per-source Dijkstra (see
// core.Solver.QuoteIntoToward and core.AllUnicastQuotes); the daemon
// relies on it to serve a whole epoch from one all-sources pass.
//
// The test is a property of the declared cost vector, cached beside
// the CSR adjacency view and invalidated by the same mutation
// discipline: any SetCost drops it, and the next CostQuantum call
// renegotiates. Cost views (WithCost/WithCosts) carry their own cost
// vectors and therefore their own quantum caches, while sharing the
// CSR topology box.

// CostQuantum is the grid an exact cost vector sits on.
type CostQuantum struct {
	// Scale is the exact power-of-two multiplier mapping every cost
	// onto a non-negative integer: Cost(v)*Scale is integral for all v.
	Scale float64
}

// Exactness limits. A vector needing a finer grid, or whose path sums
// could leave the exactly representable float64 integers, is not
// exact.
const (
	quantMaxScalePow = 20      // finest quantum: 2^-20
	quantExactSum    = 1 << 52 // n·maxScaled must stay exactly summable
)

// quantCache is the immutable negotiation result behind the atomic
// box; ok is false when the cost vector is not exact.
type quantCache struct {
	q  CostQuantum
	ok bool
}

// quantBox holds the lazily negotiated quantum behind an atomic
// pointer, mirroring csrBox: racing negotiators of the same cost
// vector compute identical results, so the CompareAndSwap loser just
// discards its copy.
type quantBox struct {
	p atomic.Pointer[quantCache]
}

// invalidate drops the cached negotiation; called on cost mutation.
// Like csrBox.invalidate it loads first, so setting every cost of a
// new graph pays no atomic store per node.
func (b *quantBox) invalidate() {
	if b != nil && b.p.Load() != nil {
		b.p.Store(nil)
	}
}

// CostQuantum returns the grid of the current cost vector, negotiating
// and caching it on first use. ok is false when the costs are not
// exact (non-finite, finer than 2^-20, or sums beyond 2^52 quanta);
// callers must then make no assumption about summation order.
//
//lint:writer racing negotiators construct identical caches from the same cost vector; the CAS loser discards its copy unpublished
func (g *NodeGraph) CostQuantum() (CostQuantum, bool) {
	if c := g.quant.p.Load(); c != nil {
		return c.q, c.ok
	}
	c := negotiateQuantum(g.cost)
	if g.quant.p.CompareAndSwap(nil, c) {
		return c.q, c.ok
	}
	c = g.quant.p.Load()
	return c.q, c.ok
}

// negotiateQuantum scans a cost vector for the coarsest power-of-two
// scale that maps every entry onto an integer, subject to the
// exact-summation limit.
func negotiateQuantum(costs []float64) *quantCache {
	pow := 0
	maxCost := 0.0
	for _, c := range costs {
		if c == 0 {
			continue // zero is integral at every scale
		}
		k, ok := quantPow(c)
		if !ok {
			return &quantCache{}
		}
		if k > pow {
			pow = k
		}
		if c > maxCost {
			maxCost = c
		}
	}
	scale := float64(int64(1) << pow) // exact
	if float64(len(costs))*(maxCost*scale) > quantExactSum {
		return &quantCache{}
	}
	return &quantCache{q: CostQuantum{Scale: scale}, ok: true}
}

// quantPow returns the smallest k ≤ quantMaxScalePow such that
// c·2^k is an exact integer, for finite c > 0.
func quantPow(c float64) (int, bool) {
	if math.IsInf(c, 0) || math.IsNaN(c) {
		return 0, false
	}
	frac, exp := math.Frexp(c) // c = frac·2^exp, frac ∈ [0.5, 1)
	mant := int64(frac * (1 << 53))
	tz := bits.TrailingZeros64(uint64(mant))
	k := 53 - tz - exp // c·2^k integral exactly for this and larger k
	if k <= 0 {
		return 0, true
	}
	if k > quantMaxScalePow {
		return 0, false
	}
	return k, true
}
