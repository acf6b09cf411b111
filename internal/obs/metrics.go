package obs

import (
	"math"
	"sort"
	"sync/atomic"
)

// Counter is a monotonically increasing event count. All methods are
// safe for concurrent use; recording methods are no-ops (one atomic
// flag load, zero allocations) while the layer is disabled.
type Counter struct {
	name string
	v    atomic.Uint64
}

// Inc adds one.
//
//lint:noalloc instrumentation on the serving hot path must be free when the layer is off
func (c *Counter) Inc() { c.Add(1) }

// Add adds delta.
//
//lint:noalloc instrumentation on the serving hot path must be free when the layer is off
func (c *Counter) Add(delta uint64) {
	if !enabled.Load() {
		return
	}
	c.v.Add(delta)
}

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is an instantaneous integer level — workers in flight, rounds
// a stage took, a 0/1 condition flag.
type Gauge struct {
	name string
	v    atomic.Int64
}

// Set stores v.
//
//lint:noalloc instrumentation on the serving hot path must be free when the layer is off
func (g *Gauge) Set(v int64) {
	if !enabled.Load() {
		return
	}
	g.v.Store(v)
}

// SetMax raises the gauge to v if v exceeds the current level — a
// monotone high-water mark under concurrent updates.
//
//lint:noalloc instrumentation on the serving hot path must be free when the layer is off
func (g *Gauge) SetMax(v int64) {
	if !enabled.Load() {
		return
	}
	for {
		cur := g.v.Load()
		if v <= cur || g.v.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Value returns the current level.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram is a fixed-bucket distribution. An observation v lands in
// the first bucket whose upper bound is >= v, or in the implicit +Inf
// overflow bucket; bounds are fixed at registration so Observe does
// pure atomic arithmetic on pre-sized arrays — no allocation, no
// lock. Count and Sum are maintained alongside the buckets (Sum via a
// compare-and-swap loop over the float's bit pattern).
type Histogram struct {
	name   string
	bounds []float64       // strictly increasing upper bounds
	counts []atomic.Uint64 // len(bounds)+1; last is the +Inf bucket
	sum    atomic.Uint64   // math.Float64bits of the running sum
}

func newHistogram(name string, bounds []float64) *Histogram {
	if len(bounds) == 0 {
		panic("obs: histogram " + name + " needs at least one bucket bound")
	}
	for i, b := range bounds {
		if math.IsInf(b, 0) || math.IsNaN(b) {
			panic("obs: histogram " + name + " has a non-finite bucket bound")
		}
		if i > 0 && b <= bounds[i-1] {
			panic("obs: histogram " + name + " bounds must be strictly increasing")
		}
	}
	return &Histogram{
		name:   name,
		bounds: append([]float64(nil), bounds...),
		counts: make([]atomic.Uint64, len(bounds)+1),
	}
}

// Observe records one value.
//
//lint:noalloc instrumentation on the serving hot path must be free when the layer is off
func (h *Histogram) Observe(v float64) {
	if !enabled.Load() {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i].Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 {
	return math.Float64frombits(h.sum.Load())
}

func (h *Histogram) reset() {
	for i := range h.counts {
		h.counts[i].Store(0)
	}
	h.sum.Store(0)
}

// ExpBuckets returns n exponentially spaced upper bounds: start,
// start*factor, start*factor², ….
func ExpBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n < 1 {
		panic("obs: ExpBuckets wants start > 0, factor > 1, n >= 1")
	}
	b := make([]float64, n)
	v := start
	for i := range b {
		b[i] = v
		v *= factor
	}
	return b
}

// LatencyBuckets spans ~1µs to ~1s in powers of four — the range the
// per-quote and per-round latency histograms need (nanosecond
// observations).
func LatencyBuckets() []float64 { return ExpBuckets(1024, 4, 11) }

// SizeBuckets spans 1 to 65536 in powers of two, for count-shaped
// observations (nodes touched, rollback lengths, message batches).
func SizeBuckets() []float64 { return ExpBuckets(1, 2, 17) }
