// Package stats provides the small statistical toolkit the
// overpayment study (§III.G) needs: streaming accumulators for
// mean/max/min/stddev, NaN/Inf-aware ratio aggregation, and hop
// bucketing for the Figure 3(d) series.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Acc is a streaming accumulator (Welford's algorithm for variance).
// The zero value is ready to use.
type Acc struct {
	n, inf     int
	mean, m2   float64
	min, max   float64
	nanSkipped int
}

// Add folds in one observation. NaN observations are skipped (the
// paper's per-node ratios are undefined for sources adjacent to the
// access point); ±Inf observations are folded into Min/Max but
// excluded from the mean and variance (they mark monopolies).
func (a *Acc) Add(x float64) {
	if math.IsNaN(x) {
		a.nanSkipped++
		return
	}
	if a.n+a.inf == 0 {
		a.min, a.max = x, x
	} else {
		a.min = math.Min(a.min, x)
		a.max = math.Max(a.max, x)
	}
	if math.IsInf(x, 0) {
		a.inf++
		return
	}
	a.n++
	delta := x - a.mean
	a.mean += delta / float64(a.n)
	a.m2 += delta * (x - a.mean)
}

// N returns the number of non-NaN observations (including infinite
// ones).
func (a *Acc) N() int { return a.n + a.inf }

// Mean returns the running mean of the finite observations (NaN when
// there are none).
func (a *Acc) Mean() float64 {
	if a.n == 0 {
		return math.NaN()
	}
	return a.mean
}

// Max returns the largest observation (NaN when empty).
func (a *Acc) Max() float64 {
	if a.n+a.inf == 0 {
		return math.NaN()
	}
	return a.max
}

// StdDev returns the sample standard deviation (NaN for n < 2).
func (a *Acc) StdDev() float64 {
	if a.n < 2 {
		return math.NaN()
	}
	return math.Sqrt(a.m2 / float64(a.n-1))
}

// CI95 returns the half-width of the normal-approximation 95%
// confidence interval of the mean, 1.96·s/√n (NaN for n < 2).
func (a *Acc) CI95() float64 {
	if a.n < 2 {
		return math.NaN()
	}
	return 1.96 * a.StdDev() / math.Sqrt(float64(a.n))
}

func (a *Acc) String() string {
	return fmt.Sprintf("n=%d mean=%.4g max=%.4g", a.n, a.Mean(), a.Max())
}

// Buckets accumulates observations keyed by a small integer (hop
// count in Figure 3(d)).
type Buckets struct {
	acc map[int]*Acc
}

// NewBuckets returns an empty bucket set.
func NewBuckets() *Buckets { return &Buckets{acc: map[int]*Acc{}} }

// Add folds observation x into bucket key.
func (b *Buckets) Add(key int, x float64) {
	a, ok := b.acc[key]
	if !ok {
		a = &Acc{}
		b.acc[key] = a
	}
	a.Add(x)
}

// Keys returns the populated bucket keys in increasing order.
func (b *Buckets) Keys() []int {
	var ks []int
	for k := range b.acc {
		ks = append(ks, k)
	}
	sort.Ints(ks)
	return ks
}

// Get returns the accumulator for a key (nil if empty).
func (b *Buckets) Get(key int) *Acc { return b.acc[key] }

// RatioOfSums tracks Σnum/Σden — the Total Overpayment Ratio (TOR)
// aggregates payments and costs separately before dividing.
type RatioOfSums struct {
	Num, Den float64
}

// Add folds one (num, den) pair; pairs with non-finite parts are
// skipped (monopoly sources).
func (r *RatioOfSums) Add(num, den float64) {
	if math.IsInf(num, 0) || math.IsNaN(num) || math.IsInf(den, 0) || math.IsNaN(den) {
		return
	}
	r.Num += num
	r.Den += den
}

// Value returns Σnum/Σden (NaN when the denominator is zero).
func (r *RatioOfSums) Value() float64 {
	if r.Den == 0 {
		return math.NaN()
	}
	return r.Num / r.Den
}
