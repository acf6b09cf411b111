package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear
// interpolation between closest ranks. xs is sorted in place. An
// empty sample yields NaN so that a missing measurement can never
// masquerade as a fast one.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return xs[lo]
	}
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

// quantileOf is quantile on a copy, leaving xs untouched.
func quantileOf(xs []float64, q float64) float64 {
	return quantile(append([]float64(nil), xs...), q)
}

func median(xs []float64) float64 { return quantileOf(xs, 0.5) }

// This host's CPU speed swings by a quarter within seconds as
// neighbouring tenants come and go, so a serving series is cut, in time
// order, into up to maxWindows windows and a figure is the median
// across windows: a burst of neighbour load covering fewer than half
// the windows does not move it, while a stall the program causes in
// most windows (a GC cycle, an epoch flip) does. A window keeps at
// least ten samples beyond its percentile.
const maxWindows = 25

// windowedQuantile is the median across time-ordered windows of each
// window's q-quantile of samples.
func windowedQuantile(samples []float64, q float64) float64 {
	k := max(1, min(int(float64(len(samples))*(1-q)/10), maxWindows))
	size := len(samples) / k
	per := make([]float64, 0, k)
	for w := 0; w < k; w++ {
		per = append(per, quantileOf(samples[w*size:(w+1)*size], q))
	}
	return quantile(per, 0.5)
}

func micros(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
