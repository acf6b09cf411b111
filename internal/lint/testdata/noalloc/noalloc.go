// Package noalloc exercises the compiler-backed zero-alloc gate. The
// bad functions are knowingly escaping: the golden test proves the
// gate reads real escape-analysis output, not a heuristic.
package noalloc

import "sort"

// sum is genuinely allocation-free: pure arithmetic over the caller's
// slice.
//
//lint:noalloc the clean case the gate must accept
func sum(xs []int) int {
	t := 0
	for _, x := range xs {
		t += x
	}
	return t
}

// grow allocates: the make escapes through the return value.
//
//lint:noalloc knowingly wrong; the fixture proves the gate fires
func grow(n int) []int {
	return make([]int, n) // want `heap escape in //lint:noalloc function grow`
}

// box allocates: the integer is boxed into the returned interface.
//
//lint:noalloc knowingly wrong; interface boxing is a heap escape
func box(x int) any {
	return x // want `heap escape in //lint:noalloc function box`
}

// unannotated allocates freely — the gate only binds annotated
// functions.
func unannotated(n int) []int {
	return make([]int, n)
}

// sortRow mirrors a priority-ordered row re-sort done wrong:
// sort.Slice boxes the slice into an interface, a heap escape on
// every call — the reason hot paths sort with the generic
// slices.Sort instead.
//
//lint:noalloc knowingly wrong; interface boxing on the sort call
func sortRow(row []int, prio []float64) {
	sort.Slice(row, func(i, j int) bool { return prio[row[i]] < prio[row[j]] }) // want `heap escape in //lint:noalloc function sortRow`
}

// relaxInto mirrors a parallel relaxation phase done wrong: a
// per-call request buffer escaping through a channel, the shape a
// real engine avoids by reusing per-worker buffers across phases.
//
//lint:noalloc knowingly wrong; the per-phase buffer escapes into the channel
func relaxInto(ch chan []int, n int) {
	buf := make([]int, 0, n) // want `heap escape in //lint:noalloc function relaxInto`
	for v := 0; v < n; v++ {
		buf = append(buf, v)
	}
	ch <- buf
}

// growRows is the clean row-append case the gate must accept:
// appending into caller-owned rows (amortized growth through
// runtime.growslice) is not a per-call heap escape.
//
//lint:noalloc the append-to-heap-slice case the gate must accept
func growRows(rows [][]int32, r int, id int32) [][]int32 {
	rows[r] = append(rows[r], id)
	return rows
}
