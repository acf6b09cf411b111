// Package pq provides the indexed priority queue every shortest-path
// computation in the repository runs on: Binary, an array-backed
// binary min-heap keyed by float64 priorities over small non-negative
// integer ids (graph vertices or edges). It is O(log n) per operation
// and allocation-free after construction.
//
// The tests referee it against an independent container/heap
// implementation of the same (priority, id) order.
package pq

// less orders (priority, id) pairs; ties on priority break by id so
// that pops are deterministic, which keeps simulations reproducible.
func less(p1 float64, id1 int, p2 float64, id2 int) bool {
	//lint:allow floatcmp exact tie-break keeps (priority, id) a transitive total order
	if p1 != p2 {
		return p1 < p2
	}
	return id1 < id2
}
