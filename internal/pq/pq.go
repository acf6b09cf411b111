// Package pq provides indexed priority queues keyed by float64
// priorities, specialized for shortest-path computations where items
// are small non-negative integer ids (graph vertices or edges).
//
// Two implementations share the Queue interface:
//
//   - Binary: a classic array-backed binary heap. O(log n) per
//     operation, allocation-free after construction, and the default
//     frontier for every solver path.
//   - Bucket: a monotone circular bucket queue (Dial's structure) for
//     the fixed-point cost regime negotiated by
//     graph.(*NodeGraph).CostQuantum. O(1) Push/DecreaseKey with no
//     comparisons; only usable when priorities are quantized and the
//     consumer is monotone (Dijkstra), which sp.Workspace checks
//     before engaging it.
//
// The tests referee both against an independent container/heap
// implementation of the same (priority, id) order.
package pq

// Queue is the common interface implemented by Binary and Bucket.
// Items are dense integer ids in [0, capacity). Each id may be in the
// queue at most once.
type Queue interface {
	// Len reports the number of items currently queued.
	Len() int
	// Push inserts id with the given priority. It panics if id is
	// already queued or out of range.
	Push(id int, priority float64)
	// Pop removes and returns the id with the smallest priority,
	// breaking ties by smaller id for determinism.
	Pop() (id int, priority float64)
	// DecreaseKey lowers the priority of a queued id. It panics if id
	// is not queued or the new priority is greater than the current
	// one.
	DecreaseKey(id int, priority float64)
	// Contains reports whether id is currently queued.
	Contains(id int) bool
	// Priority returns the current priority of a queued id.
	Priority(id int) float64
	// Reset empties the queue in O(queued items), leaving it ready
	// for reuse without reallocating; this is what lets a solver
	// workspace amortize one heap across many Dijkstra runs.
	Reset()
}

// less orders (priority, id) pairs; ties on priority break by id so
// that every Queue implementation pops in the same deterministic
// order, which keeps simulations reproducible across heap choices.
func less(p1 float64, id1 int, p2 float64, id2 int) bool {
	//lint:allow floatcmp exact tie-break keeps (priority, id) a transitive total order across heap implementations
	if p1 != p2 {
		return p1 < p2
	}
	return id1 < id2
}
