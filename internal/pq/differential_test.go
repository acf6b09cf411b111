package pq

import (
	"container/heap"
	"fmt"
	"math"
	"math/rand/v2"
	"testing"
)

// refHeap is an independently written reference frontier on top of
// the stdlib container/heap, with the same (priority, id) total order
// as the package's Queue contract. It exists only to referee the
// differential test: the production implementations must stay
// observationally identical to it on any legal operation sequence.
type refHeap struct {
	ids  []int
	prio []float64 // indexed by id
	pos  []int     // indexed by id, -1 when absent
}

func newRefHeap(capacity int) *refHeap {
	r := &refHeap{prio: make([]float64, capacity), pos: make([]int, capacity)}
	for i := range r.pos {
		r.pos[i] = -1
	}
	return r
}

func (r *refHeap) Len() int { return len(r.ids) }
func (r *refHeap) Less(i, j int) bool {
	return less(r.prio[r.ids[i]], r.ids[i], r.prio[r.ids[j]], r.ids[j])
}
func (r *refHeap) Swap(i, j int) {
	r.ids[i], r.ids[j] = r.ids[j], r.ids[i]
	r.pos[r.ids[i]], r.pos[r.ids[j]] = i, j
}
func (r *refHeap) Push(x any) {
	id := x.(int)
	r.pos[id] = len(r.ids)
	r.ids = append(r.ids, id)
}
func (r *refHeap) Pop() any {
	last := len(r.ids) - 1
	id := r.ids[last]
	r.ids = r.ids[:last]
	r.pos[id] = -1
	return id
}

func (r *refHeap) push(id int, p float64) {
	r.prio[id] = p
	heap.Push(r, id)
}

func (r *refHeap) pop() (int, float64) {
	id := heap.Pop(r).(int)
	return id, r.prio[id]
}

func (r *refHeap) decrease(id int, p float64) {
	r.prio[id] = p
	heap.Fix(r, r.pos[id])
}

// TestDifferentialAgainstContainerHeap drives every frontier
// implementation (binary, bucket) with the same seeded
// random decrease-key workload and demands pop-for-pop agreement with
// the container/heap referee. The workload is monotone and quantized
// — priorities are multiples of 1/scale and never fall below the last
// popped value — because that is the regime shared by all three
// implementations; the bucket's behavior outside it is pinned by
// TestBucketRegimeViolationsPanic.
func TestDifferentialAgainstContainerHeap(t *testing.T) {
	const (
		capSize = 128
		scale   = 4.0
		span    = 256 // scaled window width the workload respects
		ops     = 4000
	)
	for seed := uint64(1); seed <= 12; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewPCG(seed, 99))
			ref := newRefHeap(capSize)
			uut := map[string]Queue{
				"binary": NewBinary(capSize),
				"bucket": NewBucket(capSize, scale, span),
			}
			floor := 0.0 // last popped priority: the monotone frontier
			queued := make(map[int]bool)
			// quantized priority in [floor, floor+span/scale]
			randPrio := func() float64 {
				return floor + float64(rng.Int64N(span+1))/scale
			}
			for op := 0; op < ops; op++ {
				switch rng.IntN(5) {
				case 0, 1: // push a random absent id
					id := rng.IntN(capSize)
					if queued[id] {
						continue
					}
					p := randPrio()
					ref.push(id, p)
					for _, q := range uut {
						q.Push(id, p)
					}
					queued[id] = true
				case 2: // pop everywhere and compare
					if ref.Len() == 0 {
						continue
					}
					wantID, wantP := ref.pop()
					for name, q := range uut {
						id, p := q.Pop()
						if id != wantID || p != wantP {
							t.Fatalf("op %d: %s.Pop = (%d, %v), container/heap popped (%d, %v)",
								op, name, id, p, wantID, wantP)
						}
					}
					floor = wantP
					delete(queued, wantID)
				case 3, 4: // decrease-key a random queued id
					if ref.Len() == 0 {
						continue
					}
					id := ref.ids[rng.IntN(ref.Len())]
					cur := ref.prio[id]
					lo := floor
					if cur < lo {
						lo = cur
					}
					steps := int64((cur - lo) * scale)
					p := cur - float64(rng.Int64N(steps+1))/scale
					ref.decrease(id, p)
					for _, q := range uut {
						q.DecreaseKey(id, p)
					}
				}
				for name, q := range uut {
					if q.Len() != ref.Len() {
						t.Fatalf("op %d: %s.Len = %d, container/heap has %d", op, name, q.Len(), ref.Len())
					}
				}
			}
			// Drain whatever is left, still in lockstep.
			for ref.Len() > 0 {
				wantID, wantP := ref.pop()
				for name, q := range uut {
					id, p := q.Pop()
					if id != wantID || p != wantP {
						t.Fatalf("drain: %s.Pop = (%d, %v), container/heap popped (%d, %v)",
							name, id, p, wantID, wantP)
					}
				}
			}
		})
	}
}

// TestBucketRegimeViolationsPanic pins the guard rails that make the
// bucket safe to auto-engage: every way a workload can leave the
// fixed-point monotone regime must panic loudly (so sp.Workspace's
// negotiation-time fallback to the binary heap is the only legal exit),
// never silently misorder.
func TestBucketRegimeViolationsPanic(t *testing.T) {
	mustPanic := func(t *testing.T, desc string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", desc)
			}
		}()
		f()
	}
	t.Run("off-grid priority", func(t *testing.T) {
		q := NewBucket(4, 2, 8) // grid: multiples of 0.5
		mustPanic(t, "push 0.3", func() { q.Push(0, 0.3) })
		mustPanic(t, "push NaN", func() { q.Push(1, math.NaN()) })
		mustPanic(t, "push negative", func() { q.Push(2, -0.5) })
	})
	t.Run("span overflow", func(t *testing.T) {
		q := NewBucket(4, 1, 8)
		q.Push(0, 3)
		mustPanic(t, "push 3+9", func() { q.Push(1, 12) })
	})
	t.Run("monotonicity after pop", func(t *testing.T) {
		q := NewBucket(4, 1, 8)
		q.Push(0, 5)
		q.Push(1, 7)
		q.Pop()
		mustPanic(t, "push below cursor", func() { q.Push(2, 4) })
		mustPanic(t, "decrease below cursor", func() { q.DecreaseKey(1, 4) })
	})
	t.Run("pre-pop below-min push widens window", func(t *testing.T) {
		// Before any pop the cursor may still move down — Dijkstra
		// seeds the frontier in arbitrary order.
		q := NewBucket(4, 1, 8)
		q.Push(0, 5)
		q.Push(1, 2)
		if id, p := q.Pop(); id != 1 || p != 2 {
			t.Fatalf("Pop = (%d, %v), want (1, 2)", id, p)
		}
	})
	t.Run("constructor", func(t *testing.T) {
		mustPanic(t, "zero scale", func() { NewBucket(4, 0, 8) })
		mustPanic(t, "zero span", func() { NewBucket(4, 1, 0) })
	})
}

// TestBucketEqualKeyDecreaseIsNoOp pins the quantization-injectivity
// argument: on the fixed-point grid an equal scaled key means an
// equal priority, so DecreaseKey to the same key must be a no-op that
// keeps tie-break order intact.
func TestBucketEqualKeyDecreaseIsNoOp(t *testing.T) {
	q := NewBucket(4, 1, 8)
	q.Push(2, 3)
	q.Push(1, 3)
	q.DecreaseKey(2, 3) // same priority: no-op, must not perturb order
	if id, _ := q.Pop(); id != 1 {
		t.Fatalf("Pop = %d, want 1 (smaller id wins the tie)", id)
	}
	if id, _ := q.Pop(); id != 2 {
		t.Fatalf("Pop = %d, want 2", id)
	}
}

// TestBucketCircularReuse wraps the cursor around the circular row
// array several times to catch modular-arithmetic slips.
func TestBucketCircularReuse(t *testing.T) {
	q := NewBucket(8, 1, 4) // only 5 rows; keys below cycle through them
	next := 0.0
	for round := 0; round < 20; round++ {
		q.Push(0, next)
		q.Push(1, next+3)
		if id, p := q.Pop(); id != 0 || p != next {
			t.Fatalf("round %d: Pop = (%d, %v), want (0, %v)", round, id, p, next)
		}
		if id, p := q.Pop(); id != 1 || p != next+3 {
			t.Fatalf("round %d: Pop = (%d, %v), want (1, %v)", round, id, p, next+3)
		}
		next += 3
	}
}
