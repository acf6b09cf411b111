package pq

import (
	"container/heap"
	"fmt"
	"math/rand/v2"
	"testing"
)

// refHeap is an independently written reference frontier on top of
// the stdlib container/heap, with the same (priority, id) total order
// as Binary. It exists only to referee the differential test: Binary
// must stay observationally identical to it on any legal operation
// sequence.
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

// TestDifferentialAgainstContainerHeap drives Binary and the
// container/heap referee with the same seeded random decrease-key
// workload and demands pop-for-pop agreement. The workload is
// Dijkstra's shape: priorities are multiples of 1/scale, many tie, and
// none falls below the last popped value.
func TestDifferentialAgainstContainerHeap(t *testing.T) {
	const (
		capSize = 128
		scale   = 4.0
		span    = 256 // scaled width of the priority window above the floor
		ops     = 4000
	)
	for seed := uint64(1); seed <= 12; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewPCG(seed, 99))
			ref := newRefHeap(capSize)
			q := NewBinary(capSize)
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
					q.Push(id, p)
					queued[id] = true
				case 2: // pop both and compare
					if ref.Len() == 0 {
						continue
					}
					wantID, wantP := ref.pop()
					if id, p := q.Pop(); id != wantID || p != wantP {
						t.Fatalf("op %d: Pop = (%d, %v), container/heap popped (%d, %v)",
							op, id, p, wantID, wantP)
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
					q.DecreaseKey(id, p)
				}
				if q.Len() != ref.Len() {
					t.Fatalf("op %d: Len = %d, container/heap has %d", op, q.Len(), ref.Len())
				}
			}
			// Drain whatever is left, still in lockstep.
			for ref.Len() > 0 {
				wantID, wantP := ref.pop()
				if id, p := q.Pop(); id != wantID || p != wantP {
					t.Fatalf("drain: Pop = (%d, %v), container/heap popped (%d, %v)",
						id, p, wantID, wantP)
				}
			}
		})
	}
}
