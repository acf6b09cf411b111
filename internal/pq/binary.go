package pq

// Binary is an indexed array-backed binary min-heap. Items are dense
// integer ids in [0, capacity), each queued at most once. The pos
// slice maps item ids to their index in the heap array (-1 when
// absent), enabling O(log n) DecreaseKey.
type Binary struct {
	ids  []int     // heap array of item ids
	prio []float64 // prio[i] is the priority of item id i
	pos  []int     // pos[i] is the index of id i in ids, or -1
}

// NewBinary returns an empty binary heap able to hold ids in
// [0, capacity).
func NewBinary(capacity int) *Binary {
	b := &Binary{
		ids:  make([]int, 0, capacity),
		prio: make([]float64, capacity),
		pos:  make([]int, capacity),
	}
	for i := range b.pos {
		b.pos[i] = -1
	}
	return b
}

// Len reports the number of queued items.
func (b *Binary) Len() int { return len(b.ids) }

// Reset empties the heap in O(queued items), keeping the backing
// arrays for reuse; this is what lets a solver workspace amortize one
// heap across many Dijkstra runs.
func (b *Binary) Reset() {
	for _, id := range b.ids {
		b.pos[id] = -1
	}
	b.ids = b.ids[:0]
}

// Contains reports whether id is currently queued.
func (b *Binary) Contains(id int) bool { return b.pos[id] >= 0 }

// Push inserts id with the given priority. It panics if id is
// already queued or out of range.
func (b *Binary) Push(id int, priority float64) {
	if b.pos[id] >= 0 {
		panic("pq: Push of item already in queue")
	}
	b.prio[id] = priority
	b.pos[id] = len(b.ids)
	b.ids = append(b.ids, id)
	b.up(len(b.ids) - 1)
}

// Pop removes and returns the item with the smallest priority,
// breaking ties by smaller id.
func (b *Binary) Pop() (int, float64) {
	if len(b.ids) == 0 {
		panic("pq: Pop from empty queue")
	}
	id := b.ids[0]
	p := b.prio[id]
	last := len(b.ids) - 1
	b.swap(0, last)
	b.ids = b.ids[:last]
	b.pos[id] = -1
	if last > 0 {
		b.down(0)
	}
	return id, p
}

// DecreaseKey lowers the priority of a queued id. It panics if id is
// not queued or the new priority is greater than the current one.
func (b *Binary) DecreaseKey(id int, priority float64) {
	i := b.pos[id]
	if i < 0 {
		panic("pq: DecreaseKey of item not in queue")
	}
	if priority > b.prio[id] {
		panic("pq: DecreaseKey would increase priority")
	}
	b.prio[id] = priority
	b.up(i)
}

func (b *Binary) lessAt(i, j int) bool {
	return less(b.prio[b.ids[i]], b.ids[i], b.prio[b.ids[j]], b.ids[j])
}

func (b *Binary) swap(i, j int) {
	b.ids[i], b.ids[j] = b.ids[j], b.ids[i]
	b.pos[b.ids[i]] = i
	b.pos[b.ids[j]] = j
}

func (b *Binary) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !b.lessAt(i, parent) {
			break
		}
		b.swap(i, parent)
		i = parent
	}
}

func (b *Binary) down(i int) {
	n := len(b.ids)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		smallest := l
		if r := l + 1; r < n && b.lessAt(r, l) {
			smallest = r
		}
		if !b.lessAt(smallest, i) {
			return
		}
		b.swap(i, smallest)
		i = smallest
	}
}
