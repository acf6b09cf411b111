package pq

import "testing"

func TestBinaryReset(t *testing.T) {
	q := NewBinary(10)
	q.Push(3, 5)
	q.Push(1, 2)
	q.Push(7, 9)
	q.Reset()
	if q.Len() != 0 {
		t.Fatalf("Len after Reset = %d, want 0", q.Len())
	}
	for _, id := range []int{1, 3, 7} {
		if q.Contains(id) {
			t.Fatalf("Contains(%d) after Reset", id)
		}
	}
	// The queue must be fully usable again, including re-pushing ids
	// it held before the reset.
	q.Push(3, 1)
	q.Push(1, 4)
	q.DecreaseKey(1, 0.5)
	if id, pri := q.Pop(); id != 1 || pri != 0.5 {
		t.Fatalf("Pop after Reset = (%d, %g), want (1, 0.5)", id, pri)
	}
	if id, pri := q.Pop(); id != 3 || pri != 1 {
		t.Fatalf("Pop after Reset = (%d, %g), want (3, 1)", id, pri)
	}
	q.Reset() // resetting an empty queue is a no-op
	if q.Len() != 0 {
		t.Fatal("Reset of empty queue left items")
	}
}
