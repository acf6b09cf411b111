package pq

import (
	"math/rand/v2"
	"sort"
	"testing"
	"testing/quick"
)

// makers constructs the queue under test fresh per case, keyed by
// the subtest name.
var makers = map[string]func(cap int) *Binary{
	"binary": NewBinary,
}

func TestPushPopSorted(t *testing.T) {
	for name, mk := range makers {
		t.Run(name, func(t *testing.T) {
			q := mk(8)
			prios := []float64{5, 1, 4, 2, 8, 0, 3, 7}
			for id, p := range prios {
				q.Push(id, p)
			}
			if q.Len() != len(prios) {
				t.Fatalf("Len = %d, want %d", q.Len(), len(prios))
			}
			var got []float64
			for q.Len() > 0 {
				_, p := q.Pop()
				got = append(got, p)
			}
			if !sort.Float64sAreSorted(got) {
				t.Errorf("pop order not sorted: %v", got)
			}
		})
	}
}

func TestPopTieBreaksByID(t *testing.T) {
	for name, mk := range makers {
		t.Run(name, func(t *testing.T) {
			q := mk(4)
			q.Push(3, 1.0)
			q.Push(1, 1.0)
			q.Push(2, 1.0)
			q.Push(0, 1.0)
			for want := 0; want < 4; want++ {
				id, _ := q.Pop()
				if id != want {
					t.Fatalf("pop = %d, want %d", id, want)
				}
			}
		})
	}
}

func TestDecreaseKeyReordering(t *testing.T) {
	for name, mk := range makers {
		t.Run(name, func(t *testing.T) {
			q := mk(4)
			q.Push(0, 10)
			q.Push(1, 20)
			q.Push(2, 30)
			q.DecreaseKey(2, 5)
			id, p := q.Pop()
			if id != 2 || p != 5 {
				t.Fatalf("Pop = (%d, %v), want (2, 5)", id, p)
			}
			id, _ = q.Pop()
			if id != 0 {
				t.Fatalf("Pop = %d, want 0", id)
			}
		})
	}
}

func TestDecreaseKeyOfRootIsNoOp(t *testing.T) {
	for name, mk := range makers {
		t.Run(name, func(t *testing.T) {
			q := mk(2)
			q.Push(0, 10)
			q.Push(1, 20)
			q.DecreaseKey(0, 1)
			if id, p := q.Pop(); id != 0 || p != 1 {
				t.Fatalf("Pop = (%d, %v), want (0, 1)", id, p)
			}
		})
	}
}

func TestContains(t *testing.T) {
	for name, mk := range makers {
		t.Run(name, func(t *testing.T) {
			q := mk(3)
			if q.Contains(1) {
				t.Fatal("empty queue Contains(1) = true")
			}
			q.Push(1, 2)
			if !q.Contains(1) {
				t.Fatal("Contains(1) = false after Push")
			}
			q.Pop()
			if q.Contains(1) {
				t.Fatal("Contains(1) = true after Pop")
			}
		})
	}
}

func TestReinsertAfterPop(t *testing.T) {
	for name, mk := range makers {
		t.Run(name, func(t *testing.T) {
			q := mk(2)
			q.Push(0, 1)
			q.Pop()
			q.Push(0, 2) // must not panic
			if id, p := q.Pop(); id != 0 || p != 2 {
				t.Fatalf("Pop = (%d, %v), want (0, 2)", id, p)
			}
		})
	}
}

func TestPanics(t *testing.T) {
	for name, mk := range makers {
		t.Run(name, func(t *testing.T) {
			mustPanic := func(desc string, f func()) {
				t.Helper()
				defer func() {
					if recover() == nil {
						t.Errorf("%s: no panic", desc)
					}
				}()
				f()
			}
			q := mk(2)
			mustPanic("pop empty", func() { q.Pop() })
			q.Push(0, 5)
			mustPanic("double push", func() { q.Push(0, 1) })
			mustPanic("decrease absent", func() { q.DecreaseKey(1, 1) })
			mustPanic("increase key", func() { q.DecreaseKey(0, 6) })
		})
	}
}

// TestQuickHeapsAgree drives the binary heap and the container/heap
// referee with the same random operation sequence — arbitrary
// priorities and decrease-keys — and checks they stay observationally
// identical.
func TestQuickHeapsAgree(t *testing.T) {
	f := func(seed uint64, opsRaw []byte) bool {
		const capSize = 32
		rng := rand.New(rand.NewPCG(seed, 0))
		b := NewBinary(capSize)
		ref := newRefHeap(capSize)
		in := make(map[int]bool)
		for _, opByte := range opsRaw {
			switch op := opByte % 3; op {
			case 0: // push a random absent id
				id := rng.IntN(capSize)
				if in[id] {
					continue
				}
				pr := float64(rng.IntN(1000)) / 7
				b.Push(id, pr)
				ref.push(id, pr)
				in[id] = true
			case 1: // pop
				if len(in) == 0 {
					continue
				}
				bi, bp := b.Pop()
				ri, rp := ref.pop()
				if bi != ri || bp != rp {
					t.Logf("pop mismatch: binary (%d,%v) container/heap (%d,%v)", bi, bp, ri, rp)
					return false
				}
				delete(in, bi)
			case 2: // decrease-key a random present id
				if len(in) == 0 {
					continue
				}
				var id int
				for k := range in {
					id = k
					break
				}
				np := ref.prio[id] * (float64(rng.IntN(100)) / 100)
				b.DecreaseKey(id, np)
				ref.decrease(id, np)
			}
			if b.Len() != ref.Len() {
				t.Logf("len mismatch: %d vs %d", b.Len(), ref.Len())
				return false
			}
		}
		// Drain and compare the remainder.
		for b.Len() > 0 {
			bi, bp := b.Pop()
			ri, rp := ref.pop()
			if bi != ri || bp != rp {
				t.Logf("drain mismatch: binary (%d,%v) container/heap (%d,%v)", bi, bp, ri, rp)
				return false
			}
		}
		return ref.Len() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func benchHeapsort(b *testing.B, mk func(int) *Binary, n int) {
	rng := rand.New(rand.NewPCG(42, 0))
	prios := make([]float64, n)
	for i := range prios {
		prios[i] = rng.Float64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := mk(n)
		for id, p := range prios {
			q.Push(id, p)
		}
		for q.Len() > 0 {
			q.Pop()
		}
	}
}

func BenchmarkBinaryHeapsort4096(b *testing.B) { benchHeapsort(b, makers["binary"], 4096) }
