package sp

import (
	"truthroute/internal/graph"
	"truthroute/internal/pq"
)

// Marks is a generation-stamped node-mark set: Set/Has are O(1) and
// Clear is O(1) too — it just bumps the current generation, so stale
// stamps from earlier queries read as "absent" without touching the
// array. This is the reset trick that makes per-query scratch state
// O(touched) instead of O(n): a workspace clears its marks thousands
// of times per second without ever refilling an n-sized array (except
// on the ~never generation-counter wraparound).
type Marks struct {
	gen []uint32
	cur uint32
}

// NewMarks returns an empty mark set over ids in [0, n).
func NewMarks(n int) *Marks {
	m := &Marks{}
	m.Resize(n)
	return m
}

// Resize grows or shrinks the id space, clearing all marks.
func (m *Marks) Resize(n int) {
	if n <= cap(m.gen) {
		m.gen = m.gen[:n]
		m.Clear()
		return
	}
	m.gen = make([]uint32, n)
	m.cur = 1
}

// Clear unmarks every id in O(1).
//
//lint:noalloc clearing is the per-query reset; an allocation here would undo the generation trick
func (m *Marks) Clear() {
	m.cur++
	if m.cur == 0 { // generation counter wrapped: hard reset
		for i := range m.gen {
			m.gen[i] = 0
		}
		m.cur = 1
	}
}

// Set marks id.
func (m *Marks) Set(id int) { m.gen[id] = m.cur }

// Has reports whether id is marked.
func (m *Marks) Has(id int) bool { return m.gen[id] == m.cur }

// Workspace owns the per-query state of a Dijkstra run — dist, parent
// and settle-order arrays, the priority queue, and the list of nodes
// the previous run touched — so a steady-state caller performs zero
// allocations per shortest path tree. The arrays hold the invariant
// "Dist = +Inf, Parent = -1 everywhere" between runs; each run records
// the nodes it writes and the *next* run rolls exactly those entries
// back, making the reset O(touched component), not O(n). The returned
// Tree therefore keeps the full indexable-anywhere semantics of the
// allocating API (stale entries really are +Inf/-1) while sharing its
// arrays with the workspace.
//
// The Tree returned by a workspace run is valid only until the next
// run on the same workspace. A Workspace is not safe for concurrent
// use; pool one per worker (see core.Solver).
type Workspace struct {
	n       int
	tree    Tree
	q       *pq.Binary
	touched []int
}

// NewWorkspace returns a workspace for graphs with n nodes.
func NewWorkspace(n int) *Workspace {
	w := &Workspace{}
	w.Resize(n)
	return w
}

// Resize re-targets the workspace at an n-node graph, reallocating
// only when n grows beyond anything seen before.
func (w *Workspace) Resize(n int) {
	if n == w.n && w.q != nil {
		return
	}
	w.n = n
	w.tree = Tree{Dist: make([]float64, n), Parent: make([]int, n), Order: make([]int, 0, n)}
	for i := range w.tree.Dist {
		w.tree.Dist[i] = Inf
		w.tree.Parent[i] = -1
	}
	w.q = pq.NewBinary(n)
	w.touched = make([]int, 0, n)
}

// begin rolls back the previous run's writes and primes the tree for
// a new source.
//
//lint:noalloc rollback runs before every query; it must stay O(touched) with no heap traffic
func (w *Workspace) begin(src int) *Tree {
	obsRollback.Observe(float64(len(w.touched)))
	t := &w.tree
	for _, v := range w.touched {
		t.Dist[v] = Inf
		t.Parent[v] = -1
	}
	w.touched = w.touched[:0]
	t.Order = t.Order[:0]
	t.Src = src
	w.q.Reset()
	return t
}

// touch records the first write to v's tree entry.
func (w *Workspace) touch(v int) { w.touched = append(w.touched, v) }

// NodeDijkstra is NodeDijkstra into this workspace: same contract,
// same settle order, zero allocations in the steady state. It walks
// the graph's CSR layout (identical neighbour order to the [][]int
// adjacency, so outputs are bit-identical to the allocating API).
//
//lint:noalloc the steady-state query loop; growth allocations belong to Resize, not here
func (w *Workspace) NodeDijkstra(g *graph.NodeGraph, src int, banned []bool) *Tree {
	w.Resize(g.N())
	t := w.begin(src)
	csr := g.CSR()
	t.Dist[src] = 0
	w.touch(src)
	q := w.q
	q.Push(src, 0)
	for q.Len() > 0 {
		u, du := q.Pop()
		t.Order = append(t.Order, u)
		// The "arc weight" out of u is u's relay cost, except that
		// the source relays nothing for itself.
		cu := g.Cost(u)
		if u == src {
			cu = 0
		}
		for _, v32 := range csr.Neighbors(u) {
			v := int(v32)
			if banned != nil && banned[v] {
				continue
			}
			nd := du + cu
			if nd < t.Dist[v] {
				if t.Parent[v] < 0 && v != src {
					w.touch(v)
				}
				t.Dist[v] = nd
				t.Parent[v] = u
				if q.Contains(v) {
					q.DecreaseKey(v, nd)
				} else {
					q.Push(v, nd)
				}
			}
		}
	}
	obsRuns.Inc()
	obsTouched.Observe(float64(len(w.touched)))
	return t
}

// LinkDijkstra is LinkDijkstra into this workspace: same contract,
// same settle order, zero allocations in the steady state.
//
//lint:noalloc the steady-state query loop; growth allocations belong to Resize, not here
func (w *Workspace) LinkDijkstra(g *graph.LinkGraph, src int, banned []bool) *Tree {
	w.Resize(g.N())
	t := w.begin(src)
	t.Dist[src] = 0
	w.touch(src)
	q := w.q
	q.Push(src, 0)
	for q.Len() > 0 {
		u, du := q.Pop()
		t.Order = append(t.Order, u)
		for _, a := range g.Out(u) {
			if a.W >= Inf || (banned != nil && banned[a.To]) {
				continue
			}
			nd := du + a.W
			if nd < t.Dist[a.To] {
				if t.Parent[a.To] < 0 && a.To != src {
					w.touch(a.To)
				}
				t.Dist[a.To] = nd
				t.Parent[a.To] = u
				if q.Contains(a.To) {
					q.DecreaseKey(a.To, nd)
				} else {
					q.Push(a.To, nd)
				}
			}
		}
	}
	obsRuns.Inc()
	obsTouched.Observe(float64(len(w.touched)))
	return t
}
