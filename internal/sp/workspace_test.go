package sp

import (
	"math/rand/v2"
	"reflect"
	"slices"
	"testing"

	"truthroute/internal/graph"
)

// sameTree asserts bit-identical Dist/Parent/Order between two trees;
// the workspace path must not just approximate the allocating one, it
// must reproduce it exactly.
func sameTree(t *testing.T, got, want *Tree) {
	t.Helper()
	if got.Src != want.Src {
		t.Fatalf("Src = %d, want %d", got.Src, want.Src)
	}
	if !reflect.DeepEqual(got.Dist, want.Dist) {
		t.Fatalf("Dist mismatch:\ngot  %v\nwant %v", got.Dist, want.Dist)
	}
	if !reflect.DeepEqual(got.Parent, want.Parent) {
		t.Fatalf("Parent mismatch:\ngot  %v\nwant %v", got.Parent, want.Parent)
	}
	if !reflect.DeepEqual(got.Order, want.Order) {
		t.Fatalf("Order mismatch:\ngot  %v\nwant %v", got.Order, want.Order)
	}
}

// TestWorkspaceNodeDijkstraMatches reuses ONE workspace across many
// random graphs, sources and banned sets, checking each run against a
// fresh allocating run — so it exercises the O(touched) rollback, the
// size changes, and the banned filter all at once.
func TestWorkspaceNodeDijkstraMatches(t *testing.T) {
	rng := rand.New(rand.NewPCG(21, 1))
	w := NewWorkspace(1)
	for trial := 0; trial < 120; trial++ {
		n := 2 + rng.IntN(40)
		g := graph.ErdosRenyi(n, 0.15, rng)
		g.RandomizeCosts(0.1, 5, rng)
		var banned []bool
		if rng.IntN(2) == 0 {
			banned = make([]bool, n)
			for v := range banned {
				banned[v] = rng.IntN(4) == 0
			}
		}
		src := rng.IntN(n)
		sameTree(t, w.NodeDijkstra(g, src, banned), NodeDijkstra(g, src, banned))
	}
}

func TestWorkspaceLinkDijkstraMatches(t *testing.T) {
	rng := rand.New(rand.NewPCG(22, 1))
	w := NewWorkspace(1)
	for trial := 0; trial < 120; trial++ {
		n := 2 + rng.IntN(30)
		g := graph.RandomLinkGraph(n, 0.2, 0.1, 4, rng)
		src := rng.IntN(n)
		var banned []bool
		if rng.IntN(2) == 0 {
			banned = make([]bool, n)
			banned[rng.IntN(n)] = true
		}
		sameTree(t, w.LinkDijkstra(g, src, banned), LinkDijkstra(g, src, banned))
	}
}

// TestWorkspaceRollbackInvariant: after any run, entries the run did
// not touch must still read as unreachable (+Inf dist, -1 parent) —
// the full indexable-anywhere Tree contract.
func TestWorkspaceRollbackInvariant(t *testing.T) {
	// Two disconnected triangles; a run from one side must leave the
	// other side's entries pristine, even right after a run from the
	// other side populated them.
	g := graph.NewNodeGraph(6)
	for _, e := range [][2]int{{0, 1}, {1, 2}, {2, 0}, {3, 4}, {4, 5}, {5, 3}} {
		g.AddEdge(e[0], e[1])
	}
	w := NewWorkspace(g.N())
	w.NodeDijkstra(g, 3, nil) // populate the right triangle
	tree := w.NodeDijkstra(g, 0, nil)
	for v := 3; v < 6; v++ {
		if tree.Reachable(v) || tree.Parent[v] != -1 {
			t.Fatalf("node %d: stale entry dist=%v parent=%d", v, tree.Dist[v], tree.Parent[v])
		}
	}
}

func TestPathIntoMatchesPathTo(t *testing.T) {
	rng := rand.New(rand.NewPCG(23, 1))
	buf := []int{}
	for trial := 0; trial < 60; trial++ {
		n := 2 + rng.IntN(30)
		g := graph.ErdosRenyi(n, 0.15, rng)
		g.RandomizeCosts(0.1, 5, rng)
		tree := NodeDijkstra(g, 0, nil)
		for v := 0; v < n; v++ {
			want := tree.PathTo(v)
			buf = tree.PathInto(v, buf[:0])
			if want == nil {
				if buf != nil {
					t.Fatalf("node %d: PathInto %v, want nil", v, buf)
				}
				buf = []int{} // keep the recycled buffer alive
				continue
			}
			if !reflect.DeepEqual(buf, want) {
				t.Fatalf("node %d: PathInto %v, want %v", v, buf, want)
			}
			// RootPathInto is the same path read from v to the root.
			slices.Reverse(want)
			if got := tree.RootPathInto(v, nil); !reflect.DeepEqual(got, want) {
				t.Fatalf("node %d: RootPathInto %v, want %v", v, got, want)
			}
		}
	}
}

func TestPathIntoGrowsBuffer(t *testing.T) {
	g := graph.Ring(8)
	tree := NodeDijkstra(g, 0, nil)
	small := make([]int, 0, 1)
	p := tree.PathInto(4, small)
	if len(p) != 5 || p[0] != 0 || p[4] != 4 {
		t.Fatalf("PathInto with small buffer = %v", p)
	}
	if got := tree.PathInto(0, nil); len(got) != 1 || got[0] != 0 {
		t.Fatalf("PathInto(src) = %v, want [0]", got)
	}
	if got := tree.PathInto(-1, nil); got != nil {
		t.Fatalf("PathInto(-1) = %v, want nil", got)
	}
}

func TestMarks(t *testing.T) {
	m := NewMarks(4)
	if m.Has(0) || m.Has(3) {
		t.Fatal("fresh marks are not empty")
	}
	m.Set(2)
	if !m.Has(2) || m.Has(1) {
		t.Fatal("Set/Has mismatch")
	}
	m.Clear()
	if m.Has(2) {
		t.Fatal("Clear left a mark")
	}
	m.Set(1)
	m.Resize(8)
	if m.Has(1) {
		t.Fatal("Resize kept a mark")
	}
	m.Set(7)
	if !m.Has(7) {
		t.Fatal("mark lost after Resize")
	}
	// Force the wraparound hard-reset branch.
	m.cur = ^uint32(0)
	m.Set(3)
	m.Clear()
	if m.Has(3) || m.cur != 1 {
		t.Fatalf("wraparound reset broken: cur=%d", m.cur)
	}
}
