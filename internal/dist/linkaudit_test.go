package dist

import (
	"math/rand/v2"
	"testing"

	"truthroute/internal/core"
)

// TestLinkNetworkRunsAlgorithm2 holds the §III.F link model, run
// through Algorithm 2's Network, to the centralized link quotes:
// honest runs, synchronous and with bounded async delays, converge,
// raise no accusation, and price every relay as core.AllLinkQuotes
// does.
func TestLinkNetworkRunsAlgorithm2(t *testing.T) {
	for seed := uint64(0); seed < 40; seed++ {
		for _, delay := range []int{1, 3} {
			rng := rand.New(rand.NewPCG(seed, 230))
			n := 4 + rng.IntN(20)
			g := randomBidirectional(n, 0.2, rng)
			ln := NewLinkNetwork(g, 0)
			if delay > 1 {
				ln.net.SetAsync(delay, seed)
			}
			if _, _, ok := ln.net.RunProtocol(100 * n); !ok {
				t.Errorf("seed %d delay %d: no quiescence", seed, delay)
				continue
			}
			if len(ln.net.Log) != 0 {
				t.Errorf("seed %d delay %d: honest run accused: %v", seed, delay, ln.net.Log)
			}
			want := core.AllLinkQuotes(g, 0)
			for i := 1; i < n; i++ {
				q, w := ln.Quote(i), want[i]
				if q == nil || w == nil {
					if (q == nil) != (w == nil) {
						t.Errorf("seed %d delay %d node %d: reachability mismatch", seed, delay, i)
					}
					continue
				}
				if !almostEqual(q.Dist, w.Cost) || len(q.Payments) != len(w.Payments) {
					t.Errorf("seed %d delay %d node %d: quote %+v, want %+v", seed, delay, i, q, w)
					continue
				}
				for k, wp := range w.Payments {
					if got, ok := q.Payments[k]; !ok || !almostEqual(got, wp) {
						t.Errorf("seed %d delay %d node %d: p^%d = %v, want %v", seed, delay, i, k, got, wp)
					}
				}
			}
		}
	}
}

// TestLinkUnderpayerDetected plants Algorithm 2's price cheat in the
// link model: the trigger that produced one of its deflated entries
// recomputes it from link weights and accuses, and no honest node is
// accused, although a neighbour's entry is derived from the cheater's
// deflated announcement.
func TestLinkUnderpayerDetected(t *testing.T) {
	g := randomBidirectional(10, 0.25, rand.New(rand.NewPCG(4, 231)))
	const cheater = 3

	// The fixture's honest run: the cheater holds a price entry whose
	// trigger is an auditing neighbour (not the access point), and
	// some neighbour's entry names the cheater as its trigger.
	honest := NewLinkNetwork(g, 0)
	honest.Run(500)
	audited, cited := false, false
	for _, tr := range honest.net.Nodes[cheater].(*HonestNode).triggers {
		audited = audited || tr != 0
	}
	for _, v := range honest.net.G.Neighbors(cheater) {
		for _, tr := range honest.net.Nodes[v].(*HonestNode).triggers {
			cited = cited || tr == cheater
		}
	}
	if !audited || !cited {
		t.Fatalf("fixture no longer exercises the audit: audited %v, cited %v", audited, cited)
	}

	behaviors := make([]Behavior, g.N())
	behaviors[cheater] = &Underpayer{Factor: 0.6}
	net := NewNetwork(honest.net.G, 0, behaviors)
	net.link = g
	net.RunProtocol(500)
	accused := net.AccusedSet()
	if !accused[cheater] {
		t.Fatalf("the underpayer was not accused; log: %v", net.Log)
	}
	for v := range accused {
		if v != cheater {
			t.Errorf("honest node %d accused; log: %v", v, net.Log)
		}
	}
}
