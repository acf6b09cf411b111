package netsim

import (
	"math"
	"math/rand/v2"
	"testing"
	"truthroute/internal/sp"

	"truthroute/internal/graph"
	"truthroute/internal/wireless"
)

// line builds 0 ← 1 ← 2 ← 3: node 1 is the only AP-adjacent node.
func line() *graph.LinkGraph {
	g := graph.NewLinkGraph(4)
	g.AddArc(1, 0, 1)
	g.AddArc(2, 1, 1)
	g.AddArc(3, 2, 1)
	// Reverse arcs so the symmetrized hop view exists.
	g.AddArc(0, 1, 1)
	g.AddArc(1, 2, 1)
	g.AddArc(2, 3, 1)
	return g
}

func TestSelfishOnlyOneHopDelivers(t *testing.T) {
	s := New(line(), 0, Selfish, 1000)
	if !s.Session(1, 1) {
		t.Error("AP-adjacent source blocked under Selfish")
	}
	if s.Session(2, 1) || s.Session(3, 1) {
		t.Error("multi-hop source delivered under Selfish")
	}
	if s.Delivered != 1 || s.Blocked != 2 {
		t.Errorf("delivered=%d blocked=%d", s.Delivered, s.Blocked)
	}
}

func TestAltruisticDeliversMultiHop(t *testing.T) {
	s := New(line(), 0, Altruistic, 1000)
	if !s.Session(3, 2) {
		t.Fatal("3-hop session blocked")
	}
	// Hop energies: 3→2 costs node 3, 2→1 costs node 2, 1→0 costs
	// node 1; 2 packets each.
	if s.SpentOwn[3] != 2 || s.SpentRelay[2] != 2 || s.SpentRelay[1] != 2 {
		t.Errorf("energy books wrong: own3=%v relay2=%v relay1=%v",
			s.SpentOwn[3], s.SpentRelay[2], s.SpentRelay[1])
	}
}

func TestCompensatedDeliversWithRedundancy(t *testing.T) {
	// Diamond 3→{1,2}→0: no monopolist, so Compensated carries the
	// session and pays the cheap relay against the expensive detour.
	g := graph.NewLinkGraph(4)
	g.AddArc(3, 1, 1)
	g.AddArc(1, 0, 1)
	g.AddArc(3, 2, 2)
	g.AddArc(2, 0, 2)
	s := New(g, 0, Compensated, 1000)
	if !s.Session(3, 2) {
		t.Fatal("redundant session blocked under Compensated")
	}
	// p^1 = w(1,0) + (detour 4 − path 2) = 3 per packet, 2 packets.
	if s.EarnedRelay[1] != 6 {
		t.Errorf("relay 1 earned %v, want 6", s.EarnedRelay[1])
	}
	if s.PaidOut[3] != 6 {
		t.Errorf("source paid %v, want 6", s.PaidOut[3])
	}
	if s.NetProfit(1) != 6-2 {
		t.Errorf("relay 1 profit %v, want 4", s.NetProfit(1))
	}
}

func TestCompensatedMonopolyBlocks(t *testing.T) {
	// Node 1 is a monopolist relay for 2 and 3 (no alternate route):
	// the VCG price is unbounded, so the session is blocked rather
	// than settled at an infinite price.
	s := New(line(), 0, Compensated, 1000)
	if s.Session(2, 1) {
		t.Error("monopoly-priced session delivered under Compensated")
	}
	// Altruists don't care about prices.
	a := New(line(), 0, Altruistic, 1000)
	if !a.Session(2, 1) {
		t.Error("altruistic session blocked")
	}
}

// deployment builds a biconnected-ish wireless network for the
// policy-comparison tests.
func deployment(seed uint64) *graph.LinkGraph {
	rng := rand.New(rand.NewPCG(seed, 0))
	dep := wireless.PlaceUniform(50, 1000, 350, rng)
	return dep.LinkGraph(wireless.PathLoss{Kappa: 2, Unit: 100})
}

func TestPolicyComparison(t *testing.T) {
	rates := map[Policy]float64{}
	for _, p := range []Policy{Altruistic, Selfish, Compensated} {
		rng := rand.New(rand.NewPCG(9, 9))
		s := New(deployment(4), 0, p, 1e9) // effectively infinite battery
		rates[p] = s.Run(2000, 1, rng)
	}
	if !(rates[Selfish] < rates[Compensated]*0.7) {
		t.Errorf("selfish rate %v should collapse well below compensated %v",
			rates[Selfish], rates[Compensated])
	}
	// Compensation restores (almost) the altruistic delivery rate;
	// the only gap is monopoly-priced sessions.
	if rates[Compensated] < rates[Altruistic]-0.1 {
		t.Errorf("compensated %v far below altruistic %v", rates[Compensated], rates[Altruistic])
	}
	if rates[Compensated] < 0.8 {
		t.Errorf("compensated rate %v too low for a dense network", rates[Compensated])
	}
}

func TestCompensatedRelaysProfit(t *testing.T) {
	rng := rand.New(rand.NewPCG(10, 10))
	s := New(deployment(5), 0, Compensated, 1e9)
	s.Run(1000, 3, rng)
	for v := 1; v < len(s.EarnedRelay); v++ {
		if s.NetProfit(v) < -1e-6 {
			t.Errorf("relay %d lost money: earned %v spent %v",
				v, s.EarnedRelay[v], s.SpentRelay[v])
		}
	}
	// Money conservation: everything sources paid out was earned.
	paid, earned := 0.0, 0.0
	for v := range s.PaidOut {
		paid += s.PaidOut[v]
		earned += s.EarnedRelay[v]
	}
	if d := paid - earned; d > 1e-6 || d < -1e-6 {
		t.Errorf("paid %v != earned %v", paid, earned)
	}
}

// TestPaidOutFoldsInPathOrder: a source's PaidOut is the running sum
// of its relays' payments taken in path order, session after session,
// bit for bit — never a map-order fold, whose rounding would change
// from run to run.
func TestPaidOutFoldsInPathOrder(t *testing.T) {
	s := New(deployment(5), 0, Compensated, 1e9) // routes never change
	want := make([]float64, len(s.PaidOut))
	rng := rand.New(rand.NewPCG(11, 11))
	for i := 0; i < 500; i++ {
		src := 1 + rng.IntN(len(want)-1)
		if !s.Session(src, 3) {
			continue
		}
		q := s.route(src)
		for _, k := range q.Relays() {
			want[src] += q.Payments[k] * 3
		}
	}
	for v := range want {
		if math.Float64bits(s.PaidOut[v]) != math.Float64bits(want[v]) {
			t.Errorf("node %d paid out %v, path-order fold %v", v, s.PaidOut[v], want[v])
		}
	}
}

func TestBatteryDeathAndRerouting(t *testing.T) {
	// Two parallel relays between 3 and 0: cheap 1, expensive 2.
	g := graph.NewLinkGraph(4)
	g.AddArc(3, 1, 1)
	g.AddArc(1, 0, 1)
	g.AddArc(3, 2, 2)
	g.AddArc(2, 0, 2)
	s := New(g, 0, Altruistic, 3.5)
	// Each session: node 1 relays 1 unit. After 3 sessions node 1's
	// battery hits 0.5; a 4th kills it (exactly 0 → dead).
	for i := 0; i < 4; i++ {
		if !s.Session(3, 1) {
			t.Fatalf("session %d blocked early", i)
		}
	}
	if s.Alive(1) {
		t.Fatalf("relay 1 should be dead (battery %v)", s.Battery[1])
	}
	if s.FirstDeath < 0 {
		t.Error("FirstDeath not recorded")
	}
	if s.AliveCount() != 2 { // nodes 2 and 3 (node 3 spent 4 of 3.5?)
		// node 3 spent 1 per session = 4 total > 3.5: it is dead too.
		if s.AliveCount() != 1 {
			t.Errorf("alive = %d", s.AliveCount())
		}
	}
	// Node 2's route to AP still works if it is alive.
	if s.Alive(2) && !s.Session(2, 1) {
		t.Error("surviving relay cannot send")
	}
}

func TestSessionValidation(t *testing.T) {
	s := New(line(), 0, Altruistic, 10)
	defer func() {
		if recover() == nil {
			t.Error("no panic on zero packets")
		}
	}()
	s.Session(1, 0)
}

func TestPolicyString(t *testing.T) {
	if Altruistic.String() != "altruistic" || Selfish.String() != "selfish" ||
		Compensated.String() != "compensated" || Policy(9).String() == "" {
		t.Error("policy strings broken")
	}
}

func TestHops(t *testing.T) {
	s := New(line(), 0, Altruistic, 10)
	h := s.Hops()
	want := []int{0, 1, 2, 3}
	for i, w := range want {
		if h[i] != w {
			t.Errorf("hops[%d] = %d, want %d", i, h[i], w)
		}
	}
}

// Hops returns the unweighted hop distance of every node to the
// access point on the *initial* topology (for reporting).
func (s *Sim) Hops() []int {
	und := s.g.Symmetrized(make([]float64, s.g.N()))
	return sp.HopDistances(und, s.dest)
}
