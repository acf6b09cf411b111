package dist

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"truthroute/internal/core"
	"truthroute/internal/graph"
)

// checkPricesExact compares every node's converged prices with the
// centralized VCG quote at the acceptance tolerance for fault runs
// (1e-9 — the ARQ layer must not merely approximate the payments).
func checkPricesExact(t *testing.T, g *graph.NodeGraph, net *Network) {
	t.Helper()
	for i := 1; i < g.N(); i++ {
		q, err := core.UnicastQuote(g, i, 0, core.EngineNaive)
		if err != nil {
			t.Fatalf("centralized quote for %d: %v", i, err)
		}
		st := net.States()[i].Prices
		if len(st) != len(q.Payments) {
			t.Fatalf("node %d: %d entries, centralized %d (%v vs %v)",
				i, len(st), len(q.Payments), st, q.Payments)
		}
		for k, want := range q.Payments {
			got, ok := st[k]
			if !ok {
				t.Fatalf("node %d: missing entry for relay %d", i, k)
			}
			scale := math.Max(1, math.Abs(want))
			if math.Abs(got-want) > 1e-9*scale {
				t.Fatalf("node %d: p^%d = %v, want %v", i, k, got, want)
			}
		}
	}
}

// crashPlanFor derives a deterministic crash/recover schedule of
// count events over non-destination nodes.
func crashPlanFor(n, count int, rng *rand.Rand) []CrashEvent {
	used := map[int]bool{}
	var out []CrashEvent
	for len(out) < count && len(used) < n-1 {
		v := 1 + rng.IntN(n-1)
		if used[v] {
			continue
		}
		used[v] = true
		at := 3 + rng.IntN(10)
		out = append(out, CrashEvent{Node: v, At: at, Recover: at + 5 + rng.IntN(15)})
	}
	return out
}

// TestQuickLossyDistributedMatchesCentralized is the headline
// acceptance check: with 10% i.i.d. frame loss and a crash/recover
// event, honest networks still converge to the exact centralized VCG
// payments with zero accusations of any kind.
func TestQuickLossyDistributedMatchesCentralized(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 90))
		n := 4 + rng.IntN(12)
		g := graph.RandomBiconnected(n, 0.25, rng)
		g.RandomizeCosts(0.5, 4, rng)
		net := NewNetwork(g, 0, nil)
		net.SetFaults(&FaultPlan{
			Seed:    seed,
			Loss:    0.10,
			Crashes: crashPlanFor(n, 1, rng),
		})
		s1, s2, converged := net.RunProtocol(4000)
		if !converged {
			t.Logf("seed %d: no quiescence (stage1=%d stage2=%d)", seed, s1, s2)
			return false
		}
		if len(net.Log) != 0 {
			t.Logf("seed %d: false accusations %v (faults: %s)", seed, net.Log, net.FaultStats)
			return false
		}
		if net.FaultStats.DroppedData() > 0 && net.FaultStats.Retransmissions == 0 {
			t.Logf("seed %d: frames were dropped but never repaired", seed)
			return false
		}
		for i := 1; i < n; i++ {
			q, err := core.UnicastQuote(g, i, 0, core.EngineNaive)
			if err != nil {
				return false
			}
			st := net.States()[i].Prices
			if len(st) != len(q.Payments) {
				t.Logf("seed %d node %d: entries %v vs %v", seed, i, st, q.Payments)
				return false
			}
			for k, want := range q.Payments {
				got, ok := st[k]
				if !ok || math.Abs(got-want) > 1e-9*math.Max(1, math.Abs(want)) {
					t.Logf("seed %d node %d: p^%d = %v want %v", seed, i, k, got, want)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestLosslessFaultPlanAddsNothing: installing a fault plan that
// never drops anything must be invisible — identical round counts,
// identical message counts, zero retransmissions, zero duplicate
// deliveries, zero accusations, identical states. This pins the
// "at loss = 0 the ARQ layer adds no extra rounds and no duplicate
// deliveries" acceptance criterion.
func TestLosslessFaultPlanAddsNothing(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 91))
	g := graph.RandomBiconnected(18, 0.2, rng)
	g.RandomizeCosts(0.5, 4, rng)

	plain := NewNetwork(g, 0, nil)
	p1, p2, pc := plain.RunProtocol(2000)

	arq := NewNetwork(g, 0, nil)
	arq.SetFaults(&FaultPlan{Seed: 1})
	a1, a2, ac := arq.RunProtocol(2000)

	if !pc || !ac {
		t.Fatal("honest lossless run did not quiesce")
	}
	if p1 != a1 || p2 != a2 {
		t.Errorf("round counts differ: plain (%d,%d) vs ARQ (%d,%d)", p1, p2, a1, a2)
	}
	if plain.Messages != arq.Messages {
		t.Errorf("message counts differ: plain %d vs ARQ %d", plain.Messages, arq.Messages)
	}
	if s := arq.FaultStats; s != (FaultStats{}) {
		t.Errorf("lossless plan produced fault activity: %s", s)
	}
	if len(arq.Log) != 0 {
		t.Errorf("accusations under lossless plan: %v", arq.Log)
	}
	for i := range plain.States() {
		a, b := plain.States()[i], arq.States()[i]
		if !almostEqual(a.D, b.D) || len(a.Prices) != len(b.Prices) {
			t.Errorf("node %d state diverged under the lossless plan", i)
		}
	}
}

// TestHonestRunsZeroRetransmissions: the regression half of the
// satellite — an honest run over a reliable channel never touches
// the repair machinery even with the plan installed and loss-free
// crash handling exercised elsewhere.
func TestHonestRunsZeroRetransmissions(t *testing.T) {
	net := NewNetwork(graph.Figure4(), 0, nil)
	net.SetFaults(&FaultPlan{Seed: 7})
	_, _, converged := net.RunProtocol(2000)
	if !converged {
		t.Fatal("no quiescence")
	}
	if net.FaultStats.Retransmissions != 0 || net.FaultStats.DupDropped != 0 {
		t.Errorf("lossless honest run repaired something: %s", net.FaultStats)
	}
	if len(net.Log) != 0 {
		t.Errorf("accusations: %v", net.Log)
	}
	checkPricesExact(t, graph.Figure4(), net)
}

// TestReDeclareOnLossyAsyncNetwork combines the three hard modes: a
// mid-run cost change on an async network with 5% frame loss must
// reconverge to the centralized payments of the new declaration with
// no accusations.
func TestReDeclareOnLossyAsyncNetwork(t *testing.T) {
	rng := rand.New(rand.NewPCG(23, 92))
	g := graph.RandomBiconnected(14, 0.2, rng)
	g.RandomizeCosts(0.5, 4, rng)
	net := NewNetwork(g, 0, nil)
	net.SetAsync(3, 23)
	net.SetFaults(&FaultPlan{Seed: 23, Loss: 0.05})
	if _, _, converged := net.RunProtocol(6000); !converged {
		t.Fatal("initial run did not quiesce")
	}
	checkPricesExact(t, g, net)

	// Raise one relay's declared cost (the hard direction: increases
	// propagate through authoritative corrections) and reconverge.
	v := 1 + rng.IntN(g.N()-1)
	net.ReDeclare(v, g.Cost(v)*2+1)
	if _, _, converged := net.RunProtocol(6000); !converged {
		t.Fatal("re-declared run did not quiesce")
	}
	if len(net.Log) != 0 {
		t.Fatalf("accusations on honest lossy re-declare: %v (faults: %s)", net.Log, net.FaultStats)
	}
	checkPricesExact(t, g, net)
}

// TestCrashRecoverConverges: two mid-run crash/recover events (loss
// free, so the crash machinery is isolated) still end in the exact
// centralized payments with no accusations.
func TestCrashRecoverConverges(t *testing.T) {
	g := graph.Figure4()
	net := NewNetwork(g, 0, nil)
	net.SetFaults(&FaultPlan{Seed: 3, Crashes: []CrashEvent{
		{Node: 5, At: 4, Recover: 12},
		{Node: 4, At: 6, Recover: 20},
	}})
	if _, _, converged := net.RunProtocol(4000); !converged {
		t.Fatal("no quiescence")
	}
	if len(net.Log) != 0 {
		t.Fatalf("accusations: %v", net.Log)
	}
	checkPricesExact(t, g, net)
}

// TestBurstLossConverges: Gilbert–Elliott burst loss (bad-state
// bursts dropping most frames) is repaired like i.i.d. loss.
func TestBurstLossConverges(t *testing.T) {
	rng := rand.New(rand.NewPCG(31, 93))
	g := graph.RandomBiconnected(12, 0.25, rng)
	g.RandomizeCosts(0.5, 4, rng)
	net := NewNetwork(g, 0, nil)
	net.SetFaults(&FaultPlan{Seed: 31, Burst: &GilbertElliott{
		PGoodBad: 0.05, PBadGood: 0.3, LossGood: 0.01, LossBad: 0.7,
	}})
	if _, _, converged := net.RunProtocol(6000); !converged {
		t.Fatal("no quiescence under burst loss")
	}
	if len(net.Log) != 0 {
		t.Fatalf("accusations: %v (faults: %s)", net.Log, net.FaultStats)
	}
	if net.FaultStats.DroppedData() == 0 {
		t.Error("burst plan dropped nothing; the channel model is not engaged")
	}
	checkPricesExact(t, g, net)
}

// TestDuplicationSuppressed: with duplication but no loss, every
// spurious copy is discarded by receive-side dedup and the protocol
// outcome is unchanged.
func TestDuplicationSuppressed(t *testing.T) {
	g := graph.Figure2()
	net := NewNetwork(g, 0, nil)
	net.SetFaults(&FaultPlan{Seed: 5, Dup: 0.3})
	if _, _, converged := net.RunProtocol(2000); !converged {
		t.Fatal("no quiescence")
	}
	s := net.FaultStats
	if s.DupInjected == 0 {
		t.Fatal("duplication plan injected nothing")
	}
	if s.DupDropped != s.DupInjected {
		t.Errorf("injected %d duplicates, discarded %d", s.DupInjected, s.DupDropped)
	}
	if len(net.Log) != 0 {
		t.Errorf("accusations: %v", net.Log)
	}
	checkPricesExact(t, g, net)
}

// TestFaultDeterminism: the same seed replays the same run
// bit-for-bit — rounds, messages, fault activity and states.
func TestFaultDeterminism(t *testing.T) {
	run := func() (*Network, int, int) {
		rng := rand.New(rand.NewPCG(47, 94))
		g := graph.RandomBiconnected(15, 0.2, rng)
		g.RandomizeCosts(0.5, 4, rng)
		net := NewNetwork(g, 0, nil)
		net.SetAsync(2, 47)
		net.SetFaults(&FaultPlan{Seed: 47, Loss: 0.1, Dup: 0.05,
			Crashes: []CrashEvent{{Node: 3, At: 5, Recover: 14}}})
		s1, s2, converged := net.RunProtocol(6000)
		if !converged {
			t.Fatal("no quiescence")
		}
		return net, s1, s2
	}
	a, a1, a2 := run()
	b, b1, b2 := run()
	if a1 != b1 || a2 != b2 || a.Messages != b.Messages || a.FaultStats != b.FaultStats {
		t.Fatalf("replay diverged: (%d,%d,%d,%+v) vs (%d,%d,%d,%+v)",
			a1, a2, a.Messages, a.FaultStats, b1, b2, b.Messages, b.FaultStats)
	}
	for i := range a.States() {
		if !almostEqual(a.States()[i].D, b.States()[i].D) {
			t.Fatalf("node %d distance diverged on replay", i)
		}
	}
}

// TestSetFaultsAfterRunPanics / TestSetAsyncAfterRunPanics: both
// knobs rewire the delivery bookkeeping and must refuse to be set
// once traffic exists.
func TestSetFaultsAfterRunPanics(t *testing.T) {
	net := NewNetwork(graph.Figure2(), 0, nil)
	net.RunRound()
	defer func() {
		if recover() == nil {
			t.Error("SetFaults after the first round did not panic")
		}
	}()
	net.SetFaults(&FaultPlan{Seed: 1, Loss: 0.1})
}

func TestSetAsyncAfterRunPanics(t *testing.T) {
	net := NewNetwork(graph.Figure2(), 0, nil)
	net.RunRound()
	defer func() {
		if recover() == nil {
			t.Error("SetAsync after the first round did not panic")
		}
	}()
	net.SetAsync(3, 1)
}

// TestFaultPlanValidation: malformed plans are rejected loudly.
func TestFaultPlanValidation(t *testing.T) {
	bad := []*FaultPlan{
		{Loss: 1.2},
		{Dup: -0.1},
		{Burst: &GilbertElliott{PGoodBad: 2}},
		{Crashes: []CrashEvent{{Node: 99, At: 3, Recover: 9}}},
		{Crashes: []CrashEvent{{Node: 0, At: 3, Recover: 9}}}, // the access point
		{Crashes: []CrashEvent{{Node: 1, At: 0, Recover: 9}}},
		{Crashes: []CrashEvent{{Node: 1, At: 5, Recover: 5}}},
	}
	for i, plan := range bad {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("plan %d accepted: %+v", i, plan)
				}
			}()
			NewNetwork(graph.Figure2(), 0, nil).SetFaults(plan)
		}()
	}
}

// rogue sends one message to a non-neighbour (and one out of range):
// the satellite requires this to be a recorded violation, not a
// simulator crash.
type rogue struct {
	HonestNode
	Target int
	sent   bool
}

func (r *rogue) Step(round int, inbox []Message) []Message {
	out := r.HonestNode.Step(round, inbox)
	if !r.sent {
		r.sent = true
		out = append(out,
			Message{From: r.self, To: r.Target, SPT: &SPTAnnounce{D: 0, FH: -1}},
			Message{From: r.self, To: 9999, SPT: &SPTAnnounce{D: 0, FH: -1}},
		)
	}
	return out
}

func TestNonNeighbourSendRecorded(t *testing.T) {
	g := graph.Figure2()
	// Find a non-neighbour of node 1.
	target := -1
	for v := 2; v < g.N(); v++ {
		if !g.HasEdge(1, v) {
			target = v
			break
		}
	}
	if target < 0 {
		t.Fatal("node 1 is adjacent to everyone; pick another fixture")
	}
	behaviors := make([]Behavior, g.N())
	behaviors[1] = &rogue{Target: target}
	net := NewNetwork(g, 0, behaviors)
	if _, _, converged := net.RunProtocol(2000); !converged {
		t.Fatal("no quiescence")
	}
	if net.Violations != 2 {
		t.Fatalf("Violations = %d, want 2", net.Violations)
	}
	found := false
	for _, a := range net.Log {
		if a.Offender == 1 {
			found = true
		}
	}
	if !found {
		t.Errorf("no violation entry for node 1 in log: %v", net.Log)
	}
}

// TestRunReportsNonConvergence: a node that crashes and never comes
// back keeps its neighbours correcting forever; Run must report that
// honestly instead of presenting the capped state as converged.
func TestRunReportsNonConvergence(t *testing.T) {
	g := graph.Figure2()
	net := NewNetwork(g, 0, nil)
	net.SetFaults(&FaultPlan{Seed: 9, Crashes: []CrashEvent{{Node: 4, At: 2, Recover: -1}}})
	if _, converged := net.Run(300); converged {
		t.Fatal("Run reported convergence with a dead node still being corrected")
	}
}

// DroppedData is the total number of lost data frames.
func (s FaultStats) DroppedData() int {
	return s.DroppedSPT + s.DroppedPrice + s.DroppedCorrect
}
