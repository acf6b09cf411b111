package oracle

import (
	"math"
	"math/rand/v2"
	"runtime"
	"sync"

	"truthroute/internal/dist"
	"truthroute/internal/graph"
	"truthroute/internal/wireless"
)

// SoakOptions configures a randomized campaign: Topologies instances
// drawn from six families (biconnected, Erdős–Rényi, grid, wireless
// UDG, ring, quantized-cost), each swept through CheckInstance with
// every centralized invariant enabled; every DistEvery-th instance
// additionally runs the distributed protocol, and every FaultEvery-th
// of those runs it under a randomized seeded fault plan. All draws
// derive from (Seed, instance index), so a campaign replays
// bit-for-bit and any counterexample is reproducible from its index.
type SoakOptions struct {
	Topologies int
	// MaxN bounds instance sizes for the centralized engines;
	// DistMaxN (default 20) separately bounds the slower distributed
	// runs.
	MaxN     int
	DistMaxN int
	Seed     uint64
	// DistEvery runs Algorithm 2 on every k-th topology (0 = never);
	// FaultEvery faults every k-th of those distributed runs.
	DistEvery  int
	FaultEvery int
	// MaxSources caps per-topology source coverage (default 32).
	MaxSources int
	// MaxCounterexamples bounds how many violations are minimized
	// into counterexample dumps (default 5); the full violation list
	// is always reported.
	MaxCounterexamples int
}

func (o SoakOptions) withDefaults() SoakOptions {
	if o.Topologies == 0 {
		o.Topologies = 500
	}
	if o.MaxN == 0 {
		o.MaxN = 128
	}
	if o.DistMaxN == 0 {
		o.DistMaxN = 20
	}
	if o.MaxSources == 0 {
		o.MaxSources = 32
	}
	if o.MaxCounterexamples == 0 {
		o.MaxCounterexamples = 5
	}
	return o
}

// Counterexample is one minimized failing topology: feed the graph's
// JSON to paytool (paytool -graph <file> -s <source> -t <dest>) to
// replay the disagreement by hand.
type Counterexample struct {
	// Topology is the campaign instance index; with the campaign
	// Seed it regenerates the unminimized instance.
	Topology  int
	Dest      int
	Violation Violation
	Graph     *graph.NodeGraph
}

// Report is the campaign outcome: per-invariant assertion and skip
// counters plus every violation, with up to MaxCounterexamples of
// them shrunk to minimal witnesses.
type Report struct {
	Topologies      int
	Result          *Result
	Counterexamples []Counterexample
}

// Soak runs the campaign across all CPUs. Instances are independent
// and index-seeded, so the parallel schedule cannot change any
// result.
func Soak(opt SoakOptions) *Report {
	opt = opt.withDefaults()
	type failure struct {
		g    *graph.NodeGraph
		copt Options
	}
	results := make([]*Result, opt.Topologies)
	failures := make([]*failure, opt.Topologies)
	soakEach(opt.Topologies, func(i int) {
		g, copt := soakInstance(opt, i)
		res := CheckInstance(g, 0, copt)
		results[i] = res
		if !res.OK() {
			failures[i] = &failure{g: g, copt: copt}
		}
	})
	rep := &Report{Topologies: opt.Topologies, Result: newResult()}
	for _, r := range results {
		rep.Result.Merge(r)
	}
	for i, f := range failures {
		if f == nil || len(rep.Counterexamples) >= opt.MaxCounterexamples {
			continue
		}
		v := results[i].Violations[0]
		min, mv, ok := Minimize(f.g, 0, f.copt, v.Check)
		if !ok {
			min, mv = f.g, v
		}
		rep.Counterexamples = append(rep.Counterexamples, Counterexample{
			Topology: i, Dest: 0, Violation: mv, Graph: min})
	}
	return rep
}

// soakInstance draws topology i and its check configuration. The
// distributed slots use smaller biconnected graphs (the protocol's
// operating assumption, as in the loss campaign); the rest rotate
// through families that exercise disconnection, monopolists,
// zero-cost relays and tied paths.
func soakInstance(opt SoakOptions, i int) (*graph.NodeGraph, Options) {
	rng := rand.New(rand.NewPCG(opt.Seed, uint64(i)))
	copt := Options{
		Truthfulness: true,
		Metamorphic:  true,
		MaxSources:   opt.MaxSources,
		Seed:         opt.Seed ^ (uint64(i) * 0x9e3779b97f4a7c15),
	}
	if opt.DistEvery > 0 && i%opt.DistEvery == 0 {
		n := 6 + rng.IntN(opt.DistMaxN-5)
		g := graph.RandomBiconnected(n, 0.15+0.2*rng.Float64(), rng)
		g.RandomizeCosts(0.5, 4, rng)
		copt.Distributed = true
		if opt.FaultEvery > 0 && (i/opt.DistEvery)%opt.FaultEvery == 0 {
			copt.Faults = &dist.FaultPlan{
				Seed:    opt.Seed ^ uint64(i)<<16,
				Loss:    0.02 + 0.1*rng.Float64(),
				Dup:     0.02,
				Crashes: soakCrashes(n, 1+rng.IntN(2), rng),
			}
		}
		return g, copt
	}
	n := 4 + rng.IntN(opt.MaxN-3)
	var g *graph.NodeGraph
	switch i % 6 {
	case 0:
		g = graph.RandomBiconnected(n, 0.1+0.3*rng.Float64(), rng)
		g.RandomizeCosts(0.1, 8, rng)
	case 1:
		// Sparse Erdős–Rényi near the connectivity threshold: many
		// instances are disconnected, exercising unreachable-source
		// agreement.
		g = graph.ErdosRenyi(n, math.Min(1, (1.5+2*rng.Float64())/float64(n)), rng)
		g.RandomizeCosts(0.1, 8, rng)
	case 2:
		rows := 2 + rng.IntN(6)
		cols := max(2, n/rows)
		g = graph.Grid(rows, cols)
		g.RandomizeCosts(0.1, 8, rng)
	case 3:
		d := wireless.PlaceUniform(n, 1000, 250+150*rng.Float64(), rng)
		g = d.NodeCostUDG(1, 10, rng)
	case 4:
		// Rings: exactly two vertex-disjoint routes, so every relay's
		// replacement path is the whole other side — large, exactly
		// checkable payments.
		g = graph.Ring(n)
		g.RandomizeCosts(0.1, 8, rng)
	default:
		// Quantized integer costs with zeros: dense ties and
		// zero-cost relays, where the fast and batch engines are held
		// bitwise to the naive one.
		g = graph.ErdosRenyi(n, math.Min(1, (2+2*rng.Float64())/float64(n)), rng)
		for v := 0; v < g.N(); v++ {
			g.SetCost(v, float64(rng.IntN(6)))
		}
	}
	return g, copt
}

// soakCrashes mirrors the loss campaign's schedule: count distinct
// non-destination nodes crash early in stage 1 and recover a bounded
// number of rounds later.
func soakCrashes(n, count int, rng *rand.Rand) []dist.CrashEvent {
	used := map[int]bool{}
	var out []dist.CrashEvent
	for len(out) < count && len(used) < n-1 {
		v := 1 + rng.IntN(n-1)
		if used[v] {
			continue
		}
		used[v] = true
		at := 3 + rng.IntN(10)
		out = append(out, dist.CrashEvent{Node: v, At: at, Recover: at + 5 + rng.IntN(15)})
	}
	return out
}

// soakEach is the campaign's worker pool (the experiment package has
// its own; importing it here would be a cycle). Index-addressed
// writes keep parallel runs bit-identical to sequential ones.
func soakEach(n int, fn func(i int)) {
	workers := min(runtime.GOMAXPROCS(0), n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var wg sync.WaitGroup
	work := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		work <- i
	}
	close(work)
	wg.Wait()
}
