package main

import (
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"truthroute/internal/core"
	"truthroute/internal/graph"
	"truthroute/internal/serve"
	"truthroute/internal/wireless"
)

// The overpay-sweep instance batch: the paper's Figure-3 sizes, with a
// fixed number of seeded deployments per size. Every deployment yields
// both of the paper's cost models.
var sweepSizes = []int{100, 200, 300, 400, 500}

const (
	sweepPerSize = 16
	sweepWorkers = 2
	// sweepChecks is how many sources per instance and model are
	// re-quoted one at a time and compared after the timed phase.
	sweepChecks = 3
	// sweepSetups is how many times a run generates the batch to time
	// set-up; the median is reported.
	sweepSetups = 9
)

// instance is one deployment in both cost models: continuous U[1,10)
// node costs (§II.B) and path-loss link costs with κ=2 (§III.F).
type instance struct {
	n    int
	node *graph.NodeGraph
	link *graph.LinkGraph
}

// sweepBatch draws the batch size-interleaved (100, 200, …, 500, 100,
// …), so any prefix a timed window covers has the same size mix.
func sweepBatch(seed uint64) []instance {
	var out []instance
	for k := 0; k < sweepPerSize; k++ {
		for si, n := range sweepSizes {
			rng := rand.New(rand.NewPCG(seed, streamSweep<<32|uint64(si)<<16|uint64(k)))
			dep := deploy(n, rng)
			out = append(out, instance{
				n:    n,
				node: dep.NodeCostUDG(1, 10, rng),
				// Distances in thirds of the range, as the Figure-3
				// campaigns scale them.
				link: dep.LinkGraph(wireless.PathLoss{Kappa: 2, Unit: radioRange / 3}),
			})
		}
	}
	return out
}

// solved keeps the timed phase's quotes for an instance's sampled
// sources, the ones re-quoted by the single-source engines afterwards.
type solved struct {
	srcs       []int
	node, link []*core.Quote
}

// sweep runs the offline Figure-3 computation: every source of every
// instance quoted to the access point by the all-sources engines on
// sweepWorkers goroutines, then the re-solve-after-drift probe.
func sweep(env *runEnv) (*outcome, error) {
	out := newOutcome()
	var setups []float64
	var batch []instance
	for k := 0; k < sweepSetups; k++ {
		began := time.Now()
		batch = sweepBatch(env.seed)
		setups = append(setups, time.Since(began).Seconds())
	}
	out.metric("setup_s", median(setups), "s")

	var trc *traceRun
	if env.trace {
		trc = newTraceRun(env)
	}
	sweepWin := time.Duration(float64(env.seconds) * 0.7 * float64(time.Second))
	driftWin := time.Duration(float64(env.seconds) * 0.2 * float64(time.Second))
	if env.trace {
		sweepWin /= 2
		driftWin /= 2
	}

	rng := rand.New(rand.NewPCG(env.seed, streamSweep<<32|0xffff))
	results := make([]solved, len(batch))
	for i, inst := range batch {
		for k := 0; k < sweepChecks; k++ {
			results[i].srcs = append(results[i].srcs, 1+rng.IntN(inst.n-1))
		}
	}
	// lat holds the latency (µs) of every solve in the window — one
	// instance's AllUnicastQuotes plus AllLinkQuotes, all its sources at
	// once, the unit a Figure-3 point is built from — and quotes the
	// source quotes those solves produced.
	var (
		mu     sync.Mutex
		next   atomic.Int64
		wg     sync.WaitGroup
		lat    []float64
		quotes int
	)
	start := time.Now()
	end := start.Add(sweepWin)
	for w := 0; w < sweepWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(end) {
				i := int(next.Add(1)-1) % len(batch)
				inst := &batch[i]
				t0 := time.Now()
				qn := core.AllUnicastQuotes(inst.node, accessPt)
				t1 := time.Now()
				ql := core.AllLinkQuotes(inst.link, accessPt)
				t2 := time.Now()
				mu.Lock()
				lat = append(lat, micros(t2.Sub(t0)))
				quotes += countQuotes(qn) + countQuotes(ql)
				r := &results[i]
				r.node, r.link = r.node[:0], r.link[:0]
				for _, s := range r.srcs {
					r.node = append(r.node, qn[s])
					r.link = append(r.link, ql[s])
				}
				if trc != nil {
					trc.add("core.AllUnicastQuotes", 0, int64(i), t0, t1, inst.n)
					trc.add("core.AllLinkQuotes", 0, int64(i), t1, t2, inst.n)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	out.count(quotes, 0, nil)

	// Correctness: sampled sources re-quoted one at a time by the
	// single-source engines must agree with the batch engines within
	// 1e-9 relative.
	checked := 0
	for i, inst := range batch {
		r := results[i]
		if r.node == nil {
			out.count(1, 1, []error{fmt.Errorf("instance %d was never solved in the timed phase", i)})
			continue
		}
		for k, s := range r.srcs {
			checked += 2
			want, err := core.UnicastQuote(inst.node, s, accessPt, core.EngineFast)
			out.count(1, boolInt(!agrees(r.node[k], want, err)), mismatch("node", inst.n, s, r.node[k], want, err))
			lwant, err := core.LinkQuote(inst.link, s, accessPt)
			out.count(1, boolInt(!agrees(r.link[k], lwant, err)), mismatch("link", inst.n, s, r.link[k], lwant, err))
		}
	}

	// Drift probe: the offline twin of a cost update — re-price eight
	// nodes of an n=300 instance and re-solve every source. Worker w
	// drifts every sweepWorkers-th n=300 instance in turn, each along its
	// own seeded chain, so the figure averages over instances.
	var drifted []int
	for i, in := range batch {
		if in.n == 300 {
			drifted = append(drifted, i)
		}
	}
	var driftLat []float64
	driftEnd := time.Now().Add(driftWin)
	for w := 0; w < sweepWorkers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var mine []*graph.NodeGraph
			var chains [][][]serve.CostUpdate
			for k := w; k < len(drifted); k += sweepWorkers {
				g := batch[drifted[k]].node
				mine = append(mine, g)
				chains = append(chains, driftBatches(env.seed, uint64(k), g.N(), 1<<11))
			}
			last := make([][]*core.Quote, len(mine))
			var lat []float64
			for i := 0; time.Now().Before(driftEnd) && i < len(mine)*len(chains[0]); i++ {
				k := i % len(mine)
				t0 := time.Now()
				mine[k] = mine[k].WithCosts(applyBatch(mine[k].Costs(), chains[k][i/len(mine)]))
				last[k] = core.AllUnicastQuotes(mine[k], accessPt)
				lat = append(lat, micros(time.Since(t0)))
			}
			fails, errs := 0, []error(nil)
			for k, g := range mine {
				if last[k] == nil {
					continue
				}
				s := 1 + driftCheckRNG(env.seed, w, k).IntN(g.N()-1)
				want, err := core.UnicastQuote(g, s, accessPt, core.EngineFast)
				fails += boolInt(!agrees(last[k][s], want, err))
				errs = append(errs, mismatch("drift", g.N(), s, last[k][s], want, err)...)
				out.count(1, 0, nil)
			}
			out.count(len(lat), fails, errs)
			mu.Lock()
			driftLat = append(driftLat, lat...)
			mu.Unlock()
		}(w)
	}
	wg.Wait()

	rss, err := peakRSS(os.Getpid())
	if err != nil {
		return nil, err
	}
	out.metric("quote_qps", float64(quotes)/elapsed.Seconds(), "1/s")
	out.metric("quote_p50_us", quantileOf(lat, 0.50), "us")
	out.metric("quote_p99_us", quantileOf(lat, 0.99), "us")
	out.metric("update_p50_us", quantileOf(driftLat, 0.50), "us")
	out.metric("update_p99_us", quantileOf(driftLat, 0.99), "us")
	out.metric("rss_mb", rss, "MB")
	out.note("sweep: %d instances solved %d times (%d source quotes) on %d goroutines in %.2fs; %d drift re-solves; %d sampled sources re-quoted",
		len(batch), len(lat), quotes, sweepWorkers, elapsed.Seconds(), len(driftLat), checked)

	if trc != nil {
		trc.sweepLayers()
		base := batch[drifted[0]].node
		drift := driftBatches(env.seed, 0, base.N(), 500)
		trc.replay(base, quoteSources(env.seed, base.N(), 1<<16), drift, false, nil)
		topo := filepath.Join(env.work, "instance300.json")
		if err := writeTopology(topo, base); err != nil {
			return nil, err
		}
		trc.offlineLayers(topo, base, drift)
		trc.layer("quote_fail_pct", out.failPct(), "%")
		if err := trc.finish(out); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// driftBatches draws continuous-cost drift for the sweep's re-solve
// probe: updateSize nodes per batch, new costs from U[1,10).
func driftBatches(seed, chain uint64, n, count int) [][]serve.CostUpdate {
	rng := rand.New(rand.NewPCG(seed, streamUpdates<<32|1<<16|chain))
	out := make([][]serve.CostUpdate, count)
	for i := range out {
		b := make([]serve.CostUpdate, updateSize)
		for j := range b {
			b[j] = serve.CostUpdate{Node: 1 + rng.IntN(n-1), Cost: 1 + 9*rng.Float64()}
		}
		out[i] = b
	}
	return out
}

// driftCheckRNG is the stream for drift worker w's k-th correctness
// sample.
func driftCheckRNG(seed uint64, w, k int) *rand.Rand {
	return rand.New(rand.NewPCG(seed, streamSweep<<32|0xfff0|uint64(w)<<8|uint64(k)))
}

func countQuotes(qs []*core.Quote) int {
	c := 0
	for _, q := range qs {
		if q != nil {
			c++
		}
	}
	return c
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// agrees reports whether a batch-engine quote matches the single-source
// reference: same reachability, same path, and cost and every payment
// within 1e-9 relative (+Inf monopoly payments must match exactly).
func agrees(got, want *core.Quote, wantErr error) bool {
	if wantErr != nil || want == nil {
		return got == nil
	}
	if got == nil || !slices.Equal(got.Path, want.Path) || !close9(got.Cost, want.Cost) || len(got.Payments) != len(want.Payments) {
		return false
	}
	for k, p := range want.Payments {
		g, ok := got.Payments[k]
		if !ok || !close9(g, p) {
			return false
		}
	}
	return true
}

func close9(a, b float64) bool {
	if math.IsInf(a, 0) || math.IsInf(b, 0) {
		return a == b
	}
	return math.Abs(a-b) <= 1e-9*math.Max(math.Abs(a), math.Abs(b))
}

func mismatch(model string, n, s int, got, want *core.Quote, err error) []error {
	if agrees(got, want, err) {
		return nil
	}
	return []error{fmt.Errorf("%s model, n=%d, source %d: batch engine %v, single-source engine %v (err %v)", model, n, s, got, want, err)}
}
