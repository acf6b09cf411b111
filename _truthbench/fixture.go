package main

import (
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"os"

	"truthroute/internal/graph"
	"truthroute/internal/serve"
	"truthroute/internal/wireless"
)

// The fixture family: paper-style unit-disk deployments (§III.G) —
// nodes uniform in a 2000 m square, common 300 m radio range, node 0
// the access point every quote is routed to.
const (
	regionSide = 2000.0
	radioRange = 300.0
	accessPt   = 0
	servingN   = 300
	// updateSize is the number of cost changes in one /update batch.
	updateSize = 8
)

// PCG stream ids, one per independent draw from the workload seed, so
// that changing how much one stream consumes never shifts another.
const (
	streamTopology = iota + 1
	streamQuotes
	streamUpdates
	streamSweep
)

// deploy scatters n nodes uniformly in the region and relabels the node
// nearest the region's centre as 0, the access point: a deployed access
// point sits inside its coverage area. With a random one the seed, not
// the program, would decide whether paths to it are four hops long or
// eight, and with them the cost of every quote.
func deploy(n int, rng *rand.Rand) *wireless.Deployment {
	dep := wireless.PlaceUniform(n, regionSide, radioRange, rng)
	centre := wireless.Point{X: regionSide / 2, Y: regionSide / 2}
	ap := 0
	for v := range dep.Pos {
		if dep.Pos[v].Dist(centre) < dep.Pos[ap].Dist(centre) {
			ap = v
		}
	}
	dep.Pos[0], dep.Pos[ap] = dep.Pos[ap], dep.Pos[0]
	return dep
}

// servingFixture draws the serving workloads' topology: one connected
// n=300 UDG whose declared costs are quarter units in [1,10], the
// fixed-point regime graph.CostQuantum accepts. Disconnected draws are
// rejected and redrawn from the next attempt's stream, so the result
// is a pure function of seed.
func servingFixture(seed uint64) *graph.NodeGraph {
	for attempt := uint64(0); ; attempt++ {
		rng := rand.New(rand.NewPCG(seed, streamTopology<<32|attempt))
		g := deploy(servingN, rng).UDG()
		if !g.Connected() {
			continue
		}
		for v := 0; v < g.N(); v++ {
			g.SetCost(v, quarterCost(rng))
		}
		return g
	}
}

// quarterCost draws a declared cost uniformly from {1, 1.25, …, 10}.
func quarterCost(rng *rand.Rand) float64 { return 1 + float64(rng.IntN(37))/4 }

// quoteSources draws count quote sources, every one asking for its
// route to the access point (the paper's traffic): back-to-back seeded
// shuffles of the non-AP nodes, so each source is equally likely and
// none repeats within n−1 consecutive quotes. Under churn that keeps a
// repeat inside one epoch — a memo hit — from depending on how fast
// the program quotes.
func quoteSources(seed uint64, n, count int) []uint32 {
	rng := rand.New(rand.NewPCG(seed, streamQuotes<<32))
	out := make([]uint32, 0, count+n)
	for len(out) < count {
		for _, v := range rng.Perm(n - 1) {
			out = append(out, uint32(1+v))
		}
	}
	return out[:count]
}

// updateBatches draws count cost-drift batches of updateSize
// quarter-unit changes each, on non-AP nodes.
func updateBatches(seed uint64, n, count int) [][]serve.CostUpdate {
	rng := rand.New(rand.NewPCG(seed, streamUpdates<<32))
	out := make([][]serve.CostUpdate, count)
	for i := range out {
		b := make([]serve.CostUpdate, updateSize)
		for j := range b {
			b[j] = serve.CostUpdate{Node: 1 + rng.IntN(n-1), Cost: quarterCost(rng)}
		}
		out[i] = b
	}
	return out
}

// applyBatch returns a copy of costs with batch applied in order, the
// same last-writer-wins rule the daemon's shard writer uses.
func applyBatch(costs []float64, batch []serve.CostUpdate) []float64 {
	next := append([]float64(nil), costs...)
	for _, u := range batch {
		next[u.Node] = u.Cost
	}
	return next
}

// writeTopology hands the program its input as a file, in the NodeGraph
// JSON form truthrouted -topology reads.
func writeTopology(path string, g *graph.NodeGraph) error {
	blob, err := json.Marshal(g)
	if err != nil {
		return fmt.Errorf("encoding topology: %w", err)
	}
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		return fmt.Errorf("writing topology: %w", err)
	}
	return nil
}
