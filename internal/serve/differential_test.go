package serve

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"net/http"
	"testing"

	"truthroute/internal/core"
	"truthroute/internal/graph"
)

// TestServeDifferentialVsSolver is the cross-process-boundary oracle:
// the daemon runs in-process over the same topology family the
// differential oracle soaks (random graphs, n ≤ 128, randomized
// costs) and every served quote must be byte-identical to a direct
// core.Solver answer computed on the cost vector of the epoch the
// response claims. Mid-run batched cost updates flip epochs; a
// response pairing epoch e with a quote priced under any other
// epoch's costs fails the byte comparison, so zero mismatches also
// means zero mixed-epoch responses.
func TestServeDifferentialVsSolver(t *testing.T) {
	serveDifferential(t, func(c float64) float64 { return c })
}

// TestServeDifferentialQuantized is the same oracle on costs snapped
// to quarter units, where every path sum is exact: misses are served
// from the epoch's all-sources table, and must still match the direct
// solver byte for byte, across shards and epoch flips. On exact costs
// the served bytes must also match the naive engine's quote.
func TestServeDifferentialQuantized(t *testing.T) {
	if serveDifferential(t, func(c float64) float64 { return math.Round(c*4) / 4 }) == 0 {
		t.Fatal("no served quote was checked against the naive engine")
	}
}

// TestServeDifferentialZeroCost is the quantized oracle with about a
// fifth of all costs, initial and updated, at zero: runs of zero-cost
// relays, where the served Algorithm 1 must still match the naive
// engine bit for bit.
func TestServeDifferentialZeroCost(t *testing.T) {
	if serveDifferential(t, zeroQuarter) == 0 {
		t.Fatal("no served quote was checked against the naive engine")
	}
}

// zeroQuarter snaps a cost drawn from [0.5, 8) to quarter units,
// sending the bottom fifth of the range to zero.
func zeroQuarter(c float64) float64 {
	if c < 2 {
		return 0
	}
	return math.Round(c*4) / 4
}

// serveDifferential runs the differential with every declared cost,
// initial and updated, passed through snap. It returns how many served
// quotes had exact costs and so were checked against the naive engine.
func serveDifferential(t *testing.T, snap func(float64) float64) (naiveChecked int) {
	const topologies = 200
	sv := core.NewSolver()
	mismatches := 0
	for topo := 0; topo < topologies; topo++ {
		rng := rand.New(rand.NewPCG(0xd1ff, uint64(topo)))
		n := 8 + rng.IntN(121) // 8..128
		var g *graph.NodeGraph
		if topo%4 == 0 {
			// Sparse Erdős–Rényi graphs shard into several components.
			g = graph.ErdosRenyi(n, (1.2+rng.Float64())/float64(n), rng)
		} else {
			g = graph.RandomBiconnected(n, 0.1+0.3*rng.Float64(), rng)
		}
		g.RandomizeCosts(0.5, 8, rng)
		for v := 0; v < n; v++ {
			g.SetCost(v, snap(g.Cost(v)))
		}

		s := New(g, Config{})
		// costsAt[e] is the full global cost vector under epoch e.
		// Every shard starts at epoch 1 with the construction costs;
		// single-writer batches advance all touched shards in
		// lockstep below, so one table keyed by epoch stays exact.
		costsAt := map[uint64][]float64{1: g.Costs()}
		cur := uint64(1)

		// A third of the topologies name the engine, which must not
		// change a byte.
		engine := ""
		if topo%3 == 0 {
			engine = "&engine=fast"
		}
		for trial := 0; trial < 10; trial++ {
			if trial == 4 || trial == 7 {
				// Batched update across every shard: bump each node
				// with probability 1/3. Applying to all shards keeps
				// the epoch->costs table one-dimensional.
				next := append([]float64(nil), costsAt[cur]...)
				var batch []CostUpdate
				for v := 0; v < n; v++ {
					if rng.IntN(3) == 0 {
						c := snap(0.5 + 7.5*rng.Float64())
						next[v] = c
						batch = append(batch, CostUpdate{Node: v, Cost: c})
					}
				}
				if len(batch) == 0 {
					batch = []CostUpdate{{Node: rng.IntN(n), Cost: snap(1 + rng.Float64())}}
					next[batch[0].Node] = batch[0].Cost
				}
				// Ensure every shard is touched so all epochs advance
				// together (the per-shard differential below relies
				// on it).
				touched := make(map[int32]bool)
				for _, u := range batch {
					touched[s.shardOf[u.Node]] = true
				}
				for v := 0; v < n; v++ {
					if sid := s.shardOf[v]; !touched[sid] {
						touched[sid] = true
						batch = append(batch, CostUpdate{Node: v, Cost: costsAt[cur][v]})
					}
				}
				blob, err := json.Marshal(UpdateRequest{Updates: batch})
				if err != nil {
					t.Fatal(err)
				}
				rec := doReq(t, s, "POST", "/update", string(blob))
				if rec.Code != http.StatusOK {
					t.Fatalf("topo %d: update failed: %d %s", topo, rec.Code, rec.Body.String())
				}
				var ur UpdateResponse
				if err := json.Unmarshal(rec.Body.Bytes(), &ur); err != nil {
					t.Fatal(err)
				}
				for _, se := range ur.Shards {
					if se.Epoch != cur+1 {
						t.Fatalf("topo %d: shard %d published epoch %d, want %d", topo, se.Shard, se.Epoch, cur+1)
					}
				}
				cur++
				costsAt[cur] = next
			}

			src := rng.IntN(n)
			dst := rng.IntN(n - 1)
			if dst >= src {
				dst++
			}
			rec := doReq(t, s, "GET", fmt.Sprintf("/quote?src=%d&dst=%d%s", src, dst, engine), "")
			switch rec.Code {
			case http.StatusNotFound:
				// Cross-component or unreachable: the direct solver
				// must agree there is no path.
				gq := g.WithCosts(costsAt[cur])
				if _, err := sv.Quote(gq, src, dst, core.EngineNaive); err == nil {
					t.Errorf("topo %d: served 404 for %d->%d but solver finds a path", topo, src, dst)
					mismatches++
				}
			case http.StatusOK:
				qr := decodeQuote(t, rec)
				costs, ok := costsAt[qr.Epoch]
				if !ok {
					t.Fatalf("topo %d: response claims unknown epoch %d", topo, qr.Epoch)
				}
				gq := g.WithCosts(costs)
				ref, err := sv.Quote(gq, src, dst, core.EngineFast)
				if err != nil {
					t.Fatalf("topo %d: solver failed for served pair %d->%d: %v", topo, src, dst, err)
				}
				if !sameQuoteJSON(t, qr.Quote, ref) {
					mismatches++
					t.Errorf("topo %d: quote %d->%d epoch %d differs from the direct solver", topo, src, dst, qr.Epoch)
				}
				if _, exact := gq.CostQuantum(); exact {
					naiveChecked++
					if !sameQuoteJSON(t, qr.Quote, naiveQuote(t, gq, src, dst)) {
						mismatches++
						t.Errorf("topo %d: quote %d->%d epoch %d differs from the naive engine", topo, src, dst, qr.Epoch)
					}
				}
			default:
				t.Fatalf("topo %d: quote %d->%d: status %d body %s", topo, src, dst, rec.Code, rec.Body.String())
			}
		}
		s.Drain()
	}
	if mismatches != 0 {
		t.Fatalf("%d quote mismatches across %d topologies", mismatches, topologies)
	}
	return naiveChecked
}

// naiveQuote is the reference quote for (src, dst) on g: the naive
// engine, one Dijkstra per relay.
func naiveQuote(t *testing.T, g *graph.NodeGraph, src, dst int) *core.Quote {
	t.Helper()
	q, err := core.UnicastQuote(g, src, dst, core.EngineNaive)
	if err != nil {
		t.Fatalf("naive engine failed for %d->%d: %v", src, dst, err)
	}
	return q
}

// sameQuoteJSON reports whether served holds exactly the bytes q
// marshals to, logging both when they differ.
func sameQuoteJSON(t *testing.T, served []byte, q *core.Quote) bool {
	t.Helper()
	want, err := json.Marshal(q)
	if err != nil {
		t.Fatal(err)
	}
	if string(served) != string(want) {
		t.Logf("served %s\n  want   %s", served, want)
		return false
	}
	return true
}
