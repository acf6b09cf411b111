package serve

import (
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"net/http"
	"testing"

	"truthroute/internal/graph"
)

// TestServeBinaryHTTPByteIdentity is the cross-transport oracle: over
// the same 200-topology live-update family the solver differential
// soaks, every binary-served quote must decode to exactly the bytes
// the HTTP path serves for the same (source, dest, epoch). PinEpoch
// nails the epoch: the HTTP response names one, the binary request
// pins it, so a disagreement is either a byte mismatch or a
// mixed-epoch response — both count as mismatches and both must be
// zero. 404s and ErrCodeNoPath must agree too.
func TestServeBinaryHTTPByteIdentity(t *testing.T) {
	binaryByteIdentity(t, func(c float64) float64 { return c })
}

// TestServeBinaryHTTPByteIdentityZeroCost is the same oracle with
// about a fifth of all costs, initial and updated, at zero on the
// quarter grid; every served quote must also match the naive engine
// bit for bit.
func TestServeBinaryHTTPByteIdentityZeroCost(t *testing.T) {
	if binaryByteIdentity(t, zeroQuarter) == 0 {
		t.Fatal("no served quote was checked against the naive engine")
	}
}

// binaryByteIdentity runs the cross-transport oracle with every
// declared cost, initial and updated, passed through snap. It returns
// how many served quotes had exact costs and so were checked against
// the naive engine.
func binaryByteIdentity(t *testing.T, snap func(float64) float64) (naiveChecked int) {
	const topologies = 200
	mismatches := 0
	for topo := 0; topo < topologies; topo++ {
		rng := rand.New(rand.NewPCG(0xb17e, uint64(topo)))
		n := 8 + rng.IntN(121) // 8..128
		var g *graph.NodeGraph
		if topo%4 == 0 {
			g = graph.ErdosRenyi(n, (1.2+rng.Float64())/float64(n), rng)
		} else {
			g = graph.RandomBiconnected(n, 0.1+0.3*rng.Float64(), rng)
		}
		g.RandomizeCosts(0.5, 8, rng)
		for v := 0; v < n; v++ {
			g.SetCost(v, snap(g.Cost(v)))
		}

		s := New(g, Config{})
		c := pipeClient(t, s)
		cur := uint64(1)
		costs := g.Costs() // under epoch cur

		// A third of the topologies name the engine on both planes,
		// which must not change a byte.
		engine := ""
		engByte := uint8(EngineDefault)
		if topo%3 == 0 {
			engine = "&engine=fast"
			engByte = EngineFastByte
		}
		for trial := 0; trial < 10; trial++ {
			if trial == 4 || trial == 7 {
				// Batched update touching every shard, mirroring the
				// solver differential: all epochs advance in lockstep
				// while binary connections stay open.
				var batch []CostUpdate
				for v := 0; v < n; v++ {
					if rng.IntN(3) == 0 {
						batch = append(batch, CostUpdate{Node: v, Cost: snap(0.5 + 7.5*rng.Float64())})
					}
				}
				if len(batch) == 0 {
					batch = []CostUpdate{{Node: rng.IntN(n), Cost: snap(1 + rng.Float64())}}
				}
				touched := make(map[int32]bool)
				for _, u := range batch {
					touched[s.shardOf[u.Node]] = true
				}
				for v := 0; v < n; v++ {
					if sid := s.shardOf[v]; !touched[sid] {
						touched[sid] = true
						batch = append(batch, CostUpdate{Node: v, Cost: snap(1 + rng.Float64())})
					}
				}
				for _, u := range batch {
					costs[u.Node] = u.Cost
				}
				blob, err := json.Marshal(UpdateRequest{Updates: batch})
				if err != nil {
					t.Fatal(err)
				}
				if rec := doReq(t, s, "POST", "/update", string(blob)); rec.Code != http.StatusOK {
					t.Fatalf("topo %d: update failed: %d %s", topo, rec.Code, rec.Body.String())
				}
				cur++
			}

			src := rng.IntN(n)
			dst := rng.IntN(n - 1)
			if dst >= src {
				dst++
			}
			rec := doReq(t, s, "GET", fmt.Sprintf("/quote?src=%d&dst=%d%s", src, dst, engine), "")
			res, err := c.Quote(&BinaryRequest{Src: uint32(src), Dst: uint32(dst), Engine: engByte})
			if err != nil {
				t.Fatalf("topo %d: binary quote %d->%d: %v", topo, src, dst, err)
			}
			switch rec.Code {
			case http.StatusNotFound:
				if res.Kind != KindError || res.Err.Code != ErrCodeNoPath {
					mismatches++
					t.Errorf("topo %d: http served 404 for %d->%d, binary kind %#02x code %d",
						topo, src, dst, res.Kind, res.Err.Code)
				}
			case http.StatusOK:
				qr := decodeQuote(t, rec)
				if qr.Epoch != cur {
					t.Fatalf("topo %d: http response claims epoch %d, expected %d", topo, qr.Epoch, cur)
				}
				if res.Kind != KindQuoteResp {
					mismatches++
					t.Errorf("topo %d: binary refused %d->%d that http served: kind %#02x code %d (%s)",
						topo, src, dst, res.Kind, res.Err.Code, res.Err.Msg)
					continue
				}
				if res.Quote.Epoch != qr.Epoch || int(res.Quote.Shard) != qr.Shard {
					mismatches++
					t.Errorf("topo %d: quote %d->%d: binary shard/epoch %d/%d, http %d/%d (mixed epochs)",
						topo, src, dst, res.Quote.Shard, res.Quote.Epoch, qr.Shard, qr.Epoch)
					continue
				}
				if string(res.Quote.Quote) != string(qr.Quote) {
					mismatches++
					t.Errorf("topo %d: quote %d->%d epoch %d bytes differ:\n  binary %s\n  http   %s",
						topo, src, dst, qr.Epoch, res.Quote.Quote, qr.Quote)
				}
				gq := g.WithCosts(costs)
				if _, exact := gq.CostQuantum(); exact {
					naiveChecked++
					if !sameQuoteJSON(t, res.Quote.Quote, naiveQuote(t, gq, src, dst)) {
						mismatches++
						t.Errorf("topo %d: quote %d->%d epoch %d differs from the naive engine", topo, src, dst, qr.Epoch)
					}
				}
				// Pinning the epoch the HTTP response named must yield
				// the same bytes again; pinning the previous epoch must
				// be refused, never silently answered from stale state.
				pinned, err := c.Quote(&BinaryRequest{Src: uint32(src), Dst: uint32(dst), Engine: engByte, PinEpoch: qr.Epoch})
				if err != nil {
					t.Fatalf("topo %d: pinned quote %d->%d: %v", topo, src, dst, err)
				}
				if pinned.Kind != KindQuoteResp || string(pinned.Quote.Quote) != string(qr.Quote) {
					mismatches++
					t.Errorf("topo %d: pin to epoch %d for %d->%d: kind %#02x, bytes differ %v",
						topo, qr.Epoch, src, dst, pinned.Kind, string(pinned.Quote.Quote) != string(qr.Quote))
				}
				if qr.Epoch > 1 {
					stale, err := c.Quote(&BinaryRequest{Src: uint32(src), Dst: uint32(dst), Engine: engByte, PinEpoch: qr.Epoch - 1})
					if err != nil {
						t.Fatalf("topo %d: stale-pin quote %d->%d: %v", topo, src, dst, err)
					}
					if stale.Kind != KindError || stale.Err.Code != ErrCodeEpochMismatch {
						mismatches++
						t.Errorf("topo %d: pin to stale epoch %d answered kind %#02x code %d, want epoch-mismatch",
							topo, qr.Epoch-1, stale.Kind, stale.Err.Code)
					}
				}
			default:
				t.Fatalf("topo %d: quote %d->%d: status %d body %s", topo, src, dst, rec.Code, rec.Body.String())
			}
		}
		_ = c.Close()
		s.Drain()
	}
	if mismatches != 0 {
		t.Fatalf("%d cross-transport mismatches across %d topologies", mismatches, topologies)
	}
	return naiveChecked
}
