package serve

import (
	"bytes"
	"math"
	"math/rand/v2"
	"runtime"
	"slices"
	"sync"
	"testing"

	"truthroute/internal/core"
	"truthroute/internal/graph"
	"truthroute/internal/wireless"
)

// servingUDG draws the serving fixture shape: a connected n-node UDG
// (2000 m square, 300 m range) with quarter-unit declared costs on
// [1, 10] and the node nearest the centre relabelled 0, the access
// point every source quotes toward.
func servingUDG(n int, seed uint64) *graph.NodeGraph {
	const side, radio = 2000.0, 300.0
	for attempt := uint64(0); ; attempt++ {
		rng := rand.New(rand.NewPCG(seed, attempt))
		dep := wireless.PlaceUniform(n, side, radio, rng)
		centre := wireless.Point{X: side / 2, Y: side / 2}
		ap := 0
		for v := range dep.Pos {
			if dep.Pos[v].Dist(centre) < dep.Pos[ap].Dist(centre) {
				ap = v
			}
		}
		dep.Pos[0], dep.Pos[ap] = dep.Pos[ap], dep.Pos[0]
		g := dep.UDG()
		if !g.Connected() {
			continue
		}
		for v := 0; v < n; v++ {
			g.SetCost(v, 1+float64(rng.IntN(37))/4)
		}
		return g
	}
}

// TestServeMissAllocs pins the memo miss per served quote: with the
// epoch's all-sources table toward the access point already built, a
// fresh source's quote is the remap of its table entry, the marshal
// and the memo fill. Measured at 27 allocations and 1449 B on the
// serving fixture; the bounds leave headroom over that, so neither a
// per-quote solve nor an allocating table lookup can creep back into
// the miss path.
func TestServeMissAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	const n = 300
	s := New(servingUDG(n, 1), Config{})
	defer s.Drain()
	sh := s.shards[0]
	snap := sh.snap.Load()
	src := 1
	miss := func() {
		if _, err := sh.payload(snap, src, 0, obsBinCacheHits, obsBinCacheMisses); err != nil {
			t.Fatal(err)
		}
		src++
	}
	miss() // builds the all-sources table toward the access point
	const runs = 120
	allocs := testing.AllocsPerRun(runs, miss)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		miss()
	}
	runtime.ReadMemStats(&after)
	if src > n {
		t.Fatalf("ran out of fresh sources: quoted %d, have %d", src-1, n-1)
	}
	bytesPer := float64(after.TotalAlloc-before.TotalAlloc) / runs
	t.Logf("miss: %.1f allocs, %.0f B", allocs, bytesPer)
	const maxAllocs, maxBytes = 32, 2 << 10
	if allocs > maxAllocs {
		t.Errorf("miss allocates %.1f times, want at most %d", allocs, maxAllocs)
	}
	if bytesPer > maxBytes {
		t.Errorf("miss allocates %.0f B, want at most %d", bytesPer, maxBytes)
	}
}

// TestAllSourcesTableBuildRace sends goroutines racing to build one
// snapshot's all-sources table toward the access point, each quoting
// its own sources, over several epochs. Every served quote must be
// byte-identical to a sequential server's on the same costs, and the
// published table must equal a fresh core.AllUnicastQuotes pass bit for
// bit. Run under -race it also proves the CAS publication has no data
// race.
func TestAllSourcesTableBuildRace(t *testing.T) {
	const n, workers, perWorker = 300, 6, 8
	g := servingUDG(n, 2)
	s := New(g, Config{})
	defer s.Drain()
	ref := New(g, Config{})
	defer ref.Drain()
	rng := rand.New(rand.NewPCG(2, 1))
	for epoch := 0; epoch < 4; epoch++ {
		if epoch > 0 {
			batch := []CostUpdate{{Node: 1 + rng.IntN(n-1), Cost: 1 + float64(rng.IntN(37))/4}}
			s.shards[0].apply(batch)
			ref.shards[0].apply(batch)
		}
		sh := s.shards[0]
		snap := sh.snap.Load()
		got := make([][]byte, workers*perWorker)
		var start, done sync.WaitGroup
		start.Add(1)
		for w := 0; w < workers; w++ {
			done.Add(1)
			go func(w int) {
				defer done.Done()
				start.Wait()
				for j := 0; j < perWorker; j++ {
					i := w*perWorker + j
					body, err := memoQuote(sh, snap, 1+i, 0)
					if err != nil {
						t.Error(err)
						return
					}
					got[i] = body
				}
			}(w)
		}
		start.Done()
		done.Wait()

		rsh := ref.shards[0]
		rsnap := rsh.snap.Load()
		for i, body := range got {
			want, err := memoQuote(rsh, rsnap, 1+i, 0)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(body, want) {
				t.Fatalf("epoch %d source %d: raced quote\n  %s\nwant\n  %s", snap.epoch, 1+i, body, want)
			}
		}
		table := *snap.node[0].all.Load()
		for v, want := range core.AllUnicastQuotes(snap.g, 0) {
			if (table[v] == nil) != (want == nil) {
				t.Fatalf("epoch %d: published quote for %d is %v, want %v", snap.epoch, v, table[v], want)
			}
			if want != nil && !sameQuoteBits(table[v], want) {
				t.Fatalf("epoch %d: published quote %v, want %v", snap.epoch, table[v], want)
			}
		}
	}
}

// memoQuote is the fast quote JSON the HTTP plane serves for (ls, lt)
// on snap: the quote bytes of the memo payload.
func memoQuote(sh *shard, snap *snapshot, ls, lt int) ([]byte, error) {
	payload, err := sh.payload(snap, ls, lt, obsCacheHits, obsCacheMisses)
	if err != nil {
		return nil, err
	}
	return payload[binaryQuoteHeadLen:], nil
}

// sameQuoteBits reports whether two quotes share path, cost bits and
// every payment's bits.
func sameQuoteBits(a, b *core.Quote) bool {
	if !slices.Equal(a.Path, b.Path) || math.Float64bits(a.Cost) != math.Float64bits(b.Cost) || len(a.Payments) != len(b.Payments) {
		return false
	}
	for k, p := range b.Payments {
		if q, ok := a.Payments[k]; !ok || math.Float64bits(p) != math.Float64bits(q) {
			return false
		}
	}
	return true
}

// BenchmarkServeQuoteMissUDG300 measures the memo miss on the serving
// fixture shape: every iteration quotes a fresh source toward the
// access point through the binary plane. Once every source has been
// quoted the epoch flips outside the timer, as under steady cost
// drift, so one all-sources pass toward the access point is amortized
// over n-1 misses, each of which remaps, marshals and memoizes its
// source's entry.
func BenchmarkServeQuoteMissUDG300(b *testing.B) {
	const n = 300
	s := New(servingUDG(n, 1), Config{})
	b.Cleanup(s.Drain)
	sh := s.shards[0]
	out := make(chan binFrame, 1)
	req := BinaryRequest{Dst: 0}
	src := n
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if src == n {
			b.StopTimer()
			sh.apply([]CostUpdate{{Node: 1 + i%(n-1), Cost: 1 + float64(i%37)/4}})
			src = 1
			b.StartTimer()
		}
		req.Src = uint32(src)
		src++
		s.handleBinaryQuote(out, uint32(i), &req)
		if f := <-out; f.kind != KindQuoteResp {
			b.Fatalf("kind %#02x", f.kind)
		}
	}
}

// BenchmarkServeEpochFirstMissUDG300 measures what the first reader of
// an epoch pays: one epoch flip (a one-update batch through the shard
// writer) plus the first quote toward the access point, which builds
// the epoch's all-sources table before serving its own entry.
func BenchmarkServeEpochFirstMissUDG300(b *testing.B) {
	const n = 300
	s := New(servingUDG(n, 1), Config{})
	b.Cleanup(s.Drain)
	sh := s.shards[0]
	out := make(chan binFrame, 1)
	req := BinaryRequest{Dst: 0}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sh.apply([]CostUpdate{{Node: 1 + i%(n-1), Cost: 1 + float64(i%37)/4}})
		req.Src = uint32(1 + i%(n-1))
		s.handleBinaryQuote(out, uint32(i), &req)
		if f := <-out; f.kind != KindQuoteResp {
			b.Fatalf("kind %#02x", f.kind)
		}
	}
}
