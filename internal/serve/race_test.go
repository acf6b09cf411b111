package serve

import (
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"net/http"
	"runtime"
	"sync"
	"testing"

	"truthroute/internal/core"
	"truthroute/internal/graph"
)

// TestServeSnapshotConsistencyUnderRace pits GOMAXPROCS reader
// goroutines against one cost-update writer and checks the RCU
// contract end to end: every reader observes a non-decreasing epoch
// sequence, and every served quote is byte-identical to a direct
// solver run on exactly the cost vector of the epoch the response
// claims. A torn read — a quote priced under a mix of two batches —
// cannot match any single epoch's reference and fails the byte
// comparison. Run under -race this also proves the snapshot flip has
// no data race with concurrent readers.
func TestServeSnapshotConsistencyUnderRace(t *testing.T) {
	rng := rand.New(rand.NewPCG(0xace5, 1))
	const n = 32
	g := graph.RandomBiconnected(n, 0.2, rng) // one component: one shard, global epochs
	g.RandomizeCosts(0.5, 8, rng)

	s := New(g, Config{MaxInFlight: 4096})
	defer s.Drain()
	if s.NumShards() != 1 {
		t.Fatalf("NumShards = %d, want 1 (biconnected topology)", s.NumShards())
	}

	// costsByEpoch is recorded by the writer BEFORE it posts the
	// batch, so by the time any reader can observe epoch e the table
	// already holds e's cost vector.
	var mu sync.Mutex
	costsByEpoch := map[uint64][]float64{1: g.Costs()}

	const batches = 30
	readers := runtime.GOMAXPROCS(0)
	if readers < 2 {
		readers = 2
	}
	quotesPerReader := 200

	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // the writer
		defer wg.Done()
		wrng := rand.New(rand.NewPCG(0xace5, 2))
		cur := uint64(1)
		for b := 0; b < batches; b++ {
			mu.Lock()
			next := append([]float64(nil), costsByEpoch[cur]...)
			mu.Unlock()
			var batch []CostUpdate
			for v := 0; v < n; v++ {
				if wrng.IntN(4) == 0 {
					c := 0.5 + 7.5*wrng.Float64()
					next[v] = c
					batch = append(batch, CostUpdate{Node: v, Cost: c})
				}
			}
			if len(batch) == 0 {
				batch = []CostUpdate{{Node: wrng.IntN(n), Cost: 1 + wrng.Float64()}}
				next[batch[0].Node] = batch[0].Cost
			}
			mu.Lock()
			costsByEpoch[cur+1] = next
			mu.Unlock()
			blob, err := json.Marshal(UpdateRequest{Updates: batch})
			if err != nil {
				t.Error(err)
				return
			}
			rec := doReq(t, s, "POST", "/update", string(blob))
			if rec.Code != http.StatusOK {
				t.Errorf("batch %d: update status %d body %s", b, rec.Code, rec.Body.String())
				return
			}
			var ur UpdateResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &ur); err != nil {
				t.Error(err)
				return
			}
			if len(ur.Shards) != 1 || ur.Shards[0].Epoch != cur+1 {
				t.Errorf("batch %d: shard epochs %v, want single epoch %d", b, ur.Shards, cur+1)
				return
			}
			cur++
		}
	}()

	sv := core.NewSolver()
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rrng := rand.New(rand.NewPCG(0xace5, 3+uint64(r)))
			last := uint64(0)
			for i := 0; i < quotesPerReader; i++ {
				src := rrng.IntN(n)
				dst := rrng.IntN(n - 1)
				if dst >= src {
					dst++
				}
				rec := doReq(t, s, "GET", fmt.Sprintf("/quote?src=%d&dst=%d", src, dst), "")
				if rec.Code != http.StatusOK {
					t.Errorf("reader %d: quote %d->%d status %d body %s", r, src, dst, rec.Code, rec.Body.String())
					return
				}
				qr := decodeQuote(t, rec)
				if qr.Epoch < last {
					t.Errorf("reader %d: epoch went backwards: %d after %d", r, qr.Epoch, last)
					return
				}
				last = qr.Epoch
				mu.Lock()
				costs, ok := costsByEpoch[qr.Epoch]
				mu.Unlock()
				if !ok {
					t.Errorf("reader %d: response claims epoch %d before the writer recorded it", r, qr.Epoch)
					return
				}
				ref, err := sv.Quote(g.WithCosts(costs), src, dst, core.EngineFast)
				if err != nil {
					t.Errorf("reader %d: solver failed for served pair %d->%d: %v", r, src, dst, err)
					return
				}
				want, err := json.Marshal(ref)
				if err != nil {
					t.Error(err)
					return
				}
				if string(qr.Quote) != string(want) {
					t.Errorf("reader %d: torn or mixed-epoch quote %d->%d at epoch %d:\n  served %s\n  direct %s",
						r, src, dst, qr.Epoch, qr.Quote, want)
					return
				}
			}
		}(r)
	}
	wg.Wait()
}

// TestServeCrashMidBatchRestart models the recovery story: update
// batches are only durable once acked, so a daemon that crashes with
// a batch in flight restarts from the last acked cost vector. The
// test applies an acked batch, records the served quotes, sends one
// more batch whose ack is "lost" in the crash, then rebuilds a fresh
// Server from the last acked costs and demands byte-identical quotes.
func TestServeCrashMidBatchRestart(t *testing.T) {
	rng := rand.New(rand.NewPCG(0xc7a5, 1))
	const n = 24
	g := graph.RandomBiconnected(n, 0.25, rng)
	g.RandomizeCosts(0.5, 8, rng)

	old := New(g, Config{})
	defer old.Drain()

	// Acked batch: this is the durable state a restart recovers to.
	batch := []CostUpdate{{Node: 3, Cost: 4.25}, {Node: 11, Cost: 0.75}, {Node: 19, Cost: 6.5}}
	blob, err := json.Marshal(UpdateRequest{Updates: batch})
	if err != nil {
		t.Fatal(err)
	}
	if rec := doReq(t, old, "POST", "/update", string(blob)); rec.Code != http.StatusOK {
		t.Fatalf("acked update failed: %d %s", rec.Code, rec.Body.String())
	}
	durable := old.Costs()

	type pair struct{ src, dst int }
	var pairs []pair
	for i := 0; i < 20; i++ {
		src := rng.IntN(n)
		dst := rng.IntN(n - 1)
		if dst >= src {
			dst++
		}
		pairs = append(pairs, pair{src, dst})
	}
	served := make(map[pair]string)
	for _, p := range pairs {
		rec := doReq(t, old, "GET", fmt.Sprintf("/quote?src=%d&dst=%d", p.src, p.dst), "")
		if rec.Code != http.StatusOK {
			t.Fatalf("pre-crash quote %v: status %d", p, rec.Code)
		}
		served[p] = string(decodeQuote(t, rec).Quote)
	}

	// The in-flight batch: applied by the old process, but the ack
	// never reaches the operator's durable store before the crash.
	lost := []CostUpdate{{Node: 5, Cost: 9.75}}
	blob, err = json.Marshal(UpdateRequest{Updates: lost})
	if err != nil {
		t.Fatal(err)
	}
	if rec := doReq(t, old, "POST", "/update", string(blob)); rec.Code != http.StatusOK {
		t.Fatalf("in-flight update failed: %d %s", rec.Code, rec.Body.String())
	}

	// Restart: reload the topology at the last acked costs. Epochs
	// restart at 1 — they order snapshots within one process lifetime
	// and are not durable.
	fresh := New(g.WithCosts(durable), Config{})
	defer fresh.Drain()
	for _, e := range epochs(fresh) {
		if e != 1 {
			t.Fatalf("restarted epochs = %v, want all 1", epochs(fresh))
		}
	}
	for _, p := range pairs {
		rec := doReq(t, fresh, "GET", fmt.Sprintf("/quote?src=%d&dst=%d", p.src, p.dst), "")
		if rec.Code != http.StatusOK {
			t.Fatalf("post-restart quote %v: status %d", p, rec.Code)
		}
		if got := string(decodeQuote(t, rec).Quote); got != served[p] {
			t.Errorf("post-restart quote %d->%d differs:\n  restarted %s\n  pre-crash %s", p.src, p.dst, got, served[p])
		}
	}
}
