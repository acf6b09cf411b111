package main

import (
	"strings"
	"sync/atomic"
	"testing"

	"truthroute/internal/core"
	"truthroute/internal/serve"
)

// TestOracleCatchesPerturbedByte is the checker's self-test: flipping
// any single byte of a correct payload — shard, epoch or quote JSON —
// must be reported as a mismatch.
func TestOracleCatchesPerturbedByte(t *testing.T) {
	o := newOracle(servingFixture(7))
	if err := o.selfTest(); err != nil {
		t.Fatal(err)
	}
	want, err := o.expected(1, 5)
	if err != nil {
		t.Fatal(err)
	}
	if err := o.check(5, want); err != nil {
		t.Fatalf("correct payload rejected: %v", err)
	}
	for i := range want {
		bad := append([]byte(nil), want...)
		bad[i] ^= 0x01
		if o.check(5, bad) == nil {
			t.Errorf("flipping byte %d of %d went unnoticed", i, len(want))
		}
	}
}

// TestOracleFollowsEpochs checks that the oracle prices each epoch with
// the batches published before it: a payload served on epoch 1 is
// wrong once relabelled as an epoch whose costs moved its quote.
func TestOracleFollowsEpochs(t *testing.T) {
	g := servingFixture(7)
	o := newOracle(g)
	q, err := core.NewSolver().Quote(g, 5, accessPt, core.EngineFast)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Path) < 3 {
		t.Skip("source 5 is a direct neighbour of the access point")
	}
	relay := q.Path[1]
	e := o.publish([]serve.CostUpdate{{Node: relay, Cost: g.Cost(relay) + 1}})
	old, err := o.expected(1, 5)
	if err != nil {
		t.Fatal(err)
	}
	relabelled := serve.EncodeBinaryQuote(nil, &serve.BinaryQuote{Shard: 0, Epoch: e, Quote: old[12:]})
	if o.check(5, relabelled) == nil {
		t.Fatal("an epoch-1 quote passed as the epoch after its relay's cost rose")
	}
	if err := o.check(5, serve.EncodeBinaryQuote(nil, &serve.BinaryQuote{Shard: 0, Epoch: e + 1, Quote: old[12:]})); err == nil ||
		!strings.Contains(err.Error(), "never published") {
		t.Fatalf("an unpublished epoch was accepted: %v", err)
	}
}

// TestSamplerRejectsUnaskedEpoch: a churn response may only name an
// epoch the benchmark has already asked the daemon to publish.
func TestSamplerRejectsUnaskedEpoch(t *testing.T) {
	var sent atomic.Uint64
	s := newSampler(1, 1)
	s.sent = &sent
	ok := serve.EncodeBinaryQuote(nil, &serve.BinaryQuote{Shard: 0, Epoch: 1, Quote: []byte(`{}`)})
	if err := s.check(0, 1, 0, ok); err != nil {
		t.Fatal(err)
	}
	ahead := serve.EncodeBinaryQuote(nil, &serve.BinaryQuote{Shard: 0, Epoch: 2, Quote: []byte(`{}`)})
	if s.check(0, 1, 0, ahead) == nil {
		t.Fatal("epoch 2 accepted before any update was sent")
	}
	sent.Store(1)
	if err := s.check(0, 1, 0, ahead); err != nil {
		t.Fatal(err)
	}
	if len(s.kept[0]) != 2 {
		t.Fatalf("kept %d samples, want 2 at one-in-one sampling", len(s.kept[0]))
	}
}

// TestSamplerRejectsStaleEpoch: a quote requested after the daemon
// acknowledged k update batches must name epoch k+1 or later; an older
// epoch is a stale read, however correct its bytes are for that epoch.
func TestSamplerRejectsStaleEpoch(t *testing.T) {
	var sent atomic.Uint64
	sent.Store(3)
	s := newSampler(1, 1)
	s.sent = &sent
	const acked = 2 // epochs 2 and 3 published and acknowledged
	for epoch := uint64(1); epoch <= 4; epoch++ {
		p := serve.EncodeBinaryQuote(nil, &serve.BinaryQuote{Shard: 0, Epoch: epoch, Quote: []byte(`{}`)})
		err := s.check(0, 1, acked, p)
		if stale := epoch < acked+1; stale != (err != nil) {
			t.Errorf("epoch %d after %d acknowledged batches: check returned %v", epoch, acked, err)
		}
	}
}

// TestAgreesTolerance pins the sweep's comparison: 1e-9 relative on
// costs and payments, exact on paths and on +Inf monopoly payments.
func TestAgreesTolerance(t *testing.T) {
	want := &core.Quote{Path: []int{3, 2, 0}, Cost: 4, Payments: map[int]float64{2: 5}}
	near := &core.Quote{Path: []int{3, 2, 0}, Cost: 4 * (1 + 1e-12), Payments: map[int]float64{2: 5}}
	far := &core.Quote{Path: []int{3, 2, 0}, Cost: 4 * (1 + 1e-6), Payments: map[int]float64{2: 5}}
	other := &core.Quote{Path: []int{3, 1, 0}, Cost: 4, Payments: map[int]float64{1: 5}}
	if !agrees(near, want, nil) {
		t.Error("a 1e-12 relative difference was rejected")
	}
	if agrees(far, want, nil) || agrees(other, want, nil) || agrees(nil, want, nil) {
		t.Error("a real difference was accepted")
	}
	if !agrees(nil, nil, core.ErrNoPath) {
		t.Error("matching unreachability was rejected")
	}
}
