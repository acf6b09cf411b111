package main

import (
	"bytes"
	"encoding/json"
	"fmt"

	"truthroute/internal/core"
	"truthroute/internal/graph"
	"truthroute/internal/serve"
)

// oracle knows the declared-cost vector of every epoch the daemon has
// published — the benchmark is the daemon's only writer, so epoch e+1
// is epoch e with the e-th update batch applied — and derives the exact
// KindQuoteResp payload a correct daemon must serve: shard 0, the
// epoch, then json.Marshal of a core.Solver quote on that epoch's
// costs. The topology is asserted to be one shard, so local and global
// node ids coincide.
type oracle struct {
	base   *graph.NodeGraph
	solver *core.Solver
	costs  [][]float64 // costs[e-1] is epoch e's declared-cost vector
	views  map[uint64]*graph.NodeGraph
}

func newOracle(g *graph.NodeGraph) *oracle {
	return &oracle{
		base:   g,
		solver: core.NewSolver(),
		costs:  [][]float64{g.Costs()},
		views:  map[uint64]*graph.NodeGraph{},
	}
}

// publish records the epoch the next update batch creates and returns
// its number.
func (o *oracle) publish(batch []serve.CostUpdate) uint64 {
	o.costs = append(o.costs, applyBatch(o.costs[len(o.costs)-1], batch))
	return uint64(len(o.costs))
}

// latest is the newest epoch the oracle knows.
func (o *oracle) latest() uint64 { return uint64(len(o.costs)) }

func (o *oracle) view(epoch uint64) (*graph.NodeGraph, error) {
	if epoch < 1 || epoch > o.latest() {
		return nil, fmt.Errorf("epoch %d was never published (latest %d)", epoch, o.latest())
	}
	if v, ok := o.views[epoch]; ok {
		return v, nil
	}
	v := o.base.WithCosts(o.costs[epoch-1])
	o.views[epoch] = v
	return v, nil
}

// expected returns the payload a correct daemon serves for a quote
// from src to the access point on epoch.
func (o *oracle) expected(epoch uint64, src int) ([]byte, error) {
	g, err := o.view(epoch)
	if err != nil {
		return nil, err
	}
	q, err := o.solver.Quote(g, src, accessPt, core.EngineFast)
	if err != nil {
		return nil, fmt.Errorf("reference quote %d->%d: %w", src, accessPt, err)
	}
	body, err := json.Marshal(q)
	if err != nil {
		return nil, fmt.Errorf("marshalling reference quote: %w", err)
	}
	return serve.EncodeBinaryQuote(nil, &serve.BinaryQuote{Shard: 0, Epoch: epoch, Quote: body}), nil
}

// check byte-compares one served payload against the reference for the
// epoch the payload itself names.
func (o *oracle) check(src int, payload []byte) error {
	q, err := serve.DecodeBinaryQuote(payload)
	if err != nil {
		return err
	}
	want, err := o.expected(q.Epoch, src)
	if err != nil {
		return err
	}
	if !bytes.Equal(payload, want) {
		return fmt.Errorf("quote %d->%d at epoch %d: served %q, want %q", src, accessPt, q.Epoch, payload[12:], want[12:])
	}
	return nil
}

// expectedTable precomputes epoch's reference payload for every source,
// so a receiver can byte-compare every response at wire speed.
func (o *oracle) expectedTable(epoch uint64) ([][]byte, error) {
	out := make([][]byte, o.base.N())
	for src := range out {
		if src == accessPt {
			continue
		}
		p, err := o.expected(epoch, src)
		if err != nil {
			return nil, err
		}
		out[src] = p
	}
	return out, nil
}

// selfTest proves the comparison bites: a reference payload with one
// byte flipped must be reported as a mismatch. Run before every
// measurement so a checker that silently accepts everything can never
// certify a run.
func (o *oracle) selfTest() error {
	want, err := o.expected(1, 1)
	if err != nil {
		return err
	}
	if err := o.check(1, want); err != nil {
		return fmt.Errorf("self-test: reference payload rejected: %w", err)
	}
	bad := append([]byte(nil), want...)
	bad[len(bad)-2] ^= 0x01
	if o.check(1, bad) == nil {
		return fmt.Errorf("self-test: a perturbed payload byte was not caught")
	}
	return nil
}
