package graph

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
)

// jsonNodeGraph is the wire format for a NodeGraph.
type jsonNodeGraph struct {
	Nodes []float64 `json:"nodes"` // per-node relay costs
	Edges [][2]int  `json:"edges"`
}

// jsonLinkGraph is the wire format for a LinkGraph.
type jsonLinkGraph struct {
	N    int       `json:"n"`
	Arcs []jsonArc `json:"arcs"`
}

type jsonArc struct {
	From int     `json:"from"`
	To   int     `json:"to"`
	W    float64 `json:"w"`
}

// MarshalJSON implements json.Marshaler.
func (g *NodeGraph) MarshalJSON() ([]byte, error) {
	return json.Marshal(jsonNodeGraph{Nodes: g.Costs(), Edges: g.Edges()})
}

// UnmarshalJSON implements json.Unmarshaler.
func (g *NodeGraph) UnmarshalJSON(data []byte) error {
	var w jsonNodeGraph
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	ng, err := buildNodeGraph(w)
	if err != nil {
		return err
	}
	*g = *ng
	return nil
}

func buildNodeGraph(w jsonNodeGraph) (*NodeGraph, error) {
	g := NewNodeGraph(len(w.Nodes))
	for v, c := range w.Nodes {
		if c < 0 || math.IsNaN(c) {
			return nil, fmt.Errorf("graph: node %d has invalid cost %v", v, c)
		}
		g.SetCost(v, c)
	}
	for _, e := range w.Edges {
		u, v := e[0], e[1]
		if u < 0 || u >= g.N() || v < 0 || v >= g.N() {
			return nil, fmt.Errorf("graph: edge %v out of range", e)
		}
		if u == v {
			return nil, fmt.Errorf("graph: self-loop at %d", u)
		}
		if g.HasEdge(u, v) {
			return nil, fmt.Errorf("graph: duplicate edge {%d,%d}", u, v)
		}
		g.AddEdge(u, v)
	}
	return g, nil
}

// ReadNodeGraph decodes a NodeGraph from JSON.
func ReadNodeGraph(r io.Reader) (*NodeGraph, error) {
	var g NodeGraph
	if err := json.NewDecoder(r).Decode(&g); err != nil {
		return nil, fmt.Errorf("graph: decoding node graph: %w", err)
	}
	return &g, nil
}

// MarshalJSON implements json.Marshaler. +Inf arcs are skipped: they
// mean "no usable link" and JSON has no Inf literal.
func (g *LinkGraph) MarshalJSON() ([]byte, error) {
	w := jsonLinkGraph{N: g.N()}
	for u, arcs := range g.out {
		for _, a := range arcs {
			if a.W < Inf {
				w.Arcs = append(w.Arcs, jsonArc{From: u, To: a.To, W: a.W})
			}
		}
	}
	return json.Marshal(w)
}

// UnmarshalJSON implements json.Unmarshaler.
func (g *LinkGraph) UnmarshalJSON(data []byte) error {
	var w jsonLinkGraph
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	if err := checkNodeCount(w.N, len(w.Arcs)); err != nil {
		return err
	}
	lg := NewLinkGraph(w.N)
	for _, a := range w.Arcs {
		if a.From < 0 || a.From >= w.N || a.To < 0 || a.To >= w.N {
			return fmt.Errorf("graph: arc %+v out of range", a)
		}
		if a.From == a.To {
			return fmt.Errorf("graph: self-arc at %d", a.From)
		}
		if lg.HasArc(a.From, a.To) {
			return fmt.Errorf("graph: duplicate arc %d->%d", a.From, a.To)
		}
		if a.W < 0 || math.IsNaN(a.W) {
			return fmt.Errorf("graph: arc %d->%d has invalid weight %v", a.From, a.To, a.W)
		}
		lg.AddArc(a.From, a.To, a.W)
	}
	*g = *lg
	return nil
}

// freeNodes is how many nodes a decoded arc or edge list may declare
// beyond the endpoints its entries can name.
const freeNodes = 1 << 16

// checkNodeCount refuses a declared node count that the decoded input
// cannot back, before the decoder allocates the n-row table: at most
// 2^16 nodes plus two per listed arc or edge. The table then costs at
// most 1.5 MB plus 48 bytes per entry, and every entry takes at least
// two bytes of input, so a file of a few bytes cannot claim 10^12
// nodes. The bound depends only on n and the entry count, which
// MarshalJSON writes back unchanged for every graph these decoders
// accept, so whatever decodes also decodes again after a round trip.
func checkNodeCount(n, entries int) error {
	if n < 0 {
		return fmt.Errorf("graph: negative node count %d", n)
	}
	if n > freeNodes+2*entries {
		return fmt.Errorf("graph: node count %d exceeds %d, the bound for %d entries", n, freeNodes+2*entries, entries)
	}
	return nil
}

// ReadLinkGraph decodes a LinkGraph from JSON.
func ReadLinkGraph(r io.Reader) (*LinkGraph, error) {
	var g LinkGraph
	if err := json.NewDecoder(r).Decode(&g); err != nil {
		return nil, fmt.Errorf("graph: decoding link graph: %w", err)
	}
	return &g, nil
}
