package graph

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
)

// jsonEdgeWeighted is the wire format for an EdgeWeighted graph.
type jsonEdgeWeighted struct {
	N     int            `json:"n"`
	Edges []jsonWeighted `json:"edges"`
}

type jsonWeighted struct {
	U int     `json:"u"`
	V int     `json:"v"`
	W float64 `json:"w"`
}

// MarshalJSON implements json.Marshaler.
func (g *EdgeWeighted) MarshalJSON() ([]byte, error) {
	w := jsonEdgeWeighted{N: g.N()}
	for _, e := range g.Edges() {
		w.Edges = append(w.Edges, jsonWeighted{U: e.U, V: e.V, W: e.W})
	}
	return json.Marshal(w)
}

// UnmarshalJSON implements json.Unmarshaler.
func (g *EdgeWeighted) UnmarshalJSON(data []byte) error {
	var w jsonEdgeWeighted
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	if err := checkNodeCount(w.N, len(w.Edges)); err != nil {
		return err
	}
	ew := NewEdgeWeighted(w.N)
	for _, e := range w.Edges {
		if e.U < 0 || e.U >= w.N || e.V < 0 || e.V >= w.N {
			return fmt.Errorf("graph: edge %+v out of range", e)
		}
		if e.U == e.V {
			return fmt.Errorf("graph: self-loop at %d", e.U)
		}
		if ew.HasEdge(e.U, e.V) {
			return fmt.Errorf("graph: duplicate edge {%d,%d}", e.U, e.V)
		}
		if e.W < 0 || math.IsNaN(e.W) || math.IsInf(e.W, 0) {
			return fmt.Errorf("graph: edge {%d,%d} has invalid weight %v", e.U, e.V, e.W)
		}
		ew.AddEdge(e.U, e.V, e.W)
	}
	*g = *ew
	return nil
}

// ReadEdgeWeighted decodes an EdgeWeighted graph from JSON.
func ReadEdgeWeighted(r io.Reader) (*EdgeWeighted, error) {
	var g EdgeWeighted
	if err := json.NewDecoder(r).Decode(&g); err != nil {
		return nil, fmt.Errorf("graph: decoding edge-weighted graph: %w", err)
	}
	return &g, nil
}
