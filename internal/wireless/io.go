package wireless

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
)

// jsonDeployment is the wire format for a Deployment, so that a
// concrete placement (not just its seed) can be archived and every
// derived graph regenerated from it.
type jsonDeployment struct {
	Nodes []jsonPlaced `json:"nodes"`
}

type jsonPlaced struct {
	X     float64 `json:"x"`
	Y     float64 `json:"y"`
	Range float64 `json:"range"`
}

// MarshalJSON implements json.Marshaler.
func (d *Deployment) MarshalJSON() ([]byte, error) {
	w := jsonDeployment{Nodes: make([]jsonPlaced, d.N())}
	for i := range w.Nodes {
		w.Nodes[i] = jsonPlaced{X: d.Pos[i].X, Y: d.Pos[i].Y, Range: d.Range[i]}
	}
	return json.Marshal(w)
}

// UnmarshalJSON implements json.Unmarshaler.
func (d *Deployment) UnmarshalJSON(data []byte) error {
	var w jsonDeployment
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	out := &Deployment{Pos: make([]Point, len(w.Nodes)), Range: make([]float64, len(w.Nodes))}
	for i, nd := range w.Nodes {
		if math.IsNaN(nd.X) || math.IsNaN(nd.Y) || math.IsInf(nd.X, 0) || math.IsInf(nd.Y, 0) {
			return fmt.Errorf("wireless: node %d has invalid position (%v, %v)", i, nd.X, nd.Y)
		}
		if nd.Range < 0 || math.IsNaN(nd.Range) || math.IsInf(nd.Range, 0) {
			return fmt.Errorf("wireless: node %d has invalid range %v", i, nd.Range)
		}
		out.Pos[i] = Point{X: nd.X, Y: nd.Y}
		out.Range[i] = nd.Range
	}
	*d = *out
	return nil
}

// ReadDeployment decodes a Deployment from JSON.
//
//lint:allow testonly fuzzed decoder, also read back by the cli netgen tests
func ReadDeployment(r io.Reader) (*Deployment, error) {
	var d Deployment
	if err := json.NewDecoder(r).Decode(&d); err != nil {
		return nil, fmt.Errorf("wireless: decoding deployment: %w", err)
	}
	return &d, nil
}
