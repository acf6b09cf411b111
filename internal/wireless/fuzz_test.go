package wireless

import (
	"bytes"
	"encoding/json"
	"math/rand/v2"
	"testing"
)

// FuzzReadDeployment hardens the deployment parser against untrusted
// input: arbitrary bytes must either fail cleanly or produce a
// deployment that survives a marshal/parse round trip AND whose
// derived graphs build without panicking and match the all-pairs
// reference builders (grid_test.go) exactly.
func FuzzReadDeployment(f *testing.F) {
	seed, _ := json.Marshal(PlaceUniform(8, 1000, 300, rand.New(rand.NewPCG(1, 2))))
	f.Add(seed)
	f.Add([]byte(`{"nodes":[]}`))
	f.Add([]byte(`{"nodes":[{"x":0,"y":0,"range":1},{"x":0.5,"y":0,"range":1}]}`))
	f.Add([]byte(`{"nodes":[{"x":1e308,"y":-1e308,"range":0}]}`))
	f.Add([]byte(`{"nodes":[{"x":0,"y":0,"range":-1}]}`))
	f.Add([]byte(`not json`))
	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := ReadDeployment(bytes.NewReader(data))
		if err != nil {
			return
		}
		out, err := json.Marshal(d)
		if err != nil {
			t.Fatalf("parsed deployment failed to marshal: %v", err)
		}
		back, err := ReadDeployment(bytes.NewReader(out))
		if err != nil {
			t.Fatalf("round trip failed: %v", err)
		}
		if back.N() != d.N() {
			t.Fatalf("round trip changed size: %d -> %d", d.N(), back.N())
		}
		// Every accepted deployment must be safe to build graphs
		// from, and the grid builders must reproduce the all-pairs
		// reference exactly; cap the size so one fuzz exec stays
		// cheap.
		if d.N() <= 64 {
			if err := diffBuilders(d); err != nil {
				t.Fatal(err)
			}
		}
	})
}
