package oracle

import (
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"testing"

	"truthroute/internal/graph"
)

// corpusTopologies are the named shapes every FuzzOracle* target is
// seeded with (and that testdata/fuzz mirrors as checked-in corpus
// files): the paper's figures plus the adversarial families —
// disconnected, zero-cost (maximally tied), and single-path (every
// relay a monopolist).
func corpusTopologies(t testing.TB) map[string][]byte {
	type shape struct {
		g   *graph.NodeGraph
		src int
	}
	disc := graph.NewNodeGraph(6)
	disc.AddEdge(1, 2)
	disc.AddEdge(4, 5)
	disc.SetCost(2, 3)

	line := graph.NewNodeGraph(5)
	for v := 0; v+1 < 5; v++ {
		line.AddEdge(v, v+1)
		line.SetCost(v+1, float64(v+1))
	}

	shapes := map[string]shape{
		"figure2":      {graph.Figure2(), 1},
		"figure4":      {graph.Figure4(), 8},
		"disconnected": {disc, 3},
		"zero-cost":    {graph.Ring(5), 2}, // all costs 0: every path ties
		"single-path":  {line, 4},
	}
	names := make([]string, 0, len(shapes))
	for name := range shapes {
		names = append(names, name)
	}
	sort.Strings(names)
	out := map[string][]byte{}
	for _, name := range names {
		s := shapes[name]
		data, err := EncodeTopology(s.g, s.src)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out[name] = data
	}
	return out
}

func failOnViolations(t *testing.T, res *Result, data []byte) {
	t.Helper()
	if res.OK() {
		return
	}
	var sb strings.Builder
	for _, v := range res.Violations {
		sb.WriteString(v.String())
		sb.WriteString("; ")
	}
	t.Fatalf("topology %x: %s", data, sb.String())
}

// FuzzOracleInvariants is the tie-tolerant target: arbitrary byte
// strings decode to arbitrary topologies — zero costs, ties,
// disconnection, monopolists — and every tie-safe invariant must hold
// (engine agreement up to tie skips, IR, truthfulness, metamorphic
// laws, brute-force reference). The fast engine is excluded: its
// genericity assumption is exactly what raw byte costs violate.
func FuzzOracleInvariants(f *testing.F) {
	for _, data := range corpusTopologies(f) {
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		g, src, err := DecodeTopology(data)
		if err != nil {
			return
		}
		opt := Options{
			MaxSources:       4,
			Truthfulness:     true,
			TruthfulnessMaxN: 10,
			Metamorphic:      true,
			BruteMaxN:        8,
			Seed:             uint64(src),
		}
		failOnViolations(t, CheckInstance(g, 0, opt), data)
	})
}

// FuzzOracleEngines is the strict cross-engine target: the decoded
// topology is canonicalized (strictly positive, generically tie-free
// costs), so ALL engines must agree exactly, and a tie skip is not
// expected.
func FuzzOracleEngines(f *testing.F) {
	for _, data := range corpusTopologies(f) {
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		raw, _, err := DecodeTopology(data)
		if err != nil {
			return
		}
		g := Canonicalize(raw)
		opt := Options{MaxSources: 6, BruteMaxN: 8}
		res := CheckInstance(g, 0, opt)
		failOnViolations(t, res, data)
	})
}

// TestCorpusFilesMatchSeeds keeps the checked-in corpus files under
// testdata/fuzz in sync with the in-code seeds: every named topology
// must appear as a corpus entry for both oracle targets.
func TestCorpusFilesMatchSeeds(t *testing.T) {
	for _, target := range []string{"FuzzOracleInvariants", "FuzzOracleEngines"} {
		for name, want := range corpusTopologies(t) {
			data, err := readCorpusEntry("testdata/fuzz/"+target+"/"+name, t)
			if err != nil {
				t.Errorf("%s/%s: %v", target, name, err)
				continue
			}
			if string(data) != string(want) {
				t.Errorf("%s/%s: corpus file drifted from the in-code seed", target, name)
			}
		}
	}
}

// readCorpusEntry parses one file in the Go fuzzing corpus format:
// a "go test fuzz v1" header followed by one []byte literal.
func readCorpusEntry(path string, t *testing.T) ([]byte, error) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(lines) != 2 || lines[0] != "go test fuzz v1" {
		return nil, fmt.Errorf("not a v1 corpus file")
	}
	body := strings.TrimSuffix(strings.TrimPrefix(lines[1], "[]byte("), ")")
	s, err := strconv.Unquote(body)
	return []byte(s), err
}
