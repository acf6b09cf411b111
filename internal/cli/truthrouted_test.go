package cli

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"truthroute/internal/graph"
	"truthroute/internal/serve"
)

// writeTopology marshals a random biconnected NodeGraph to a JSON
// file truthrouted can load.
func writeTopology(t *testing.T, n int) string {
	t.Helper()
	rng := rand.New(rand.NewPCG(99, 0))
	g := graph.RandomBiconnected(n, 0.3, rng)
	g.RandomizeCosts(0.5, 8, rng)
	blob, err := json.Marshal(g)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "net.json")
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// startDaemon runs RunTruthrouted on a free port and waits for the
// -addr-file to appear. It returns the bound address, the path of the
// addr file, and a channel delivering the daemon's exit code.
func startDaemon(t *testing.T, topo string, stdout, stderr *bytes.Buffer, extra ...string) (addr, addrFile string, done chan int) {
	t.Helper()
	addrFile = filepath.Join(t.TempDir(), "addr")
	done = make(chan int, 1)
	args := append([]string{"-topology", topo, "-addr", "127.0.0.1:0", "-addr-file", addrFile}, extra...)
	go func() {
		done <- RunTruthrouted(args, stdout, stderr)
	}()
	deadline := time.Now().Add(10 * time.Second)
	for {
		blob, err := os.ReadFile(addrFile)
		if err == nil && strings.Contains(string(blob), ":") {
			return strings.TrimSpace(string(blob)), addrFile, done
		}
		select {
		case code := <-done:
			t.Fatalf("daemon exited early with %d: %s", code, stderr.String())
		default:
		}
		if time.Now().After(deadline) {
			t.Fatal("daemon never wrote its addr file")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestTruthroutedServeLoadDrain is the daemon lifecycle test: start
// on a free port, serve a quote over real HTTP, run quoteload against
// it (including the benchreport pipeline hand-off), then SIGTERM and
// expect a clean drain.
func TestTruthroutedServeLoadDrain(t *testing.T) {
	topo := writeTopology(t, 24)
	var stdout, stderr bytes.Buffer
	addr, addrFile, done := startDaemon(t, topo, &stdout, &stderr)

	resp, err := http.Get(fmt.Sprintf("http://%s/quote?src=0&dst=5", addr))
	if err != nil {
		t.Fatal(err)
	}
	var qr serve.QuoteResponse
	err = json.NewDecoder(resp.Body).Decode(&qr)
	_ = resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("quote over HTTP: status %d err %v", resp.StatusCode, err)
	}
	if qr.Epoch != 1 || len(qr.Quote) == 0 {
		t.Fatalf("unexpected quote response: %+v", qr)
	}

	var lout, lerr bytes.Buffer
	code := RunQuoteload(
		[]string{"-addr", "file:" + addrFile, "-requests", "300", "-workers", "3",
			"-seed", "7", "-bench", "BenchmarkServeQuoteLoadHTTP"},
		&lout, &lerr)
	if code != 0 {
		t.Fatalf("quoteload exit %d: %s", code, lerr.String())
	}
	if !strings.Contains(lout.String(), "300 requests in") {
		t.Fatalf("quoteload summary missing: %q", lout.String())
	}
	// The -bench line must round-trip through the benchreport parser
	// with the custom units intact — that is the artifact pipeline.
	report, err := ParseBenchOutput(strings.NewReader(lout.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Benchmarks) != 1 || report.Benchmarks[0].Name != "BenchmarkServeQuoteLoadHTTP" {
		t.Fatalf("bench line did not parse: %+v", report.Benchmarks)
	}
	ex := report.Benchmarks[0].Extra
	if ex["qps"] <= 0 || ex["p50-ns"] <= 0 || ex["p99-ns"] < ex["p50-ns"] {
		t.Fatalf("implausible load metrics: %v", ex)
	}

	if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case code := <-done:
		if code != 0 {
			t.Fatalf("daemon exit %d: %s", code, stderr.String())
		}
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not drain after SIGTERM")
	}
	if out := stdout.String(); !strings.Contains(out, "draining") || !strings.Contains(out, "drained") {
		t.Fatalf("daemon output missing drain trace: %q", out)
	}
}

// TestTruthroutedBinaryServeLoadDrain is the binary-plane lifecycle
// test: the daemon brings up both listeners, a pipelined quoteload
// drives the framed protocol, both surfaces answer for the same
// topology, and SIGTERM drains the binary listener too.
func TestTruthroutedBinaryServeLoadDrain(t *testing.T) {
	topo := writeTopology(t, 24)
	binAddrFile := filepath.Join(t.TempDir(), "binaddr")
	var stdout, stderr bytes.Buffer
	addr, _, done := startDaemon(t, topo, &stdout, &stderr,
		"-binary-addr", "127.0.0.1:0", "-binary-addr-file", binAddrFile)

	deadline := time.Now().Add(10 * time.Second)
	for {
		if blob, err := os.ReadFile(binAddrFile); err == nil && strings.Contains(string(blob), ":") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("daemon never wrote its binary addr file")
		}
		time.Sleep(10 * time.Millisecond)
	}

	var lout, lerr bytes.Buffer
	code := RunQuoteload(
		[]string{"-addr", "file:" + binAddrFile, "-proto", "binary", "-pipeline", "8",
			"-requests", "400", "-workers", "3", "-seed", "7",
			"-bench", "BenchmarkServeQuoteLoadBinary"},
		&lout, &lerr)
	if code != 0 {
		t.Fatalf("quoteload exit %d: %s", code, lerr.String())
	}
	if !strings.Contains(lout.String(), "400 requests in") {
		t.Fatalf("quoteload summary missing: %q", lout.String())
	}
	report, err := ParseBenchOutput(strings.NewReader(lout.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Benchmarks) != 1 || report.Benchmarks[0].Name != "BenchmarkServeQuoteLoadBinary" {
		t.Fatalf("bench line did not parse: %+v", report.Benchmarks)
	}
	ex := report.Benchmarks[0].Extra
	if ex["qps"] <= 0 || ex["p50-ns"] <= 0 || ex["p99-ns"] < ex["p50-ns"] {
		t.Fatalf("implausible load metrics: %v", ex)
	}

	// Both planes serve the same topology: an HTTP quote and a binary
	// quote for the same pair carry identical bytes.
	resp, err := http.Get(fmt.Sprintf("http://%s/quote?src=0&dst=5", addr))
	if err != nil {
		t.Fatal(err)
	}
	var qr serve.QuoteResponse
	err = json.NewDecoder(resp.Body).Decode(&qr)
	_ = resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("quote over HTTP: status %d err %v", resp.StatusCode, err)
	}
	blob, err := os.ReadFile(binAddrFile)
	if err != nil {
		t.Fatal(err)
	}
	bc, err := serve.DialBinary(strings.TrimSpace(string(blob)))
	if err != nil {
		t.Fatal(err)
	}
	res, err := bc.Quote(&serve.BinaryRequest{Src: 0, Dst: 5})
	if err != nil {
		t.Fatal(err)
	}
	_ = bc.Close()
	if res.Kind != serve.KindQuoteResp || string(res.Quote.Quote) != string(qr.Quote) {
		t.Fatalf("binary quote differs from http over real sockets:\n  binary %s\n  http   %s",
			res.Quote.Quote, qr.Quote)
	}

	if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case code := <-done:
		if code != 0 {
			t.Fatalf("daemon exit %d: %s", code, stderr.String())
		}
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not drain after SIGTERM")
	}
	if out := stdout.String(); !strings.Contains(out, "binary quote protocol on") || !strings.Contains(out, "drained") {
		t.Fatalf("daemon output missing binary listener or drain trace: %q", out)
	}
}

func TestTruthroutedFlagErrors(t *testing.T) {
	var out, errb bytes.Buffer
	if code := RunTruthrouted(nil, &out, &errb); code != 2 {
		t.Fatalf("missing -topology: exit %d", code)
	}
	// The daemon serves one engine, so -engine is an unknown flag.
	if code := RunTruthrouted([]string{"-topology", "x.json", "-engine", "naive"}, &out, &errb); code != 2 {
		t.Fatalf("-engine naive: exit %d", code)
	}
	if code := RunTruthrouted([]string{"-topology", filepath.Join(t.TempDir(), "missing.json")}, &out, &errb); code != 1 {
		t.Fatalf("missing topology file: exit %d", code)
	}
	topo := writeTopology(t, 8)
	if code := RunTruthrouted([]string{"-topology", topo, "-addr", "127.0.0.1:0",
		"-binary-addr", "256.0.0.1:0"}, &out, &errb); code != 1 {
		t.Fatalf("unlistenable binary addr: exit %d", code)
	}
	if code := RunTruthrouted([]string{"-topology", topo, "-addr", "127.0.0.1:0",
		"-binary-addr", "127.0.0.1:0",
		"-binary-addr-file", filepath.Join(t.TempDir(), "no", "such", "dir", "f")}, &out, &errb); code != 1 {
		t.Fatalf("unwritable binary addr file: exit %d", code)
	}
}

func TestQuoteloadErrors(t *testing.T) {
	var out, errb bytes.Buffer
	if code := RunQuoteload([]string{"-addr", "file:" + filepath.Join(t.TempDir(), "gone")}, &out, &errb); code != 1 {
		t.Fatalf("missing addr file: exit %d", code)
	}
	// Nothing listens on the discard port: every request errors and
	// the tool must exit nonzero.
	errb.Reset()
	code := RunQuoteload([]string{"-addr", "127.0.0.1:9", "-n", "8", "-requests", "3", "-workers", "1"}, &out, &errb)
	if code != 1 {
		t.Fatalf("unreachable daemon: exit %d stderr %s", code, errb.String())
	}
	if code := RunQuoteload([]string{"-proto", "carrier-pigeon"}, &out, &errb); code != 2 {
		t.Fatalf("unknown proto: exit %d", code)
	}
	if code := RunQuoteload([]string{"-proto", "http", "-pipeline", "4"}, &out, &errb); code != 2 {
		t.Fatalf("pipelined http: exit %d", code)
	}
	if code := RunQuoteload([]string{"-proto", "binary", "-addr", "http://127.0.0.1:9"}, &out, &errb); code != 2 {
		t.Fatalf("binary with URL addr: exit %d", code)
	}
	// Nothing listens: the binary info probe fails and the tool exits 1.
	if code := RunQuoteload([]string{"-proto", "binary", "-addr", "127.0.0.1:9", "-requests", "3", "-workers", "1"}, &out, &errb); code != 1 {
		t.Fatalf("unreachable binary daemon: exit %d", code)
	}
}
