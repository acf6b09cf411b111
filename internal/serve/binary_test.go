package serve

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"testing"
	"time"

	"truthroute/internal/obs"
)

// pipeClient wires a BinaryClient straight into a server connection
// handler over an in-memory pipe — the binary twin of driving
// ServeHTTP with httptest.
func pipeClient(t testing.TB, s *Server) *BinaryClient {
	t.Helper()
	cEnd, sEnd := net.Pipe()
	go s.serveConn(sEnd)
	t.Cleanup(func() { _ = cEnd.Close() })
	return NewBinaryClient(cEnd)
}

func TestBinaryQuoteMatchesHTTP(t *testing.T) {
	s := New(twoIslands(), Config{})
	defer s.Drain()
	c := pipeClient(t, s)
	for _, pair := range [][2]int{{0, 2}, {4, 1}, {5, 8}, {9, 6}} {
		rec := doReq(t, s, "GET", fmt.Sprintf("/quote?src=%d&dst=%d", pair[0], pair[1]), "")
		if rec.Code != http.StatusOK {
			t.Fatalf("http quote %v: status %d", pair, rec.Code)
		}
		qr := decodeQuote(t, rec)
		res, err := c.Quote(&BinaryRequest{Src: uint32(pair[0]), Dst: uint32(pair[1])})
		if err != nil {
			t.Fatalf("binary quote %v: %v", pair, err)
		}
		if res.Kind != KindQuoteResp {
			t.Fatalf("binary quote %v: kind %#02x (err %+v)", pair, res.Kind, res.Err)
		}
		if res.Quote.Epoch != qr.Epoch || int(res.Quote.Shard) != qr.Shard {
			t.Errorf("binary quote %v: shard/epoch %d/%d, http %d/%d",
				pair, res.Quote.Shard, res.Quote.Epoch, qr.Shard, qr.Epoch)
		}
		if string(res.Quote.Quote) != string(qr.Quote) {
			t.Errorf("binary quote %v differs from http:\n  binary %s\n  http   %s",
				pair, res.Quote.Quote, qr.Quote)
		}
	}
}

// TestBinaryEngineSelector: the daemon serves one engine, so the
// default selector and the fast one answer with the same bytes.
func TestBinaryEngineSelector(t *testing.T) {
	s := New(twoIslands(), Config{})
	defer s.Drain()
	c := pipeClient(t, s)
	fast, err := c.Quote(&BinaryRequest{Src: 0, Dst: 2, Engine: EngineFastByte})
	if err != nil {
		t.Fatal(err)
	}
	def, err := c.Quote(&BinaryRequest{Src: 0, Dst: 2, Engine: EngineDefault})
	if err != nil {
		t.Fatal(err)
	}
	if fast.Kind != KindQuoteResp || def.Kind != KindQuoteResp {
		t.Fatalf("kinds %#02x/%#02x", fast.Kind, def.Kind)
	}
	if string(fast.Quote.Quote) != string(def.Quote.Quote) {
		t.Errorf("selectors disagree:\n  fast    %s\n  default %s", fast.Quote.Quote, def.Quote.Quote)
	}
}

// TestBinaryErrorCodes walks the refusal codes that keep the
// connection up: bad requests, cross-component pairs, and pinned
// epochs the shard has moved past. After every refusal the same
// connection must still serve a good quote.
func TestBinaryErrorCodes(t *testing.T) {
	s := New(twoIslands(), Config{})
	defer s.Drain()
	c := pipeClient(t, s)
	cases := []struct {
		name string
		req  BinaryRequest
		code uint8
	}{
		{"src out of range", BinaryRequest{Src: 99, Dst: 1}, ErrCodeBadRequest},
		{"dst out of range", BinaryRequest{Src: 1, Dst: 99}, ErrCodeBadRequest},
		{"src == dst", BinaryRequest{Src: 3, Dst: 3}, ErrCodeBadRequest},
		{"cross component", BinaryRequest{Src: 0, Dst: 7}, ErrCodeNoPath},
		{"isolated node", BinaryRequest{Src: 10, Dst: 3}, ErrCodeNoPath},
		{"stale pin", BinaryRequest{Src: 0, Dst: 2, PinEpoch: 42}, ErrCodeEpochMismatch},
	}
	for _, tc := range cases {
		res, err := c.Quote(&tc.req)
		if err != nil {
			t.Fatalf("%s: transport error %v", tc.name, err)
		}
		if res.Kind != KindError || res.Err.Code != tc.code {
			t.Errorf("%s: kind %#02x code %d, want error code %d (%s)",
				tc.name, res.Kind, res.Err.Code, tc.code, res.Err.Msg)
		}
	}
	// A matching pin answers normally.
	res, err := c.Quote(&BinaryRequest{Src: 0, Dst: 2, PinEpoch: 1})
	if err != nil || res.Kind != KindQuoteResp {
		t.Fatalf("pinned-to-current quote: kind %#02x err %v", res.Kind, err)
	}
	// An undecodable request (bad engine selector) refuses without
	// dropping the connection.
	raw := EncodeBinaryRequest(nil, &BinaryRequest{Src: 0, Dst: 2})
	raw[8] = 9
	if err := c.send(KindQuoteReq, 77, raw); err != nil {
		t.Fatal(err)
	}
	bad, err := c.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if bad.ReqID != 77 || bad.Kind != KindError || bad.Err.Code != ErrCodeBadRequest {
		t.Fatalf("bad engine selector: %+v", bad)
	}
	if res, err := c.Quote(&BinaryRequest{Src: 0, Dst: 2}); err != nil || res.Kind != KindQuoteResp {
		t.Fatalf("connection unusable after refusals: kind %#02x err %v", res.Kind, err)
	}
}

// TestBinaryProtoViolationClosesConn: framing violations answer with
// ErrCodeProto and then drop the connection, because a corrupt length
// prefix leaves no frame boundary to recover at.
func TestBinaryProtoViolationClosesConn(t *testing.T) {
	s := New(twoIslands(), Config{})
	defer s.Drain()
	send := func(raw []byte) (BinaryResult, error) {
		c := pipeClient(t, s)
		if _, err := c.bw.Write(raw); err != nil {
			t.Fatal(err)
		}
		res, err := c.Recv()
		if err != nil {
			return res, err
		}
		// The server must hang up after the error frame.
		if _, err2 := c.Recv(); err2 != io.EOF {
			t.Errorf("connection survived a protocol violation: %v", err2)
		}
		return res, nil
	}
	quoteReq := EncodeBinaryRequest(nil, &BinaryRequest{Src: 0, Dst: 2})
	violations := []struct {
		name string
		raw  []byte
	}{
		{"bad magic", append([]byte("XX"), AppendFrame(nil, KindQuoteReq, 1, quoteReq)[2:]...)},
		{"wrong version", withByte(AppendFrame(nil, KindQuoteReq, 1, quoteReq), 2, 9)},
		{"unknown kind", withByte(AppendFrame(nil, KindQuoteReq, 1, quoteReq), 3, 0x6e)},
		{"oversized length", withByte(withByte(AppendFrame(nil, KindQuoteReq, 1, quoteReq), 8, 0xff), 9, 0xff)},
		{"quote request with wrong payload size", AppendFrame(nil, KindQuoteReq, 1, quoteReq[:5])},
		{"info request with payload", AppendFrame(nil, KindInfoReq, 1, []byte{1, 2})},
		{"response kind from client", AppendFrame(nil, KindQuoteResp, 1, EncodeBinaryQuote(nil, &BinaryQuote{Quote: []byte("{}")}))},
	}
	for _, v := range violations {
		res, err := send(v.raw)
		if err != nil {
			t.Errorf("%s: no error frame before hangup: %v", v.name, err)
			continue
		}
		if res.Kind != KindError || res.Err.Code != ErrCodeProto {
			t.Errorf("%s: kind %#02x code %d, want ErrCodeProto (%s)", v.name, res.Kind, res.Err.Code, res.Err.Msg)
		}
	}
}

func TestBinaryInfo(t *testing.T) {
	s := New(twoIslands(), Config{})
	defer s.Drain()
	c := pipeClient(t, s)
	info, err := c.Info()
	if err != nil {
		t.Fatal(err)
	}
	if info.Nodes != 11 || info.Shards != 3 || info.Draining != 0 {
		t.Errorf("info = %+v, want 11 nodes, 3 shards, not draining", info)
	}
}

// TestBinaryPipelining sends a full window of requests before reading
// any response: responses come back in request order with echoed
// reqids, and repeated keys serve the identical memoized bytes.
func TestBinaryPipelining(t *testing.T) {
	s := New(twoIslands(), Config{})
	defer s.Drain()
	c := pipeClient(t, s)
	const depth = 24
	pairs := [][2]uint32{{0, 2}, {1, 3}, {5, 8}, {9, 6}}
	for i := 0; i < depth; i++ {
		p := pairs[i%len(pairs)]
		if err := c.Send(uint32(i+1), &BinaryRequest{Src: p[0], Dst: p[1]}); err != nil {
			t.Fatal(err)
		}
	}
	first := make([]string, len(pairs))
	for i := 0; i < depth; i++ {
		res, err := c.Recv()
		if err != nil {
			t.Fatalf("response %d: %v", i, err)
		}
		if res.ReqID != uint32(i+1) {
			t.Fatalf("response %d: reqid %d, want %d (pipelined order broken)", i, res.ReqID, i+1)
		}
		if res.Kind != KindQuoteResp {
			t.Fatalf("response %d: kind %#02x (%s)", i, res.Kind, res.Err.Msg)
		}
		got := string(res.Quote.Quote)
		if i < len(pairs) {
			first[i] = got
		} else if got != first[i%len(pairs)] {
			t.Errorf("response %d: repeated key served different bytes", i)
		}
	}
}

func TestBinaryOverload(t *testing.T) {
	s := New(twoIslands(), Config{MaxInFlight: 2})
	defer s.Drain()
	c := pipeClient(t, s)
	s.inflight <- struct{}{}
	s.inflight <- struct{}{}
	res, err := c.Quote(&BinaryRequest{Src: 0, Dst: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Kind != KindError || res.Err.Code != ErrCodeOverloaded {
		t.Fatalf("overloaded quote: %+v", res)
	}
	<-s.inflight
	<-s.inflight
	if res, err := c.Quote(&BinaryRequest{Src: 0, Dst: 2}); err != nil || res.Kind != KindQuoteResp {
		t.Fatalf("quote after slots freed: kind %#02x err %v", res.Kind, err)
	}
}

// TestBinaryDrain: a connection that survives Drain gets a draining
// error frame for its next request and then the hangup.
func TestBinaryDrain(t *testing.T) {
	s := New(twoIslands(), Config{})
	c := pipeClient(t, s)
	if res, err := c.Quote(&BinaryRequest{Src: 0, Dst: 2}); err != nil || res.Kind != KindQuoteResp {
		t.Fatalf("pre-drain quote: kind %#02x err %v", res.Kind, err)
	}
	s.Drain()
	res, err := c.Quote(&BinaryRequest{Src: 0, Dst: 2})
	if err != nil {
		t.Fatalf("drain should answer before hanging up: %v", err)
	}
	if res.Kind != KindError || res.Err.Code != ErrCodeDraining {
		t.Fatalf("post-drain quote: %+v", res)
	}
	if _, err := c.Recv(); err != io.EOF {
		t.Errorf("connection survived drain: %v", err)
	}
}

// TestBinaryFrameCacheMetrics mirrors TestQuoteCacheServesIdenticalBytes
// for the binary plane: one miss builds the payload, the repeat is a
// hit, and the memo it filled is the one the HTTP plane reads.
func TestBinaryFrameCacheMetrics(t *testing.T) {
	s := New(twoIslands(), Config{})
	defer s.Drain()
	obs.Reset()
	obs.Enable()
	t.Cleanup(func() {
		obs.Disable()
		obs.Reset()
	})
	c := pipeClient(t, s)
	for i := 0; i < 2; i++ {
		if res, err := c.Quote(&BinaryRequest{Src: 0, Dst: 3}); err != nil || res.Kind != KindQuoteResp {
			t.Fatalf("quote %d: kind %#02x err %v", i, res.Kind, err)
		}
	}
	snap := obs.Default.Snapshot()
	if snap.Counters["serve.binary.frame_cache_hits"] != 1 || snap.Counters["serve.binary.frame_cache_misses"] != 1 {
		t.Errorf("frame cache hits/misses = %d/%d, want 1/1",
			snap.Counters["serve.binary.frame_cache_hits"], snap.Counters["serve.binary.frame_cache_misses"])
	}
	if snap.Counters["serve.binary.quotes_served"] != 2 {
		t.Errorf("binary quotes served = %d, want 2", snap.Counters["serve.binary.quotes_served"])
	}
	// Both planes read one memo, so an HTTP request for the key the
	// binary miss filled is a hit, and the binary miss never touched
	// the HTTP counters.
	if rec := doReq(t, s, "GET", "/quote?src=0&dst=3", ""); rec.Code != http.StatusOK {
		t.Fatalf("http quote after binary fill: %d", rec.Code)
	}
	snap = obs.Default.Snapshot()
	if snap.Counters["serve.quote_cache_hits"] != 1 || snap.Counters["serve.quote_cache_misses"] != 0 {
		t.Errorf("json cache hits/misses = %d/%d, want 1/0 (binary miss fills the shared memo)",
			snap.Counters["serve.quote_cache_hits"], snap.Counters["serve.quote_cache_misses"])
	}
}

// TestServeBinaryTCPEndToEnd runs the real thing: a TCP listener, a
// dialed client, a pipelined load run, then Drain — which must close
// the listener (ServeBinary returns ErrServerDraining) and the
// connection.
func TestServeBinaryTCPEndToEnd(t *testing.T) {
	s := New(twoIslands(), Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- s.ServeBinary(ln) }()

	c, err := DialBinary(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()
	info, err := c.Info()
	if err != nil {
		t.Fatal(err)
	}
	if info.Nodes != 11 {
		t.Fatalf("info over TCP: %+v", info)
	}

	res, err := RunLoad(BinaryQuoteDo(ln.Addr().String()), LoadOptions{N: 11, Workers: 3, Requests: 300, Seed: 7, Pipeline: 8})
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors != 0 {
		t.Fatalf("load over TCP: %d errors (%+v)", res.Errors, res)
	}
	if res.Requests != 300 || res.OK+res.NoPath != 300 {
		t.Fatalf("load accounting: %+v", res)
	}

	s.Drain()
	select {
	case err := <-serveErr:
		if err != ErrServerDraining {
			t.Fatalf("ServeBinary returned %v, want ErrServerDraining", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("ServeBinary did not return after Drain")
	}
	// The drained server closed the accepted connection too.
	if _, err := c.Quote(&BinaryRequest{Src: 0, Dst: 2}); err == nil {
		t.Fatal("quote succeeded on a drained server")
	}
	// A listener offered after drain is refused immediately.
	ln2, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.ServeBinary(ln2); err != ErrServerDraining {
		t.Fatalf("ServeBinary after drain: %v", err)
	}
}

// namedDial is one of RunLoad's transports under a subtest name.
type namedDial struct {
	name string
	dial func() (LoadTransport, error)
}

// loadTransports are RunLoad's two transports wired into s in-process:
// HTTP through ServeHTTP, binary over net.Pipe connections.
func loadTransports(s *Server) []namedDial {
	return []namedDial{{"http", inProcHTTP(s)}, {"binary", inProcBinary(s)}}
}

// TestRunLoadBinaryAccounting drives the in-process handler through
// the windowed load driver over both transports and checks the books
// add up for every outcome class.
func TestRunLoadBinaryAccounting(t *testing.T) {
	s := New(twoIslands(), Config{})
	defer s.Drain()
	for _, tr := range loadTransports(s) {
		t.Run(tr.name, func(t *testing.T) {
			res, err := RunLoad(tr.dial, LoadOptions{N: 11, Workers: 4, Requests: 400, Seed: 3, Pipeline: 16})
			if err != nil {
				t.Fatal(err)
			}
			if res.Requests != 400 {
				t.Fatalf("requests = %d, want 400", res.Requests)
			}
			if res.Errors != 0 || res.Rejected != 0 {
				t.Fatalf("unexpected failures: %+v", res)
			}
			// twoIslands has three components, so the seeded pair draw is
			// guaranteed to cross one eventually.
			if res.NoPath == 0 {
				t.Error("no cross-component pair drawn in 400 seeded requests")
			}
			if res.OK+res.NoPath != 400 {
				t.Fatalf("answered %d of %d: %+v", res.OK+res.NoPath, 400, res)
			}
			if res.Percentile(50) <= 0 || res.Percentile(99) < res.Percentile(50) {
				t.Fatalf("implausible percentiles: p50 %v p99 %v", res.Percentile(50), res.Percentile(99))
			}
			if _, err := RunLoad(tr.dial, LoadOptions{N: 1, Workers: 1, Requests: 10}); err == nil {
				t.Fatal("single-node load accepted")
			}
		})
	}
}

// TestRefusalParity pins every refusal class to the HTTP status and
// the binary ErrCode each plane answered it with before the planes
// shared one admission step and one resolver.
func TestRefusalParity(t *testing.T) {
	overload := func(s *Server) func() {
		s.inflight <- struct{}{}
		s.inflight <- struct{}{}
		return func() {
			<-s.inflight
			<-s.inflight
		}
	}
	drain := func(s *Server) func() {
		s.Drain()
		return func() {}
	}
	// The daemon serves one engine: selector byte 0x02 and
	// ?engine=naive, which name the naive one, are bad requests.
	const naive = 0x02
	cases := []struct {
		name     string
		src, dst int
		engine   uint8
		setup    func(*Server) func()
		status   int
		code     uint8
	}{
		{"out of range", 0, 99, 0, nil, http.StatusBadRequest, ErrCodeBadRequest},
		{"same endpoint", 3, 3, 0, nil, http.StatusBadRequest, ErrCodeBadRequest},
		{"naive engine", 0, 2, naive, nil, http.StatusBadRequest, ErrCodeBadRequest},
		{"cross component", 0, 7, 0, nil, http.StatusNotFound, ErrCodeNoPath},
		{"overloaded", 0, 2, 0, overload, http.StatusTooManyRequests, ErrCodeOverloaded},
		{"draining", 0, 2, 0, drain, http.StatusServiceUnavailable, ErrCodeDraining},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := New(twoIslands(), Config{MaxInFlight: 2})
			defer s.Drain()
			c := pipeClient(t, s)
			if tc.setup != nil {
				defer tc.setup(s)()
			}
			target := fmt.Sprintf("/quote?src=%d&dst=%d", tc.src, tc.dst)
			if tc.engine == naive {
				target += "&engine=naive"
			}
			rec := doReq(t, s, "GET", target, "")
			if rec.Code != tc.status {
				t.Errorf("http: status %d, want %d (%s)", rec.Code, tc.status, rec.Body.String())
			}
			res, err := c.Quote(&BinaryRequest{Src: uint32(tc.src), Dst: uint32(tc.dst), Engine: tc.engine})
			if err != nil {
				t.Fatal(err)
			}
			if res.Kind != KindError || res.Err.Code != tc.code {
				t.Errorf("binary: kind %#02x code %d, want error code %d (%s)", res.Kind, res.Err.Code, tc.code, res.Err.Msg)
			}
			if tc.engine == naive {
				// A bad request keeps the connection: it then serves.
				if res, err := c.Quote(&BinaryRequest{Src: 0, Dst: 2}); err != nil || res.Kind != KindQuoteResp {
					t.Fatalf("connection unusable after the refusal: kind %#02x err %v", res.Kind, err)
				}
			}
		})
	}
}
