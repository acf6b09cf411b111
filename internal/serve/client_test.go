package serve

import (
	"io"
	"net"
	"strings"
	"testing"
	"time"
)

// scriptedPeer runs fn as the server end of an in-memory connection,
// reading raw frames and writing raw bytes — for exercising the
// client's error paths against responses no real server would send.
func scriptedPeer(t *testing.T, fn func(conn net.Conn)) *BinaryClient {
	t.Helper()
	cEnd, sEnd := net.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		defer func() { _ = sEnd.Close() }()
		fn(sEnd)
	}()
	t.Cleanup(func() {
		_ = cEnd.Close()
		<-done
	})
	return NewBinaryClient(cEnd)
}

// readOneFrame consumes one request frame from the scripted peer's
// end so the client's flush is not left blocking on the pipe.
func readOneFrame(t *testing.T, conn net.Conn) (kind byte, reqid uint32) {
	t.Helper()
	kind, reqid, _, err := ReadFrame(conn)
	if err != nil {
		t.Errorf("scripted peer read: %v", err)
	}
	return kind, reqid
}

func TestBinaryClientExplicitFlush(t *testing.T) {
	got := make(chan byte, 1)
	c := scriptedPeer(t, func(conn net.Conn) {
		kind, _ := readOneFrame(t, conn)
		got <- kind
	})
	if err := c.Send(1, &BinaryRequest{Src: 0, Dst: 1}); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	select {
	case kind := <-got:
		if kind != KindQuoteReq {
			t.Fatalf("peer saw kind %#02x", kind)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("explicit Flush never reached the peer")
	}
}

func TestBinaryClientRecvErrors(t *testing.T) {
	cases := []struct {
		name string
		peer func(t *testing.T, conn net.Conn)
		want string
	}{
		{"request kind from server", func(t *testing.T, conn net.Conn) {
			_, reqid := readOneFrame(t, conn)
			_, _ = conn.Write(AppendFrame(nil, KindQuoteReq, reqid, EncodeBinaryRequest(nil, &BinaryRequest{Src: 0, Dst: 1})))
		}, "request kind"},
		{"bad magic from server", func(t *testing.T, conn net.Conn) {
			readOneFrame(t, conn)
			raw := AppendFrame(nil, KindInfoResp, 1, EncodeBinaryInfo(nil, &BinaryInfo{Nodes: 1, Shards: 1}))
			raw[0] = 'X'
			_, _ = conn.Write(raw)
		}, "bad magic"},
		{"truncated payload then hangup", func(t *testing.T, conn net.Conn) {
			readOneFrame(t, conn)
			raw := AppendFrame(nil, KindInfoResp, 1, EncodeBinaryInfo(nil, &BinaryInfo{Nodes: 1, Shards: 1}))
			_, _ = conn.Write(raw[:len(raw)-3])
		}, "unexpected EOF"},
		{"undecodable error payload", func(t *testing.T, conn net.Conn) {
			_, reqid := readOneFrame(t, conn)
			_, _ = conn.Write(AppendFrame(nil, KindError, reqid, nil))
		}, "error payload"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := scriptedPeer(t, func(conn net.Conn) { tc.peer(t, conn) })
			if err := c.SendInfo(1); err != nil {
				t.Fatal(err)
			}
			_, err := c.Recv()
			if err == nil {
				t.Fatal("Recv accepted a malformed response")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

func TestBinaryClientConvenienceErrors(t *testing.T) {
	// Quote with a mismatched reqid from the server.
	c := scriptedPeer(t, func(conn net.Conn) {
		readOneFrame(t, conn)
		_, _ = conn.Write(AppendFrame(nil, KindQuoteResp, 999, EncodeBinaryQuote(nil, &BinaryQuote{Quote: []byte("{}")})))
	})
	if _, err := c.Quote(&BinaryRequest{Src: 0, Dst: 1}); err == nil || !strings.Contains(err.Error(), "reqid") {
		t.Fatalf("mismatched quote reqid: %v", err)
	}

	// Info with a mismatched reqid.
	c = scriptedPeer(t, func(conn net.Conn) {
		readOneFrame(t, conn)
		_, _ = conn.Write(AppendFrame(nil, KindInfoResp, 999, EncodeBinaryInfo(nil, &BinaryInfo{Nodes: 1, Shards: 1})))
	})
	if _, err := c.Info(); err == nil || !strings.Contains(err.Error(), "reqid") {
		t.Fatalf("mismatched info reqid: %v", err)
	}

	// Info refused with an error frame.
	c = scriptedPeer(t, func(conn net.Conn) {
		_, reqid := readOneFrame(t, conn)
		_, _ = conn.Write(AppendFrame(nil, KindError, reqid, EncodeBinaryError(nil, &BinaryError{Code: ErrCodeDraining, Msg: "draining"})))
	})
	if _, err := c.Info(); err == nil || !strings.Contains(err.Error(), "refused") {
		t.Fatalf("refused info: %v", err)
	}

	// Info answered with the wrong response kind.
	c = scriptedPeer(t, func(conn net.Conn) {
		_, reqid := readOneFrame(t, conn)
		_, _ = conn.Write(AppendFrame(nil, KindQuoteResp, reqid, EncodeBinaryQuote(nil, &BinaryQuote{Quote: []byte("{}")})))
	})
	if _, err := c.Info(); err == nil || !strings.Contains(err.Error(), "kind") {
		t.Fatalf("wrong-kind info: %v", err)
	}

	// Hangup before any response: Quote surfaces the transport error.
	c = scriptedPeer(t, func(conn net.Conn) {
		readOneFrame(t, conn)
	})
	if _, err := c.Quote(&BinaryRequest{Src: 0, Dst: 1}); err != io.EOF {
		t.Fatalf("hangup before response: %v", err)
	}
}

// TestWriteFramesBrokenPeer: the write loop must keep draining its
// channel after the peer dies so the read loop can never block
// queueing responses for a dead connection.
func TestWriteFramesBrokenPeer(t *testing.T) {
	cEnd, sEnd := net.Pipe()
	_ = cEnd.Close() // every write now fails
	out := make(chan binFrame, 4)
	done := make(chan struct{})
	go writeFrames(sEnd, out, done)
	for i := 0; i < 16; i++ {
		select {
		case out <- errorFrame(uint32(i), ErrCodeInternal, "x"):
		case <-time.After(5 * time.Second):
			t.Fatal("write loop stopped draining after peer death")
		}
	}
	close(out)
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("write loop never exited")
	}
	_ = sEnd.Close()
}

// TestRunLoadBinaryPacedDuration covers the QPS-paced, duration-bound
// worker loop and the dial-failure path over both transports.
func TestRunLoadBinaryPacedDuration(t *testing.T) {
	s := New(twoIslands(), Config{})
	defer s.Drain()
	for _, tr := range loadTransports(s) {
		t.Run(tr.name, func(t *testing.T) {
			res, err := RunLoad(tr.dial, LoadOptions{
				N: 11, Workers: 2, Duration: 300 * time.Millisecond, QPS: 200, Seed: 5, Pipeline: 4,
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.Errors != 0 || res.Requests == 0 {
				t.Fatalf("paced run: %+v", res)
			}
			// 200 qps for 0.3s is ~60 requests; pacing failed if the run
			// closed the loop flat out.
			if res.Requests > 120 {
				t.Fatalf("pacing had no effect: %d requests in 300ms at 200 qps", res.Requests)
			}
			if res.QPS() <= 0 {
				t.Fatalf("qps = %f", res.QPS())
			}
		})
	}

	failDial := func() (LoadTransport, error) { return nil, io.ErrClosedPipe }
	res, err := RunLoad(failDial, LoadOptions{N: 11, Workers: 3, Requests: 30})
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors != 3 || res.OK != 0 {
		t.Fatalf("dial failures: %+v", res)
	}
}

// TestRunLoadPacedDeadline: a paced worker whose next tick falls past
// the deadline stops at the deadline instead of sleeping to the tick
// and sending one more request. At 1 qps with a 100ms budget that is
// one request and an elapsed time near 100ms, not two requests and 1s.
func TestRunLoadPacedDeadline(t *testing.T) {
	s := New(twoIslands(), Config{})
	defer s.Drain()
	const duration, slack = 100 * time.Millisecond, 200 * time.Millisecond
	for _, tr := range loadTransports(s) {
		t.Run(tr.name, func(t *testing.T) {
			res, err := RunLoad(tr.dial, LoadOptions{N: 4, Workers: 1, QPS: 1, Duration: duration})
			if err != nil {
				t.Fatal(err)
			}
			if res.Requests != 1 || res.Errors != 0 {
				t.Errorf("requests %d, errors %d; want 1 request and no errors", res.Requests, res.Errors)
			}
			if res.Elapsed >= duration+slack {
				t.Errorf("elapsed %v, want under %v", res.Elapsed, duration+slack)
			}
		})
	}
}
