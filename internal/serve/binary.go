package serve

import (
	"bufio"
	"errors"
	"io"
	"net"
	"strconv"
	"time"

	"truthroute/internal/obs"
)

// This file is the connection-oriented binary serving plane: a TCP
// listener speaking the wire.go frame protocol next to the HTTP/JSON
// surface. Each accepted connection gets a read loop (parse frames,
// run admission, resolve the pre-serialized payload from the epoch
// snapshot) and a write loop (drain a bounded frame channel into one
// buffered writer, flushing only when the channel runs dry), so a
// pipelining client amortizes syscalls across its whole in-flight
// window on both directions. The steady-state per-quote server cost
// is a header parse, a sync.Map probe into the snapshot memo, and
// one copy of the memoized payload into the write buffer — no JSON,
// no URL parsing, no per-request allocation.

// ErrServerDraining is returned by ServeBinary when its listener was
// closed by Drain rather than by an accept failure.
var ErrServerDraining = errors.New("serve: binary listener closed by drain")

const (
	// binBacklog bounds the per-connection response channel: the
	// number of fully processed frames that may wait on the write
	// loop before the read loop stops parsing new ones. It is the
	// server-side cap on useful pipelining depth per connection.
	binBacklog = 256
	// binBufSize sizes the per-connection buffered reader and writer.
	binBufSize = 64 << 10
)

// binFrame is one response frame queued from a connection's read loop
// to its write loop. The payload aliases the snapshot memo for quote
// responses; the write loop only reads it.
type binFrame struct {
	kind    byte
	reqid   uint32
	payload []byte
}

// ServeBinary accepts connections on ln and serves the binary quote
// protocol until the listener fails or the server drains. Like
// http.Server.Serve it blocks; the daemon runs it in its own
// goroutine next to the HTTP listener. Returns ErrServerDraining
// after Drain closed the listener.
func (s *Server) ServeBinary(ln net.Listener) error {
	s.mu.Lock()
	if s.draining.Load() {
		s.mu.Unlock()
		_ = ln.Close()
		return ErrServerDraining
	}
	s.binLns = append(s.binLns, ln)
	s.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			if s.draining.Load() {
				return ErrServerDraining
			}
			return err
		}
		obsBinConns.Inc()
		s.mu.Lock()
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		go s.serveConn(conn)
	}
}

// serveConn owns one accepted connection: it starts the write loop,
// runs the read loop to completion, then closes the frame channel and
// waits for the writer's final flush before closing the socket.
func (s *Server) serveConn(conn net.Conn) {
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		_ = conn.Close()
	}()
	out := make(chan binFrame, binBacklog)
	wdone := make(chan struct{})
	go writeFrames(conn, out, wdone)
	s.readFrames(conn, out)
	close(out)
	<-wdone
}

// writeFrames is the per-connection write loop: header fill, payload
// copy, and a flush only when the channel has run dry, so a pipelined
// burst of responses leaves in as few writes as the kernel buffer
// allows. After a write error it keeps draining the channel without
// writing so the read loop can never block on a dead peer.
func writeFrames(conn net.Conn, out <-chan binFrame, done chan<- struct{}) {
	defer close(done)
	bw := bufio.NewWriterSize(conn, binBufSize)
	var hdr [FrameHeaderLen]byte
	broken := false
	for f := range out {
		if broken {
			continue
		}
		putFrameHeader(&hdr, f.kind, f.reqid, len(f.payload))
		if _, err := bw.Write(hdr[:]); err != nil {
			broken = true
			continue
		}
		if len(f.payload) > 0 {
			if _, err := bw.Write(f.payload); err != nil {
				broken = true
				continue
			}
		}
		obsBinFramesOut.Inc()
		if len(out) == 0 {
			if err := bw.Flush(); err != nil {
				broken = true
			}
		}
	}
	if !broken {
		// The read loop closed the channel; flush whatever the last
		// burst buffered. The connection is going away, so a failure
		// here has no one left to tell.
		_ = bw.Flush()
	}
}

// readFrames is the per-connection read loop. Request payloads land
// in a fixed stack buffer (both request kinds are tiny and
// fixed-size), so parsing performs no per-frame allocation. Framing
// violations answer with ErrCodeProto and drop the connection —
// after a bad length prefix there is no reliable way to find the
// next frame boundary.
func (s *Server) readFrames(conn net.Conn, out chan<- binFrame) {
	br := bufio.NewReaderSize(conn, binBufSize)
	var hdr [FrameHeaderLen]byte
	var body [binaryRequestLen]byte
	for {
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			// EOF between frames is the normal hangup; anything else
			// (truncated header, reset) has no answerable frame either.
			return
		}
		kind, reqid, n, err := parseFrameHeader(hdr[:])
		if err != nil {
			obsBinProtoErrors.Inc()
			out <- errorFrame(0, ErrCodeProto, err.Error())
			return
		}
		obsBinFramesIn.Inc()
		switch kind {
		case KindQuoteReq:
			if n != binaryRequestLen {
				obsBinProtoErrors.Inc()
				out <- errorFrame(reqid, ErrCodeProto, "quote request payload is "+strconv.Itoa(n)+" bytes, want "+strconv.Itoa(binaryRequestLen))
				return
			}
			if _, err := io.ReadFull(br, body[:]); err != nil {
				return
			}
			req, err := DecodeBinaryRequest(body[:])
			if err != nil {
				obsBinBadRequests.Inc()
				out <- errorFrame(reqid, ErrCodeBadRequest, err.Error())
				continue
			}
			if closing := s.handleBinaryQuote(out, reqid, &req); closing {
				return
			}
		case KindInfoReq:
			if n != 0 {
				obsBinProtoErrors.Inc()
				out <- errorFrame(reqid, ErrCodeProto, "info request carries a payload")
				return
			}
			info := BinaryInfo{Nodes: uint32(s.n), Shards: uint32(len(s.shards))}
			if s.draining.Load() {
				info.Draining = 1
			}
			out <- binFrame{kind: KindInfoResp, reqid: reqid, payload: EncodeBinaryInfo(nil, &info)}
		default:
			// A client has no business sending response kinds.
			obsBinProtoErrors.Inc()
			out <- errorFrame(reqid, ErrCodeProto, "unexpected frame kind from client")
			return
		}
	}
}

// handleBinaryQuote runs one quote request through admission and
// the shared resolver, queueing exactly one response frame. It reports
// closing=true when the server is draining: the error frame is queued
// first, so the client sees the reason before the hangup. An overload
// refusal is backpressure: the connection stays up.
func (s *Server) handleBinaryQuote(out chan<- binFrame, reqid uint32, req *BinaryRequest) (closing bool) {
	if ref := s.enter(); ref.Code != 0 {
		out <- errorFrame(reqid, ref.Code, ref.Msg)
		return ref.Code == ErrCodeDraining
	}
	defer s.leave()
	//lint:allow determinism wall clock feeds only the obs latency histogram, never quote output
	began := time.Now()
	payload, ref := s.resolve(int(req.Src), int(req.Dst), req.PinEpoch, &binaryPlane)
	if ref.Code != 0 {
		out <- errorFrame(reqid, ref.Code, ref.Msg)
		return false
	}
	out <- binFrame{kind: KindQuoteResp, reqid: reqid, payload: payload}
	obsBinQuotesServed.Inc()
	if obs.On() {
		//lint:allow determinism wall clock feeds only the obs latency histogram, never quote output
		obsBinLatencyNS.Observe(float64(time.Since(began).Nanoseconds()))
	}
	return false
}

// errorFrame builds one KindError response frame. Always a fresh
// allocation — error frames are the cold path by construction.
func errorFrame(reqid uint32, code uint8, msg string) binFrame {
	return binFrame{
		kind:    KindError,
		reqid:   reqid,
		payload: EncodeBinaryError(nil, &BinaryError{Code: code, Msg: msg}),
	}
}
