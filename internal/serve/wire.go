package serve

import (
	"encoding/binary"
	"fmt"
)

// This file defines the binary quote protocol: the length-prefixed,
// versioned wire format truthrouted speaks on -binary-addr, designed
// so the steady-state server cost per quote is one frame-header fill
// and one copy of a pre-serialized payload already living inside the
// epoch snapshot (Server.resolve). DESIGN.md §15 is the wire spec
// of record; the struct declarations below double as the field-order
// specification, enforced by truthlint's wireorder analyzer exactly
// like internal/dist's protocol codec.
//
// Every frame is a fixed 12-byte header followed by a payload:
//
//	magic(2)="TQ" version(1)=1 kind(1) reqid(4,BE) length(4,BE)
//
// reqid is chosen by the client and echoed verbatim on the response;
// responses to one connection are written in request order, so reqid
// is an integrity check for pipelined clients, not a reordering
// mechanism. Malformed input of any kind — bad magic, unknown
// version or kind, a length claim over MaxFramePayload, a request
// payload of the wrong size — is a protocol error: the server
// responds with ErrCodeProto and closes the connection, because a
// framing violation leaves no reliable way to resynchronize the
// stream.

// Frame header layout.
const (
	frameMagic0 = 'T'
	frameMagic1 = 'Q'

	// WireVersion is the protocol version byte carried by every frame.
	WireVersion = 1

	// FrameHeaderLen is the fixed size of the frame header.
	FrameHeaderLen = 12
)

// Frame kinds.
const (
	// KindQuoteReq asks for one payment quote (BinaryRequest payload).
	KindQuoteReq = 0x01
	// KindQuoteResp answers a quote request (BinaryQuote payload).
	KindQuoteResp = 0x02
	// KindError answers any request that failed (BinaryError payload).
	KindError = 0x03
	// KindInfoReq asks for the daemon's topology summary (empty payload).
	KindInfoReq = 0x04
	// KindInfoResp answers an info request (BinaryInfo payload).
	KindInfoResp = 0x05
)

// Error codes carried by KindError payloads.
const (
	// ErrCodeBadRequest rejects an out-of-range node id, src == dst,
	// or an engine selector other than EngineDefault or EngineFastByte.
	ErrCodeBadRequest = 0x01
	// ErrCodeNoPath reports an unreachable (src, dst) pair — the
	// binary twin of the HTTP 404.
	ErrCodeNoPath = 0x02
	// ErrCodeOverloaded reports an admission-control refusal — the
	// binary twin of the HTTP 429 backpressure signal.
	ErrCodeOverloaded = 0x03
	// ErrCodeDraining reports a server past Drain — the binary twin
	// of the HTTP 503. The server closes the connection after it.
	ErrCodeDraining = 0x04
	// ErrCodeEpochMismatch rejects a request whose PinEpoch does not
	// match the shard's current snapshot.
	ErrCodeEpochMismatch = 0x05
	// ErrCodeInternal reports a mechanism failure.
	ErrCodeInternal = 0x06
	// ErrCodeProto reports a framing violation; the server closes the
	// connection after sending it.
	ErrCodeProto = 0x07
)

// MaxFramePayload bounds the length claim of any frame: a claim past
// it is malformed regardless of the bytes that follow, so a hostile
// length prefix cannot drive a huge allocation.
const MaxFramePayload = 1 << 24

// Engine selector bytes in BinaryRequest.Engine. The daemon serves
// one engine, the paper's Algorithm 1, so both bytes select it; any
// other byte is refused with ErrCodeBadRequest.
const (
	// EngineDefault leaves the engine to the daemon.
	EngineDefault = 0x00
	// EngineFastByte names the Algorithm 1 fast engine.
	EngineFastByte = 0x01
)

// BinaryRequest is the KindQuoteReq payload. Field declaration order
// is wire order (big-endian fixed-width fields, 17 bytes total).
// PinEpoch of 0 accepts whatever epoch the shard currently publishes;
// a non-zero PinEpoch makes the server refuse with ErrCodeEpochMismatch
// instead of answering from a different epoch, which lets a client
// doing a multi-request read assert cross-request consistency.
type BinaryRequest struct {
	Src      uint32
	Dst      uint32
	Engine   uint8
	PinEpoch uint64
}

// binaryRequestLen is the exact KindQuoteReq payload size.
const binaryRequestLen = 17

// BinaryQuote is the KindQuoteResp payload: the shard and epoch the
// quote was computed on followed by the quote itself — the exact
// core.Quote JSON bytes the HTTP path serves for the same (src, dst,
// epoch), copied from the same per-snapshot memo. Field declaration
// order is wire order; Quote runs to the end of the frame.
type BinaryQuote struct {
	Shard uint32
	Epoch uint64
	Quote []byte
}

// binaryQuoteHeadLen is the fixed prefix of a KindQuoteResp payload
// (Shard + Epoch) before the variable-length quote bytes.
const binaryQuoteHeadLen = 12

// BinaryInfo is the KindInfoResp payload, the binary twin of
// /healthz's summary. Field declaration order is wire order (9 bytes).
type BinaryInfo struct {
	Nodes    uint32
	Shards   uint32
	Draining uint8
}

// binaryInfoLen is the exact KindInfoResp payload size.
const binaryInfoLen = 9

// BinaryError is the KindError payload: a one-byte code followed by a
// human-readable message running to the end of the frame. Field
// declaration order is wire order. The server also passes refusals of
// either plane around as BinaryError values; Code 0 refuses nothing.
type BinaryError struct {
	Code uint8
	Msg  string
}

// putFrameHeader fills hdr with the fixed 12-byte frame header.
func putFrameHeader(hdr *[FrameHeaderLen]byte, kind byte, reqid uint32, payloadLen int) {
	hdr[0] = frameMagic0
	hdr[1] = frameMagic1
	hdr[2] = WireVersion
	hdr[3] = kind
	binary.BigEndian.PutUint32(hdr[4:8], reqid)
	binary.BigEndian.PutUint32(hdr[8:12], uint32(payloadLen))
}

// AppendFrame appends one complete frame (header + payload) to dst.
//
//lint:allow testonly frame encoder of the out-of-module _truthbench client
func AppendFrame(dst []byte, kind byte, reqid uint32, payload []byte) []byte {
	var hdr [FrameHeaderLen]byte
	putFrameHeader(&hdr, kind, reqid, len(payload))
	dst = append(dst, hdr[:]...)
	return append(dst, payload...)
}

// EncodeBinaryRequest appends the KindQuoteReq payload of q to dst in
// declaration order.
func EncodeBinaryRequest(dst []byte, q *BinaryRequest) []byte {
	dst = binary.BigEndian.AppendUint32(dst, q.Src)
	dst = binary.BigEndian.AppendUint32(dst, q.Dst)
	dst = append(dst, q.Engine)
	return binary.BigEndian.AppendUint64(dst, q.PinEpoch)
}

// DecodeBinaryRequest parses a KindQuoteReq payload. The payload size
// is exact: anything shorter is truncated, anything longer carries
// trailing bytes; both are malformed.
func DecodeBinaryRequest(payload []byte) (BinaryRequest, error) {
	var q BinaryRequest
	if len(payload) != binaryRequestLen {
		return q, fmt.Errorf("serve: wire: quote request payload is %d bytes, want %d", len(payload), binaryRequestLen)
	}
	q.Src = binary.BigEndian.Uint32(payload[0:4])
	q.Dst = binary.BigEndian.Uint32(payload[4:8])
	q.Engine = payload[8]
	q.PinEpoch = binary.BigEndian.Uint64(payload[9:17])
	if q.Engine > EngineFastByte {
		return q, fmt.Errorf("serve: wire: unknown engine selector %d", q.Engine)
	}
	return q, nil
}

// EncodeBinaryQuote appends the KindQuoteResp payload of q to dst in
// declaration order. The server never calls this on the hot path —
// shards pre-serialize the payload once per (source, target)
// per epoch (shard.fill) — but the encoder is the executable
// specification the memo builder and the tests hold themselves to.
func EncodeBinaryQuote(dst []byte, q *BinaryQuote) []byte {
	dst = binary.BigEndian.AppendUint32(dst, q.Shard)
	dst = binary.BigEndian.AppendUint64(dst, q.Epoch)
	return append(dst, q.Quote...)
}

// DecodeBinaryQuote parses a KindQuoteResp payload. The quote bytes
// alias the input.
func DecodeBinaryQuote(payload []byte) (BinaryQuote, error) {
	var q BinaryQuote
	if len(payload) < binaryQuoteHeadLen {
		return q, fmt.Errorf("serve: wire: quote response payload is %d bytes, want at least %d", len(payload), binaryQuoteHeadLen)
	}
	q.Shard = binary.BigEndian.Uint32(payload[0:4])
	q.Epoch = binary.BigEndian.Uint64(payload[4:12])
	q.Quote = payload[binaryQuoteHeadLen:]
	if len(q.Quote) == 0 {
		return q, fmt.Errorf("serve: wire: quote response carries no quote bytes")
	}
	return q, nil
}

// EncodeBinaryInfo appends the KindInfoResp payload of i to dst in
// declaration order.
func EncodeBinaryInfo(dst []byte, i *BinaryInfo) []byte {
	dst = binary.BigEndian.AppendUint32(dst, i.Nodes)
	dst = binary.BigEndian.AppendUint32(dst, i.Shards)
	return append(dst, i.Draining)
}

// DecodeBinaryInfo parses a KindInfoResp payload.
func DecodeBinaryInfo(payload []byte) (BinaryInfo, error) {
	var i BinaryInfo
	if len(payload) != binaryInfoLen {
		return i, fmt.Errorf("serve: wire: info response payload is %d bytes, want %d", len(payload), binaryInfoLen)
	}
	i.Nodes = binary.BigEndian.Uint32(payload[0:4])
	i.Shards = binary.BigEndian.Uint32(payload[4:8])
	i.Draining = payload[8]
	if i.Draining > 1 {
		return i, fmt.Errorf("serve: wire: info draining byte is %d, want 0 or 1", i.Draining)
	}
	return i, nil
}

// EncodeBinaryError appends the KindError payload of e to dst in
// declaration order.
func EncodeBinaryError(dst []byte, e *BinaryError) []byte {
	dst = append(dst, e.Code)
	return append(dst, e.Msg...)
}

// DecodeBinaryError parses a KindError payload.
func DecodeBinaryError(payload []byte) (BinaryError, error) {
	var e BinaryError
	if len(payload) < 1 {
		return e, fmt.Errorf("serve: wire: empty error payload")
	}
	e.Code = payload[0]
	e.Msg = string(payload[1:])
	if e.Code < ErrCodeBadRequest || e.Code > ErrCodeProto {
		return e, fmt.Errorf("serve: wire: unknown error code %d", e.Code)
	}
	return e, nil
}

// parseFrameHeader validates a frame header and returns its kind,
// request id and payload length claim.
func parseFrameHeader(hdr []byte) (kind byte, reqid uint32, payloadLen int, err error) {
	if len(hdr) < FrameHeaderLen {
		return 0, 0, 0, fmt.Errorf("serve: wire: frame header is %d bytes, want %d", len(hdr), FrameHeaderLen)
	}
	if hdr[0] != frameMagic0 || hdr[1] != frameMagic1 {
		return 0, 0, 0, fmt.Errorf("serve: wire: bad magic %#02x%02x", hdr[0], hdr[1])
	}
	if hdr[2] != WireVersion {
		return 0, 0, 0, fmt.Errorf("serve: wire: unknown version %d", hdr[2])
	}
	kind = hdr[3]
	if kind < KindQuoteReq || kind > KindInfoResp {
		return 0, 0, 0, fmt.Errorf("serve: wire: unknown frame kind %#02x", kind)
	}
	reqid = binary.BigEndian.Uint32(hdr[4:8])
	n := binary.BigEndian.Uint32(hdr[8:12])
	if n > MaxFramePayload {
		return 0, 0, 0, fmt.Errorf("serve: wire: payload length claim %d exceeds %d", n, MaxFramePayload)
	}
	return kind, reqid, int(n), nil
}

// DecodeFrame parses one complete frame held in memory, rejecting
// trailing bytes — the strict single-frame parser FuzzDecodeQuoteFrame
// drives. On success the payload aliases b.
//
//lint:allow testonly frame decoder of the out-of-module _truthbench client
func DecodeFrame(b []byte) (kind byte, reqid uint32, payload []byte, err error) {
	kind, reqid, n, err := parseFrameHeader(b)
	if err != nil {
		return 0, 0, nil, err
	}
	if len(b) != FrameHeaderLen+n {
		return 0, 0, nil, fmt.Errorf("serve: wire: frame is %d bytes, header claims %d", len(b), FrameHeaderLen+n)
	}
	return kind, reqid, b[FrameHeaderLen:], nil
}
