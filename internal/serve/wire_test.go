package serve

import (
	"bytes"
	"fmt"
	"io"
	"strings"
	"testing"
)

func TestBinaryRequestRoundTrip(t *testing.T) {
	for _, req := range []BinaryRequest{
		{Src: 0, Dst: 1},
		{Src: 3, Dst: 7, Engine: EngineFastByte},
		{Src: 1 << 30, Dst: 9, Engine: EngineDefault, PinEpoch: 1<<63 + 5},
	} {
		payload := EncodeBinaryRequest(nil, &req)
		if len(payload) != binaryRequestLen {
			t.Fatalf("request payload is %d bytes, want %d", len(payload), binaryRequestLen)
		}
		got, err := DecodeBinaryRequest(payload)
		if err != nil {
			t.Fatalf("decode %+v: %v", req, err)
		}
		if got != req {
			t.Errorf("round trip %+v -> %+v", req, got)
		}
	}
}

func TestBinaryQuoteRoundTrip(t *testing.T) {
	q := BinaryQuote{Shard: 3, Epoch: 41, Quote: []byte(`{"source":1}`)}
	payload := EncodeBinaryQuote(nil, &q)
	got, err := DecodeBinaryQuote(payload)
	if err != nil {
		t.Fatal(err)
	}
	if got.Shard != q.Shard || got.Epoch != q.Epoch || !bytes.Equal(got.Quote, q.Quote) {
		t.Errorf("round trip %+v -> %+v", q, got)
	}
}

func TestBinaryInfoAndErrorRoundTrip(t *testing.T) {
	i := BinaryInfo{Nodes: 96, Shards: 2, Draining: 1}
	gotI, err := DecodeBinaryInfo(EncodeBinaryInfo(nil, &i))
	if err != nil {
		t.Fatal(err)
	}
	if gotI != i {
		t.Errorf("info round trip %+v -> %+v", i, gotI)
	}
	e := BinaryError{Code: ErrCodeNoPath, Msg: "no path"}
	gotE, err := DecodeBinaryError(EncodeBinaryError(nil, &e))
	if err != nil {
		t.Fatal(err)
	}
	if gotE != e {
		t.Errorf("error round trip %+v -> %+v", e, gotE)
	}
}

// TestDecodeFrameMalformed is the error-path contract: every framing
// violation decodes to an error, never to a frame and never to a
// panic.
func TestDecodeFrameMalformed(t *testing.T) {
	valid := AppendFrame(nil, KindQuoteReq, 1, EncodeBinaryRequest(nil, &BinaryRequest{Src: 0, Dst: 1}))
	cases := []struct {
		name string
		b    []byte
		want string
	}{
		{"empty", nil, "frame header"},
		{"short header", valid[:5], "frame header"},
		{"bad magic", append([]byte("XX"), valid[2:]...), "bad magic"},
		{"wrong version", withByte(valid, 2, 9), "unknown version"},
		{"unknown kind", withByte(valid, 3, 0x7f), "unknown frame kind"},
		{"kind zero", withByte(valid, 3, 0), "unknown frame kind"},
		{"oversized length claim", withByte(withByte(valid, 8, 0xff), 9, 0xff), "length claim"},
		{"truncated payload", valid[:len(valid)-3], "claims"},
		{"trailing bytes", append(append([]byte{}, valid...), 0xee), "claims"},
	}
	for _, tc := range cases {
		_, _, _, err := DecodeFrame(tc.b)
		if err == nil {
			t.Errorf("%s: decoded without error", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

func withByte(b []byte, i int, v byte) []byte {
	out := append([]byte{}, b...)
	out[i] = v
	return out
}

func TestDecodePayloadsMalformed(t *testing.T) {
	if _, err := DecodeBinaryRequest(make([]byte, binaryRequestLen-1)); err == nil {
		t.Error("short quote request decoded")
	}
	if _, err := DecodeBinaryRequest(make([]byte, binaryRequestLen+1)); err == nil {
		t.Error("long quote request decoded")
	}
	bad := EncodeBinaryRequest(nil, &BinaryRequest{Src: 0, Dst: 1})
	for _, sel := range []byte{0x02, 9} { // only 0x00 and 0x01 are served
		bad[8] = sel
		if _, err := DecodeBinaryRequest(bad); err == nil {
			t.Errorf("engine selector %#02x decoded", sel)
		}
	}
	if _, err := DecodeBinaryQuote(make([]byte, binaryQuoteHeadLen-1)); err == nil {
		t.Error("short quote response decoded")
	}
	if _, err := DecodeBinaryQuote(make([]byte, binaryQuoteHeadLen)); err == nil {
		t.Error("quote response without quote bytes decoded")
	}
	if _, err := DecodeBinaryInfo(make([]byte, binaryInfoLen+2)); err == nil {
		t.Error("long info decoded")
	}
	info := EncodeBinaryInfo(nil, &BinaryInfo{Nodes: 1, Shards: 1, Draining: 2})
	if _, err := DecodeBinaryInfo(info); err == nil {
		t.Error("info with draining byte 2 decoded")
	}
	if _, err := DecodeBinaryError(nil); err == nil {
		t.Error("empty error payload decoded")
	}
	if _, err := DecodeBinaryError([]byte{0xee}); err == nil {
		t.Error("unknown error code decoded")
	}
}

// TestReadFrameStream checks the stream reader against the in-memory
// decoder: frames concatenated on one stream parse back one at a
// time, a truncated tail is io.ErrUnexpectedEOF, and a clean end is
// io.EOF.
func TestReadFrameStream(t *testing.T) {
	var stream []byte
	stream = AppendFrame(stream, KindQuoteReq, 1, EncodeBinaryRequest(nil, &BinaryRequest{Src: 2, Dst: 3}))
	stream = AppendFrame(stream, KindInfoReq, 2, nil)
	stream = AppendFrame(stream, KindError, 3, EncodeBinaryError(nil, &BinaryError{Code: ErrCodeDraining, Msg: "draining"}))
	r := bytes.NewReader(stream)
	for want := uint32(1); want <= 3; want++ {
		_, reqid, _, err := ReadFrame(r)
		if err != nil {
			t.Fatalf("frame %d: %v", want, err)
		}
		if reqid != want {
			t.Fatalf("frame %d: reqid %d", want, reqid)
		}
	}
	if _, _, _, err := ReadFrame(r); err != io.EOF {
		t.Fatalf("clean end: %v, want io.EOF", err)
	}
	// A stream cut mid-frame errors on the cut frame, not io.EOF.
	tr := bytes.NewReader(stream[:len(stream)-2])
	var err error
	for err == nil {
		_, _, _, err = ReadFrame(tr)
	}
	if err == io.EOF {
		t.Fatal("truncated tail read as a clean end")
	}
}

// FuzzDecodeQuoteFrame hardens the frame parser the way
// FuzzDecodeMessage hardens the dist codec: arbitrary bytes must
// error or decode, never panic, and every accepted frame must
// re-encode to the identical bytes (the codec is canonical: one
// frame, one byte string).
func FuzzDecodeQuoteFrame(f *testing.F) {
	f.Add(AppendFrame(nil, KindQuoteReq, 1, EncodeBinaryRequest(nil, &BinaryRequest{Src: 2, Dst: 5, Engine: EngineFastByte})))
	f.Add(AppendFrame(nil, KindQuoteReq, 2, EncodeBinaryRequest(nil, &BinaryRequest{Src: 2, Dst: 5, PinEpoch: 7})))
	f.Add(AppendFrame(nil, KindInfoReq, 3, nil))
	f.Add(AppendFrame(nil, KindQuoteResp, 4, EncodeBinaryQuote(nil, &BinaryQuote{Shard: 0, Epoch: 1, Quote: []byte(`{"a":1}`)})))
	f.Add(AppendFrame(nil, KindInfoResp, 5, EncodeBinaryInfo(nil, &BinaryInfo{Nodes: 96, Shards: 1})))
	f.Add(AppendFrame(nil, KindError, 6, EncodeBinaryError(nil, &BinaryError{Code: ErrCodeNoPath, Msg: "no path"})))
	f.Fuzz(func(t *testing.T, data []byte) {
		kind, reqid, payload, err := DecodeFrame(data)
		if err != nil {
			return
		}
		var re []byte
		switch kind {
		case KindQuoteReq:
			req, err := DecodeBinaryRequest(payload)
			if err != nil {
				return
			}
			re = AppendFrame(nil, kind, reqid, EncodeBinaryRequest(nil, &req))
		case KindQuoteResp:
			q, err := DecodeBinaryQuote(payload)
			if err != nil {
				return
			}
			re = AppendFrame(nil, kind, reqid, EncodeBinaryQuote(nil, &q))
		case KindInfoResp:
			i, err := DecodeBinaryInfo(payload)
			if err != nil {
				return
			}
			re = AppendFrame(nil, kind, reqid, EncodeBinaryInfo(nil, &i))
		case KindError:
			e, err := DecodeBinaryError(payload)
			if err != nil {
				return
			}
			re = AppendFrame(nil, kind, reqid, EncodeBinaryError(nil, &e))
		case KindInfoReq:
			re = AppendFrame(nil, kind, reqid, payload)
		default:
			t.Fatalf("DecodeFrame accepted unknown kind %#02x", kind)
		}
		if !bytes.Equal(re, data) {
			t.Fatalf("re-encode differs:\n  in  %x\n  out %x", data, re)
		}
	})
}

// ReadFrame reads one complete frame from r, the stream reference the
// tests hold the framing to; the server's read loop and BinaryClient
// inline the same parse over reused buffers. A clean EOF before any
// header byte returns io.EOF; a truncated header or payload returns
// io.ErrUnexpectedEOF.
func ReadFrame(r io.Reader) (kind byte, reqid uint32, payload []byte, err error) {
	var hdr [FrameHeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.ErrUnexpectedEOF {
			return 0, 0, nil, fmt.Errorf("serve: wire: truncated frame header: %w", err)
		}
		return 0, 0, nil, err
	}
	kind, reqid, n, err := parseFrameHeader(hdr[:])
	if err != nil {
		return 0, 0, nil, err
	}
	if n > 0 {
		payload = make([]byte, n)
		if m, err := io.ReadFull(r, payload); err != nil {
			return 0, 0, nil, fmt.Errorf("serve: wire: truncated payload (%d of %d bytes): %w", m, n, err)
		}
	}
	return kind, reqid, payload, nil
}
