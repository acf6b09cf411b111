package serve

import (
	"bufio"
	"fmt"
	"io"
	"net"
)

// BinaryClient is a connection-reusing client for the binary quote
// protocol. It is deliberately minimal: Send buffers one request
// frame without flushing, Recv returns the next response frame
// (flushing pending sends first), so a caller pipelines by issuing
// several Sends before its first Recv. Responses arrive in request
// order; the echoed reqid lets the caller assert it. The client is
// not safe for concurrent use — the load generator gives each worker
// its own connection, which is also the deployment shape the server
// is tuned for.
type BinaryClient struct {
	conn net.Conn
	br   *bufio.Reader
	bw   *bufio.Writer
	// scratch is the reused request-frame build buffer; a Send is
	// zero-allocation once it has grown to frame size.
	scratch []byte
	// rbuf is the reused response-payload buffer: Recv results alias
	// it, so a steady-state Recv performs no allocation.
	rbuf []byte
	// nextID feeds the convenience Quote/Info wrappers.
	nextID uint32
}

// DialBinary connects to a truthrouted binary listener at addr
// (host:port).
func DialBinary(addr string) (*BinaryClient, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return NewBinaryClient(conn), nil
}

// NewBinaryClient wraps an established connection (tests use
// net.Pipe ends).
func NewBinaryClient(conn net.Conn) *BinaryClient {
	return &BinaryClient{
		conn: conn,
		br:   bufio.NewReaderSize(conn, binBufSize),
		bw:   bufio.NewWriterSize(conn, binBufSize),
	}
}

// Close closes the underlying connection without flushing: callers
// that care about buffered requests Flush or Recv first.
func (c *BinaryClient) Close() error {
	return c.conn.Close()
}

// Send buffers one quote request frame. Nothing reaches the wire
// until Flush or Recv, so a pipelining caller pays one write for its
// whole in-flight window.
func (c *BinaryClient) Send(reqid uint32, req *BinaryRequest) error {
	c.scratch = c.scratch[:0]
	c.scratch = EncodeBinaryRequest(c.scratch, req)
	return c.send(KindQuoteReq, reqid, c.scratch)
}

// SendInfo buffers one info request frame.
func (c *BinaryClient) SendInfo(reqid uint32) error {
	return c.send(KindInfoReq, reqid, nil)
}

func (c *BinaryClient) send(kind byte, reqid uint32, payload []byte) error {
	var hdr [FrameHeaderLen]byte
	putFrameHeader(&hdr, kind, reqid, len(payload))
	if _, err := c.bw.Write(hdr[:]); err != nil {
		return err
	}
	if len(payload) == 0 {
		return nil
	}
	_, err := c.bw.Write(payload)
	return err
}

// BinaryResult is one response frame as Recv returns it: Kind says
// which of the three payload fields is meaningful.
type BinaryResult struct {
	ReqID uint32
	Kind  byte
	Quote BinaryQuote // when Kind == KindQuoteResp
	Info  BinaryInfo  // when Kind == KindInfoResp
	Err   BinaryError // when Kind == KindError
}

// Recv flushes pending sends and reads the next response frame. A
// request-kind frame from the server is a protocol violation and an
// error; so is any undecodable payload. Byte-slice fields of the
// result (Quote.Quote) alias the client's reused read buffer and are
// valid only until the next Recv — copy them to keep them.
func (c *BinaryClient) Recv() (BinaryResult, error) {
	var res BinaryResult
	if c.bw.Buffered() > 0 {
		if err := c.bw.Flush(); err != nil {
			return res, err
		}
	}
	var hdr [FrameHeaderLen]byte
	if _, err := io.ReadFull(c.br, hdr[:]); err != nil {
		// EOF between frames is the peer's hangup; report it as is.
		return res, err
	}
	kind, reqid, n, err := parseFrameHeader(hdr[:])
	if err != nil {
		return res, err
	}
	if cap(c.rbuf) < n {
		c.rbuf = make([]byte, n)
	}
	payload := c.rbuf[:n]
	if _, err := io.ReadFull(c.br, payload); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return res, err
	}
	res.ReqID = reqid
	res.Kind = kind
	switch kind {
	case KindQuoteResp:
		res.Quote, err = DecodeBinaryQuote(payload)
	case KindInfoResp:
		res.Info, err = DecodeBinaryInfo(payload)
	case KindError:
		res.Err, err = DecodeBinaryError(payload)
	default:
		err = fmt.Errorf("serve: wire: server sent request kind %#02x", kind)
	}
	if err != nil {
		return res, err
	}
	return res, nil
}

// Quote is the unpipelined convenience wrapper: one request, one
// response. An ErrCode* refusal comes back as a BinaryError-carrying
// result, not a Go error — transport and framing failures are the
// error path.
//
//lint:allow testonly the serve and cli tests' unpipelined client
func (c *BinaryClient) Quote(req *BinaryRequest) (BinaryResult, error) {
	c.nextID++
	id := c.nextID
	if err := c.Send(id, req); err != nil {
		return BinaryResult{}, err
	}
	res, err := c.Recv()
	if err != nil {
		return res, err
	}
	if res.ReqID != id {
		return res, fmt.Errorf("serve: wire: response reqid %d, want %d", res.ReqID, id)
	}
	return res, nil
}

// Info fetches the daemon's topology summary — the binary twin of
// GET /healthz, which is how quoteload discovers the node-id space
// without an HTTP listener.
func (c *BinaryClient) Info() (BinaryInfo, error) {
	c.nextID++
	id := c.nextID
	if err := c.SendInfo(id); err != nil {
		return BinaryInfo{}, err
	}
	res, err := c.Recv()
	if err != nil {
		return BinaryInfo{}, err
	}
	switch {
	case res.ReqID != id:
		return BinaryInfo{}, fmt.Errorf("serve: wire: response reqid %d, want %d", res.ReqID, id)
	case res.Kind == KindError:
		return BinaryInfo{}, fmt.Errorf("serve: wire: info refused: code %d: %s", res.Err.Code, res.Err.Msg)
	case res.Kind != KindInfoResp:
		return BinaryInfo{}, fmt.Errorf("serve: wire: info answered with kind %#02x", res.Kind)
	}
	return res.Info, nil
}
