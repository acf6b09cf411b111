package main

import (
	"bufio"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"truthroute/internal/serve"
)

// responseCheck validates one quote response on connection conn. It is
// called from that connection's receiver goroutine only. floor is how
// many update batches the daemon had acknowledged when the request
// left (0 when nothing updates costs): a correct response names an
// epoch no older than the one the last of them published.
type responseCheck func(conn, src int, floor uint64, payload []byte) error

// openLoop is an open-loop quote generator on raw frames: requests
// leave on a fixed schedule (request i is due at start + i/rate,
// rounded down to a pacer tick, spread round-robin over the
// connections) whether or not earlier ones were answered, and each is
// timed from when it was due, so a stall charges its wait to every
// request queued behind it. Each connection has one sender and one
// receiver goroutine; the sender sleeps (see pacer.go) until the next
// request is due and flushes before sleeping, so one tick's requests,
// or everything that fell due during a late wake-up, leave as one burst.
type openLoop struct {
	rate   float64 // requests per second over all connections
	window time.Duration
	srcs   []uint32
	check  responseCheck
	// acked returns how many update batches the daemon has acknowledged;
	// nil when the workload sends none.
	acked func() uint64
	// trace makes the sender and receiver record a wall-clock stamp per
	// request in memory (traceRun.requestSpans turns them into spans).
	trace bool
}

// stamp is one traced request event: request index and wall time.
type stamp struct {
	i  int
	ns int64
}

// openResult holds per-request figures in schedule order.
type openResult struct {
	count   int
	start   time.Time
	rate    float64
	latency []float64 // µs from due time to response
	late    []float64 // µs from due time to the sender writing it
	bytesIn int64     // response frame bytes received
	sends   [][]stamp // per connection, when traced
	recvs   [][]stamp
	failed  int
	errs    []error
}

// due is request i's scheduled send time: start + i/rate, rounded down
// to its pacer tick.
func (r *openResult) due(i int) time.Time {
	at := time.Duration(float64(i) * 1e9 / r.rate)
	return r.start.Add(at - at%pacerTick)
}

func (o *openLoop) run(conns []net.Conn) *openResult {
	total := int(o.window.Seconds() * o.rate)
	start := time.Now().Add(2 * time.Millisecond)
	res := &openResult{
		count:   total,
		start:   start,
		rate:    o.rate,
		latency: make([]float64, total),
		late:    make([]float64, total),
	}
	due := res.due
	// floors[i] is o.acked() when request i left; its receiver reads it.
	var floors []atomic.Uint64
	if o.acked != nil {
		floors = make([]atomic.Uint64, total)
	}
	var mu sync.Mutex
	var wg sync.WaitGroup
	nc := len(conns)
	if o.trace {
		res.sends, res.recvs = make([][]stamp, nc), make([][]stamp, nc)
	}
	for c, conn := range conns {
		_ = conn.SetReadDeadline(start.Add(o.window + 60*time.Second))
		wg.Add(2)
		go func(c int, conn net.Conn) {
			defer wg.Done()
			sleep := pacer()
			bw := bufio.NewWriterSize(conn, 64<<10)
			var req [17]byte
			frame := make([]byte, 0, 64)
			for i := c; i < total; i += nc {
				d := due(i)
				if time.Until(d) > 0 {
					if bw.Buffered() > 0 {
						if err := bw.Flush(); err != nil {
							return // the receiver reports the broken connection
						}
					}
					sleep(d)
				}
				now := time.Now()
				res.late[i] = micros(now.Sub(d))
				if o.trace {
					res.sends[c] = append(res.sends[c], stamp{i, now.UnixNano()})
				}
				if floors != nil {
					floors[i].Store(o.acked())
				}
				frame = serve.AppendFrame(frame[:0], serve.KindQuoteReq, uint32(i),
					serve.EncodeBinaryRequest(req[:0], &serve.BinaryRequest{Src: o.srcs[i%len(o.srcs)], Dst: accessPt}))
				if _, err := bw.Write(frame); err != nil {
					return
				}
			}
			_ = bw.Flush()
		}(c, conn)
		go func(c int, conn net.Conn) {
			defer wg.Done()
			br := bufio.NewReaderSize(conn, 64<<10)
			var buf []byte
			failed := 0
			var bytesIn int64
			var errs []error
			for i := c; i < total; i += nc {
				kind, id, payload, err := readFrame(br, &buf)
				now := time.Now()
				if err != nil {
					failed += (total - i + nc - 1) / nc
					errs = append(errs, fmt.Errorf("connection %d: %w", c, err))
					break
				}
				res.latency[i] = micros(now.Sub(due(i)))
				if o.trace {
					res.recvs[c] = append(res.recvs[c], stamp{i, now.UnixNano()})
				}
				bytesIn += int64(serve.FrameHeaderLen + len(payload))
				src := int(o.srcs[i%len(o.srcs)])
				var floor uint64
				if floors != nil {
					floor = floors[i].Load()
				}
				p, err := quotePayload(kind, id, uint32(i), payload)
				if err == nil {
					err = o.check(c, src, floor, p)
				}
				if err != nil {
					failed++
					if len(errs) < 5 {
						errs = append(errs, err)
					}
				}
			}
			mu.Lock()
			res.failed += failed
			res.bytesIn += bytesIn
			res.errs = append(res.errs, errs...)
			mu.Unlock()
		}(c, conn)
	}
	wg.Wait()
	return res
}

// closedLoop keeps depth requests in flight on each connection for the
// window — a saturation probe: the next request leaves only when an
// earlier one is answered. One goroutine per connection reads a
// response, queues the next request, and flushes only before it would
// block on a read, so a pipelined burst costs one write each way.
type closedLoop struct {
	depth  int
	window time.Duration
	srcs   []uint32
	offset int // first stream index, so phases draw fresh sources
	check  responseCheck
	acked  func() uint64 // as openLoop.acked
}

type closedResult struct {
	done    int   // responses received inside the window
	perSlot []int // responses received in each of maxWindows equal slices of the window
	sent    int
	failed  int
	errs    []error
}

// qps is the median of the closed loop's per-slice throughputs (see
// windowedQuantile).
func (r *closedResult) qps(window time.Duration) float64 {
	rates := make([]float64, len(r.perSlot))
	for k, v := range r.perSlot {
		rates[k] = float64(v) / (window.Seconds() / float64(len(r.perSlot)))
	}
	return median(rates)
}

func (cl *closedLoop) run(conns []net.Conn) *closedResult {
	res := &closedResult{perSlot: make([]int, maxWindows)}
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	end := start.Add(cl.window)
	slot := cl.window / maxWindows
	for c, conn := range conns {
		_ = conn.SetReadDeadline(end.Add(60 * time.Second))
		wg.Add(1)
		go func(c int, conn net.Conn) {
			defer wg.Done()
			br := bufio.NewReaderSize(conn, 64<<10)
			bw := bufio.NewWriterSize(conn, 64<<10)
			var req [17]byte
			frame := make([]byte, 0, 64)
			var buf []byte
			// Connection c sends stream positions offset+c, offset+c+nc, …,
			// so together the connections walk the stream in order.
			next := cl.offset + c
			type pending struct {
				src   int
				floor uint64
			}
			inflight := map[uint32]pending{} // by reqid, at most depth entries
			send := func() error {
				src := cl.srcs[next%len(cl.srcs)]
				id := uint32(next)
				next += len(conns)
				var floor uint64
				if cl.acked != nil {
					floor = cl.acked()
				}
				inflight[id] = pending{int(src), floor}
				frame = serve.AppendFrame(frame[:0], serve.KindQuoteReq, id,
					serve.EncodeBinaryRequest(req[:0], &serve.BinaryRequest{Src: src, Dst: accessPt}))
				_, err := bw.Write(frame)
				return err
			}
			done, sent, failed := 0, 0, 0
			perSlot := make([]int, maxWindows)
			var errs []error
			var err error
			for k := 0; k < cl.depth && err == nil; k++ {
				err = send()
				sent++
			}
			for err == nil && len(inflight) > 0 {
				if br.Buffered() == 0 && bw.Buffered() > 0 {
					if err = bw.Flush(); err != nil {
						break
					}
				}
				var kind byte
				var id uint32
				var payload []byte
				kind, id, payload, err = readFrame(br, &buf)
				if err != nil {
					break
				}
				r, ok := inflight[id]
				if !ok {
					err = fmt.Errorf("connection %d: unsolicited reqid %d", c, id)
					break
				}
				delete(inflight, id)
				now := time.Now()
				inWindow := now.Before(end)
				if inWindow {
					done++
					perSlot[min(int(now.Sub(start)/slot), maxWindows-1)]++
				}
				p, cerr := quotePayload(kind, id, id, payload)
				if cerr == nil {
					cerr = cl.check(c, r.src, r.floor, p)
				}
				if cerr != nil {
					failed++
					if len(errs) < 5 {
						errs = append(errs, cerr)
					}
				}
				if inWindow {
					err = send()
					sent++
				}
			}
			if err != nil {
				failed += len(inflight)
				errs = append(errs, fmt.Errorf("connection %d: %w", c, err))
			}
			mu.Lock()
			res.done += done
			for k, v := range perSlot {
				res.perSlot[k] += v
			}
			res.sent += sent
			res.failed += failed
			res.errs = append(res.errs, errs...)
			mu.Unlock()
		}(c, conn)
	}
	wg.Wait()
	return res
}

// dialN opens n binary connections to addr.
func dialN(addr string, n int) ([]net.Conn, error) {
	var out []net.Conn
	for i := 0; i < n; i++ {
		c, err := net.Dial("tcp", addr)
		if err != nil {
			closeAll(out)
			return nil, err
		}
		out = append(out, c)
	}
	return out, nil
}

func closeAll(conns []net.Conn) {
	for _, c := range conns {
		_ = c.Close()
	}
}
