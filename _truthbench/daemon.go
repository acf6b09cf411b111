package main

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"truthroute/internal/obs"
	"truthroute/internal/serve"
)

// daemon is one truthrouted process under test, listening on loopback
// for HTTP (updates, /metrics, /debug/vars) and the binary quote
// protocol.
type daemon struct {
	cmd      *exec.Cmd
	log      *os.File
	httpAddr string
	binAddr  string
	http     *http.Client
}

// startDaemon execs truthrouted on topo and returns once it has
// answered its first quote, together with the time from exec to that
// answer — the set-up cost a deployment pays on every restart.
func startDaemon(bin, topo, dir string) (*daemon, time.Duration, error) {
	httpFile := filepath.Join(dir, "http.addr")
	binFile := filepath.Join(dir, "binary.addr")
	for _, f := range []string{httpFile, binFile} {
		if err := os.Remove(f); err != nil && !os.IsNotExist(err) {
			return nil, 0, err
		}
	}
	log, err := os.OpenFile(filepath.Join(dir, "truthrouted.log"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, 0, err
	}
	cmd := exec.Command(bin,
		"-topology", topo,
		"-addr", "127.0.0.1:0", "-addr-file", httpFile,
		"-binary-addr", "127.0.0.1:0", "-binary-addr-file", binFile)
	cmd.Stdout, cmd.Stderr = log, log
	began := time.Now()
	if err := cmd.Start(); err != nil {
		log.Close()
		return nil, 0, fmt.Errorf("starting truthrouted: %w", err)
	}
	d := &daemon{cmd: cmd, log: log, http: &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true,
	}}}
	fail := func(err error) (*daemon, time.Duration, error) {
		d.kill()
		return nil, 0, err
	}
	// truthrouted writes the HTTP address file, then the binary one;
	// a trailing newline marks a complete write.
	deadline := began.Add(30 * time.Second)
	for d.binAddr == "" {
		if time.Now().After(deadline) {
			return fail(fmt.Errorf("truthrouted did not publish its addresses within 30s (see %s)", log.Name()))
		}
		if blob, err := os.ReadFile(binFile); err == nil && bytes.HasSuffix(blob, []byte("\n")) {
			d.binAddr = strings.TrimSpace(string(blob))
			break
		}
		time.Sleep(200 * time.Microsecond)
	}
	blob, err := os.ReadFile(httpFile)
	if err != nil {
		return fail(err)
	}
	d.httpAddr = strings.TrimSpace(string(blob))
	conn, err := net.Dial("tcp", d.binAddr)
	if err != nil {
		return fail(err)
	}
	defer conn.Close()
	var buf []byte
	if _, err := quoteOnce(conn, &buf, 1, 1); err != nil {
		return fail(fmt.Errorf("first quote: %w", err))
	}
	return d, time.Since(began), nil
}

// quoteOnce sends one unpipelined quote request src -> access point and
// returns the KindQuoteResp payload (aliasing *buf).
func quoteOnce(conn net.Conn, buf *[]byte, reqid uint32, src int) ([]byte, error) {
	var req [17]byte
	frame := serve.AppendFrame(nil, serve.KindQuoteReq, reqid,
		serve.EncodeBinaryRequest(req[:0], &serve.BinaryRequest{Src: uint32(src), Dst: accessPt}))
	if _, err := conn.Write(frame); err != nil {
		return nil, err
	}
	kind, id, payload, err := readFrame(conn, buf)
	if err != nil {
		return nil, err
	}
	return quotePayload(kind, id, reqid, payload)
}

// quotePayload validates one response frame and returns its quote
// payload; refusals and protocol surprises are errors.
func quotePayload(kind byte, id, want uint32, payload []byte) ([]byte, error) {
	if id != want {
		return nil, fmt.Errorf("response reqid %d, want %d", id, want)
	}
	switch kind {
	case serve.KindQuoteResp:
		return payload, nil
	case serve.KindError:
		e, err := serve.DecodeBinaryError(payload)
		if err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("refused: code %d: %s", e.Code, e.Msg)
	default:
		return nil, fmt.Errorf("unexpected response kind %#02x", kind)
	}
}

// readFrame reads one frame into the reused *buf and validates it with
// serve.DecodeFrame; the returned payload aliases *buf.
func readFrame(r io.Reader, buf *[]byte) (kind byte, reqid uint32, payload []byte, err error) {
	b := *buf
	if cap(b) < serve.FrameHeaderLen {
		b = make([]byte, 0, 4096)
	}
	b = b[:serve.FrameHeaderLen]
	if _, err := io.ReadFull(r, b); err != nil {
		return 0, 0, nil, err
	}
	n := int(binary.BigEndian.Uint32(b[8:12]))
	if n > serve.MaxFramePayload {
		return 0, 0, nil, fmt.Errorf("frame claims %d payload bytes", n)
	}
	if cap(b) < serve.FrameHeaderLen+n {
		nb := make([]byte, serve.FrameHeaderLen+n)
		copy(nb, b)
		b = nb
	}
	b = b[:serve.FrameHeaderLen+n]
	if _, err := io.ReadFull(r, b[serve.FrameHeaderLen:]); err != nil {
		return 0, 0, nil, err
	}
	*buf = b
	return serve.DecodeFrame(b)
}

// info asks the daemon for its topology summary over a fresh binary
// connection.
func (d *daemon) info() (serve.BinaryInfo, error) {
	c, err := serve.DialBinary(d.binAddr)
	if err != nil {
		return serve.BinaryInfo{}, err
	}
	defer c.Close()
	return c.Info()
}

// stop drains the daemon with SIGTERM and waits for it to exit 0.
func (d *daemon) stop() error {
	defer d.log.Close()
	d.http.CloseIdleConnections()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	done := make(chan error, 1)
	go func() { done <- d.cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			return fmt.Errorf("truthrouted exited uncleanly: %w", err)
		}
		return nil
	case <-time.After(20 * time.Second):
		_ = d.cmd.Process.Kill()
		<-done
		return fmt.Errorf("truthrouted did not drain within 20s")
	}
}

// kill ends the daemon without ceremony (error paths).
func (d *daemon) kill() {
	_ = d.cmd.Process.Kill()
	_ = d.cmd.Wait()
	d.log.Close()
}

// update posts one cost batch and returns the epoch it published.
func (d *daemon) update(batch []serve.CostUpdate) (uint64, error) {
	body, err := json.Marshal(serve.UpdateRequest{Updates: batch})
	if err != nil {
		return 0, err
	}
	resp, err := d.http.Post("http://"+d.httpAddr+"/update", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	blob, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("update: HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(blob))
	}
	var ur serve.UpdateResponse
	if err := json.Unmarshal(blob, &ur); err != nil {
		return 0, fmt.Errorf("decoding update response: %w", err)
	}
	if len(ur.Shards) != 1 || ur.Shards[0].Shard != 0 {
		return 0, fmt.Errorf("update touched shards %+v, want exactly shard 0", ur.Shards)
	}
	return ur.Shards[0].Epoch, nil
}

// epoch asks the daemon which epoch its one shard is on.
func (d *daemon) epoch() (uint64, error) {
	var resp serve.UpdateResponse
	if err := d.getJSON("/epoch", &resp); err != nil {
		return 0, err
	}
	if len(resp.Shards) != 1 {
		return 0, fmt.Errorf("/epoch lists %d shards, want 1", len(resp.Shards))
	}
	return resp.Shards[0].Epoch, nil
}

// sample is one before/after probe of the daemon: its obs registry
// (/metrics), Go runtime counters (/debug/vars) and kernel CPU time.
type sample struct {
	metrics obs.Snapshot
	numGC   uint64
	alloc   uint64
	cpu     time.Duration
}

func (d *daemon) getJSON(path string, v any) error {
	resp, err := d.http.Get("http://" + d.httpAddr + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: HTTP %d", path, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

func (d *daemon) sample() (sample, error) {
	var s sample
	if err := d.getJSON("/metrics", &s.metrics); err != nil {
		return s, err
	}
	var vars struct {
		Memstats struct {
			NumGC      uint64
			TotalAlloc uint64
		} `json:"memstats"`
	}
	if err := d.getJSON("/debug/vars", &vars); err != nil {
		return s, err
	}
	s.numGC, s.alloc = vars.Memstats.NumGC, vars.Memstats.TotalAlloc
	cpu, err := procCPU(d.cmd.Process.Pid)
	if err != nil {
		return s, err
	}
	s.cpu = cpu
	return s, nil
}

// counter returns the growth of a named obs counter between two samples.
func counter(a, b sample, name string) float64 {
	return float64(b.metrics.Counters[name] - a.metrics.Counters[name])
}

// histQuantile interpolates the q-quantile of the observations a
// histogram gained between two samples. The obs buckets are powers of
// four, so the figure is coarse; it is reported beside the client's
// view, not instead of it.
func histQuantile(a, b sample, name string, q float64) float64 {
	ha, hb := a.metrics.Histograms[name], b.metrics.Histograms[name]
	total := float64(hb.Count - ha.Count)
	if total == 0 {
		return 0
	}
	rank := q * total
	lower, seen := 0.0, 0.0
	for i, bk := range hb.Buckets {
		n := float64(bk.N)
		if i < len(ha.Buckets) {
			n -= float64(ha.Buckets[i].N)
		}
		upper, err := strconv.ParseFloat(bk.LE, 64)
		if err != nil { // the +Inf bucket: report its lower edge
			return lower
		}
		if seen+n >= rank && n > 0 {
			return lower + (upper-lower)*(rank-seen)/n
		}
		seen += n
		lower = upper
	}
	return lower
}

// procCPU reads a process's user+system CPU time from /proc. The
// kernel reports clock ticks; USER_HZ is 100 on every Linux ABI Go
// supports.
func procCPU(pid int) (time.Duration, error) {
	blob, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may contain spaces; fields resume
	// after its closing parenthesis.
	rest := string(blob[bytes.LastIndexByte(blob, ')')+2:])
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parsing /proc/%d/stat", pid)
	}
	return time.Duration(utime+stime) * 10 * time.Millisecond, nil
}

// peakRSS returns a process's peak resident set (VmHWM) in MB.
func peakRSS(pid int) (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// selfCPU is the benchmark process's own user+system CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
