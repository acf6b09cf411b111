package main

import (
	"bytes"
	"fmt"
	"math"
	"net"
	"path/filepath"
	"sync/atomic"
	"time"

	"truthroute/internal/serve"
)

// servingSpec is one access-point serving workload against the real
// daemon.
type servingSpec struct {
	openRate    float64 // open-loop quotes/s over all connections
	openConns   int
	closedConns int
	// openShare and closedShare split the run's seconds between the
	// open-loop and the closed-loop phase.
	openShare, closedShare float64
	depth                  int     // closed-loop requests in flight per connection
	updateRate             float64 // /update batches per second through both phases; 0 = none
	warm                   bool    // quote every access-point key once before timing
	probe                  int     // serial /update batches timed after the quote phases
	// isolation is the layer-isolation check on the timed memo hit
	// ratio and Dijkstra growth; it reports, it does not fail the run.
	isolation func(hitRatio, dijkstraRuns float64) string
}

var servingSpecs = map[string]servingSpec{
	// ap-hot: every quote is a memo hit once warm, so transport,
	// framing, admission and the snapshot memo probe do the work.
	"ap-hot": {
		openRate: 10_000, openConns: 1, closedConns: 2, depth: 64,
		openShare: 0.45, closedShare: 0.45,
		warm: true, probe: 10000,
		isolation: func(hit, runs float64) string {
			if hit < 0.99 || runs > 0 {
				return fmt.Sprintf("ap-hot no longer isolates the serving plane: memo hit ratio %.4f (want >= 0.99), %g Dijkstra runs while timed (want 0)", hit, runs)
			}
			return ""
		},
	},
	// churn: every batch flips the epoch and drops the memo, so nearly
	// every quote runs the miss path while writes run beside it.
	"churn": {
		// 500 quotes/s keeps the miss path under a fifth of one core on
		// a quiet host: at 1k/s a host running at half speed (which this
		// one does when its neighbours are busy) saturated the open loop
		// and the figure measured the queue.
		openRate: 500, openConns: 1, closedConns: 2, depth: 16,
		// The update latency is taken from the open-loop phase only, so
		// it gets most of the run: 50 batches/s need 20s for the 1000
		// samples a p99 wants.
		openShare: 0.7, closedShare: 0.2,
		updateRate: 50,
		isolation: func(hit, _ float64) string {
			if hit > 0.1 {
				return fmt.Sprintf("churn no longer isolates the miss path: memo hit ratio %.4f (want <= 0.1)", hit)
			}
			return ""
		},
	},
}

// setupStarts is how many times a run execs the daemon to time set-up;
// the median is reported.
const setupStarts = 21

// serving runs one serving workload end to end.
func serving(env *runEnv, spec servingSpec) (*outcome, error) {
	out := newOutcome()
	g := servingFixture(env.seed)
	n := g.N()
	topo := filepath.Join(env.work, "topology.json")
	if err := writeTopology(topo, g); err != nil {
		return nil, err
	}
	orc := newOracle(g)
	if err := orc.selfTest(); err != nil {
		return nil, err
	}
	openWin := time.Duration(spec.openShare * float64(env.seconds) * float64(time.Second))
	closedWin := time.Duration(spec.closedShare * float64(env.seconds) * float64(time.Second))
	if env.trace {
		// Two open-loop phases and the replay share the run.
		openWin, closedWin = openWin/2, closedWin/2
	}

	// The update stream is planned up front: the benchmark is the only
	// writer, so epoch e+1 is epoch e plus batch e and the oracle knows
	// every epoch's costs before the daemon publishes it.
	planned := spec.probe
	if spec.updateRate > 0 {
		planned = int(spec.updateRate*float64(env.seconds)*1.5) + 20
	}
	batches := updateBatches(env.seed, n, planned)
	for _, b := range batches {
		orc.publish(b)
	}

	starts := setupStarts
	if env.trace {
		starts = 1
	}
	var d *daemon
	var setups []float64
	for k := 0; k < starts; k++ {
		dk, took, err := startDaemon(env.daemonBin, topo, env.work)
		if err != nil {
			return nil, err
		}
		setups = append(setups, took.Seconds())
		if k == starts-1 {
			d = dk
		} else if err := dk.stop(); err != nil {
			return nil, err
		}
	}
	stopped := false
	defer func() {
		if !stopped {
			d.kill()
		}
	}()
	out.metric("setup_s", median(setups), "s")

	info, err := d.info()
	if err != nil {
		return nil, err
	}
	if info.Shards != 1 || int(info.Nodes) != n {
		return nil, fmt.Errorf("daemon serves %d nodes in %d shards; the fixture must be one shard of %d", info.Nodes, info.Shards, n)
	}

	srcs := quoteSources(env.seed, n, 1<<20)
	var check responseCheck
	var sampled *sampler
	if spec.updateRate == 0 {
		table, err := orc.expectedTable(1)
		if err != nil {
			return nil, err
		}
		check = func(_ int, src int, _ uint64, p []byte) error {
			if !bytes.Equal(p, table[src]) {
				return fmt.Errorf("quote %d->%d: served %q, want %q", src, accessPt, p, table[src])
			}
			return nil
		}
	} else {
		sampled = newSampler(max(spec.openConns, spec.closedConns), 16)
		check = sampled.check
	}
	if spec.warm {
		if err := warm(d, n, check); err != nil {
			return nil, err
		}
	}

	var ups *updateStream
	var acked func() uint64
	if spec.updateRate > 0 {
		ups = &updateStream{rate: spec.updateRate, batches: batches, d: d, stop: make(chan struct{})}
		sampled.sent = &ups.sent
		acked = ups.acked.Load
		ups.start()
	}
	before, err := d.sample()
	if err != nil {
		return nil, err
	}
	cpu0 := selfCPU()

	// A traced run first repeats the open-loop phase untraced, so the
	// difference between the two is the tracing overhead on quote_p50_us.
	var untracedP50 float64
	untracedQuotes := 0
	if env.trace {
		r, err := openPhase(d, spec, openWin, srcs, check, acked, false)
		if err != nil {
			return nil, err
		}
		out.count(r.count, r.failed, r.errs)
		untracedP50 = quantileOf(r.latency, 0.5)
		untracedQuotes = r.count
	}
	or, err := openPhase(d, spec, openWin, srcs, check, acked, env.trace)
	if err != nil {
		return nil, err
	}
	out.count(or.count, or.failed, or.errs)

	conns, err := dialN(d.binAddr, spec.closedConns)
	if err != nil {
		return nil, err
	}
	closed := &closedLoop{depth: spec.depth, window: closedWin, srcs: srcs, offset: or.count, check: check, acked: acked}
	cr := closed.run(conns)
	closeAll(conns)
	out.count(cr.sent, cr.failed, cr.errs)

	var upLat []float64
	if ups != nil {
		all := ups.finish()
		out.count(len(all), ups.failed, ups.errs)
		// Updates keep flowing through the closed loop so its quotes
		// miss too, but their latency there measures the overload the
		// closed loop creates on purpose; the reported figure is the
		// write path beside reads arriving at a fixed rate.
		upLat = all[:min(len(all), int(openWin.Seconds()*spec.updateRate))]
	}
	after, err := d.sample()
	if err != nil {
		return nil, err
	}
	cpu1 := selfCPU()

	if spec.probe > 0 {
		upLat = probeUpdates(d, batches[:spec.probe], out)
		// The probe moved the daemon to the last planned epoch; spot
		// check quotes there.
		if err := spotCheck(d, orc, srcs[:32], out); err != nil {
			return nil, err
		}
	}
	if sampled != nil {
		sampled.verify(orc, out)
	}

	rss, err := peakRSS(d.cmd.Process.Pid)
	if err != nil {
		return nil, err
	}
	var trc *traceRun
	if env.trace {
		epoch, err := d.epoch()
		if err != nil {
			return nil, err
		}
		trc = newTraceRun(env)
		trc.requestSpans(or)
		trc.replay(g.WithCosts(orc.costs[epoch-1]), srcs[or.count:], batches, spec.updateRate > 0, d)
	}
	stopped = true
	if err := d.stop(); err != nil {
		return nil, err
	}

	// End-to-end metrics: open-loop latency from each request's due
	// time and closed-loop throughput, both as the median across their
	// time windows (stats.go).
	out.metric("quote_qps", cr.qps(closedWin), "1/s")
	out.metric("quote_p50_us", windowedQuantile(or.latency, 0.50), "us")
	out.metric("quote_p99_us", windowedQuantile(or.latency, 0.99), "us")
	out.metric("update_p50_us", windowedQuantile(upLat, 0.50), "us")
	out.metric("update_p99_us", windowedQuantile(upLat, 0.99), "us")
	out.metric("rss_mb", rss, "MB")
	out.note("open loop: %d quotes at %.0f/s on %d connection(s); closed loop: %d connection(s) x %d in flight; %d update samples",
		or.count, spec.openRate, spec.openConns, spec.closedConns, spec.depth, len(upLat))

	// Generator validity: a generator that cannot keep its schedule
	// measures itself, not the daemon. Lateness spikes while the host's
	// neighbours are busy; falling behind shows in the median.
	lateP99 := quantileOf(or.late, 0.99)
	if lateP50 := quantileOf(or.late, 0.5); lateP50 > maxLateP50us {
		out.invalid("open-loop generator fell behind: median send lateness %.0fus exceeds %dus", lateP50, maxLateP50us)
	}

	hits := counter(before, after, "serve.binary.frame_cache_hits")
	misses := counter(before, after, "serve.binary.frame_cache_misses")
	runs := counter(before, after, "sp.dijkstra_runs")
	hitRatio := hits / math.Max(hits+misses, 1)
	out.note("timed phases: memo hit ratio %.4f (%g hits, %g misses), %g Dijkstra runs, %g epochs",
		hitRatio, hits, misses, runs, counter(before, after, "serve.batches_applied"))
	if msg := spec.isolation(hitRatio, runs); msg != "" {
		out.note("LAYER CHECK: %s", msg)
	}

	if trc != nil {
		quotes := float64(untracedQuotes + or.count + cr.done)
		trc.layer("serve.memo_hit_ratio", hitRatio, "ratio")
		trc.layer("serve.memo_hits", hits, "count")
		trc.layer("serve.memo_misses", misses, "count")
		trc.layer("sp.dijkstra_runs", runs, "count")
		trc.layer("sp.dijkstra_runs_per_miss", runs/math.Max(misses, 1), "ratio")
		trc.layer("serve.server_p50_us", histQuantile(before, after, "serve.binary.quote_latency_ns", 0.50)/1e3, "us")
		trc.layer("serve.server_p99_us", histQuantile(before, after, "serve.binary.quote_latency_ns", 0.99)/1e3, "us")
		trc.layer("serve.rejected", counter(before, after, "serve.rejected_overload"), "count")
		trc.layer("serve.epochs", counter(before, after, "serve.batches_applied"), "count")
		trc.layer("serve.inflight_peak", float64(after.metrics.Gauges["serve.inflight_peak"]), "count")
		trc.layer("transport.bytes_per_quote", float64(serve.FrameHeaderLen+17)+float64(or.bytesIn)/float64(max(or.count, 1)), "B")
		trc.layer("proc.server_cpu_us_per_quote", micros(after.cpu-before.cpu)/quotes, "us")
		trc.layer("proc.client_cpu_us_per_quote", micros(cpu1-cpu0)/quotes, "us")
		trc.layer("runtime.gc_per_kquote", float64(after.numGC-before.numGC)*1000/quotes, "count")
		trc.layer("runtime.alloc_bytes_per_quote", float64(after.alloc-before.alloc)/quotes, "B")
		trc.layer("gen.late_p99_us", lateP99, "us")
		trc.layer("quote_p999_us", quantileOf(or.latency, 0.999), "us")
		trc.layer("quote_fail_pct", out.failPct(), "%")
		trc.layer("trace.overhead_pct", 100*(quantileOf(or.latency, 0.5)-untracedP50)/untracedP50, "%")
		trc.offlineLayers(topo, g, batches)
		if err := trc.finish(out); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// openPhase runs one open-loop phase on fresh connections.
func openPhase(d *daemon, spec servingSpec, win time.Duration, srcs []uint32, check responseCheck, acked func() uint64, trace bool) (*openResult, error) {
	conns, err := dialN(d.binAddr, spec.openConns)
	if err != nil {
		return nil, err
	}
	defer closeAll(conns)
	o := &openLoop{rate: spec.openRate, window: win, srcs: srcs, check: check, acked: acked, trace: trace}
	return o.run(conns), nil
}

// maxLateP50us bounds the open-loop sender's median lateness; beyond
// it the offered rate was not the one configured and the run is invalid.
const maxLateP50us = 1000

// warm quotes every access-point key once so the timed phases start
// from a full memo.
func warm(d *daemon, n int, check responseCheck) error {
	conn, err := net.Dial("tcp", d.binAddr)
	if err != nil {
		return err
	}
	defer conn.Close()
	var buf []byte
	for src := 1; src < n; src++ {
		p, err := quoteOnce(conn, &buf, uint32(src), src)
		if err != nil {
			return fmt.Errorf("warm-up quote %d: %w", src, err)
		}
		if err := check(0, src, 0, p); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	return nil
}

// spotCheck byte-compares a few quotes on the daemon's current epoch.
func spotCheck(d *daemon, orc *oracle, srcs []uint32, out *outcome) error {
	conn, err := net.Dial("tcp", d.binAddr)
	if err != nil {
		return err
	}
	defer conn.Close()
	var buf []byte
	var errs []error
	failed := 0
	for i, src := range srcs {
		p, err := quoteOnce(conn, &buf, uint32(i+1), int(src))
		if err == nil {
			err = orc.check(int(src), p)
		}
		if err != nil {
			failed++
			errs = append(errs, err)
		}
	}
	out.count(len(srcs), failed, errs)
	return nil
}

// probeUpdates times serial /update batches on an otherwise idle
// daemon: the write path without read contention.
func probeUpdates(d *daemon, batches [][]serve.CostUpdate, out *outcome) []float64 {
	lat := make([]float64, 0, len(batches))
	failed := 0
	var errs []error
	for i, b := range batches {
		began := time.Now()
		epoch, err := d.update(b)
		lat = append(lat, micros(time.Since(began)))
		if err == nil && epoch != uint64(i+2) {
			err = fmt.Errorf("update %d published epoch %d, want %d", i, epoch, i+2)
		}
		if err != nil {
			failed++
			errs = append(errs, err)
		}
	}
	out.count(len(batches), failed, errs)
	return lat
}

// updateStream posts cost batches open-loop at a fixed rate on one
// HTTP connection, timing each from its due time, until stopped.
type updateStream struct {
	rate    float64
	batches [][]serve.CostUpdate
	d       *daemon
	stop    chan struct{}
	done    chan struct{}
	sent    atomic.Uint64 // batches handed to the daemon so far
	acked   atomic.Uint64 // batches whose reply named the epoch they published
	lat     []float64
	failed  int
	errs    []error
}

func (u *updateStream) start() {
	u.done = make(chan struct{})
	// The pacer goroutine only sleeps and hands each due batch to the
	// poster, which blocks in the HTTP client (see pacer). The unbuffered
	// hand-off keeps the stream open-loop: a slow update delays the next
	// hand-off, and the next batch's latency still runs from its due time.
	type due struct {
		i  int
		at time.Time
	}
	next := make(chan due)
	go func() {
		defer close(next)
		sleep := pacer()
		start := time.Now()
		for i := range u.batches {
			at := start.Add(time.Duration(float64(i) * 1e9 / u.rate))
			sleep(at)
			select {
			case <-u.stop:
				return
			case next <- due{i, at}:
			}
		}
	}()
	go func() {
		defer close(u.done)
		sent := 0
		for d := range next {
			u.sent.Store(uint64(d.i + 1))
			epoch, err := u.d.update(u.batches[d.i])
			u.lat = append(u.lat, micros(time.Since(d.at)))
			if err == nil && epoch != uint64(d.i+2) {
				err = fmt.Errorf("update %d published epoch %d, want %d", d.i, epoch, d.i+2)
			}
			if err == nil {
				u.acked.Store(uint64(d.i + 1))
			} else {
				u.failed++
				if len(u.errs) < 5 {
					u.errs = append(u.errs, err)
				}
			}
			sent++
		}
		if sent == len(u.batches) {
			u.failed++
			u.errs = append(u.errs, fmt.Errorf("update plan of %d batches ran out before the phases ended", len(u.batches)))
		}
	}()
}

// finish stops the stream and returns its latencies (µs).
func (u *updateStream) finish() []float64 {
	close(u.stop)
	<-u.done
	return u.lat
}

// sampler checks churn responses. Every response must name an epoch
// no older than the one the daemon had acknowledged publishing when the
// request left (an older one is a stale read) and no newer than the
// benchmark has asked for. One response in every `every` is kept for a
// byte comparison against the oracle once the phases end (the oracle's
// per-epoch reference quotes cost as much as the daemon's, so computing
// them inline would steal the daemon's CPU).
type sampler struct {
	every int
	sent  *atomic.Uint64 // update batches handed to the daemon
	seen  []int
	kept  [][]kept
}

type kept struct {
	src     int
	payload []byte
}

func newSampler(conns, every int) *sampler {
	return &sampler{every: every, seen: make([]int, conns), kept: make([][]kept, conns)}
}

func (s *sampler) check(conn, src int, floor uint64, p []byte) error {
	q, err := serve.DecodeBinaryQuote(p)
	if err != nil {
		return err
	}
	// Batch k publishes epoch k+1, so floor acknowledged batches put the
	// daemon on epoch floor+1 or later before the request left.
	if lo, hi := floor+1, s.sent.Load()+1; q.Shard != 0 || q.Epoch < lo || q.Epoch > hi {
		return fmt.Errorf("quote %d->%d names shard %d epoch %d; want shard 0 and an epoch in %d..%d", src, accessPt, q.Shard, q.Epoch, lo, hi)
	}
	s.seen[conn]++
	if s.seen[conn]%s.every == 0 {
		s.kept[conn] = append(s.kept[conn], kept{src, append([]byte(nil), p...)})
	}
	return nil
}

// verify byte-compares every kept response. Mismatches count as failed
// requests on top of the attempts already counted.
func (s *sampler) verify(orc *oracle, out *outcome) {
	checked, failed := 0, 0
	var errs []error
	for _, ks := range s.kept {
		for _, k := range ks {
			checked++
			if err := orc.check(k.src, k.payload); err != nil {
				failed++
				if len(errs) < 5 {
					errs = append(errs, err)
				}
			}
		}
	}
	out.count(0, failed, errs)
	out.note("byte-compared %d sampled responses against the oracle", checked)
}
