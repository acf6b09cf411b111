package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"sync"
	"testing"
)

// newTestRegistry gives each test an isolated registry; the enabled
// switch is still global, so tests flip it and restore on cleanup.
func enableForTest(t *testing.T) {
	t.Helper()
	Enable()
	t.Cleanup(Disable)
}

func TestCounterDisabledThenEnabled(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("c")
	c.Inc()
	c.Add(5)
	if got := c.Value(); got != 0 {
		t.Fatalf("disabled counter moved: %d", got)
	}
	enableForTest(t)
	c.Inc()
	c.Add(5)
	if got := c.Value(); got != 6 {
		t.Fatalf("Value = %d, want 6", got)
	}
	if c.Name() != "c" {
		t.Fatalf("Name = %q", c.Name())
	}
}

func TestGauge(t *testing.T) {
	r := NewRegistry()
	g := r.NewGauge("g")
	g.Set(7)
	if g.Add(3) != 0 || g.Value() != 0 {
		t.Fatal("disabled gauge moved")
	}
	enableForTest(t)
	g.Set(7)
	if got := g.Add(3); got != 10 {
		t.Fatalf("Add returned %d, want 10", got)
	}
	g.SetMax(4) // below current: no change
	if g.Value() != 10 {
		t.Fatalf("SetMax lowered the gauge to %d", g.Value())
	}
	g.SetMax(25)
	if g.Value() != 25 {
		t.Fatalf("SetMax = %d, want 25", g.Value())
	}
	if g.Name() != "g" {
		t.Fatalf("Name = %q", g.Name())
	}
}

func TestHistogramBucketBoundaries(t *testing.T) {
	enableForTest(t)
	r := NewRegistry()
	h := r.NewHistogram("h", []float64{1, 2, 4})
	for _, v := range []float64{0.5, 1, 1.5, 2, 3, 4, 5} {
		h.Observe(v)
	}
	s := h.snapshot()
	want := []Bucket{{"1", 2}, {"2", 2}, {"4", 2}, {"+Inf", 1}}
	if len(s.Buckets) != len(want) {
		t.Fatalf("bucket count %d, want %d", len(s.Buckets), len(want))
	}
	for i, b := range want {
		if s.Buckets[i] != b {
			t.Errorf("bucket %d = %+v, want %+v", i, s.Buckets[i], b)
		}
	}
	if s.Count != 7 || h.Count() != 7 {
		t.Errorf("Count = %d/%d, want 7", s.Count, h.Count())
	}
	if s.Sum != 17 || h.Sum() != 17 {
		t.Errorf("Sum = %g/%g, want 17", s.Sum, h.Sum())
	}
	if h.Name() != "h" {
		t.Fatalf("Name = %q", h.Name())
	}
}

func TestHistogramDisabled(t *testing.T) {
	r := NewRegistry()
	h := r.NewHistogram("h", []float64{1})
	h.Observe(0.5)
	if h.Count() != 0 {
		t.Fatal("disabled histogram moved")
	}
}

func wantPanic(t *testing.T, substr string, f func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("no panic; want one mentioning %q", substr)
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, substr) {
			t.Fatalf("panic %v, want mention of %q", r, substr)
		}
	}()
	f()
}

func TestRegistrationGuards(t *testing.T) {
	r := NewRegistry()
	r.NewCounter("dup")
	wantPanic(t, "duplicate metric name", func() { r.NewGauge("dup") })
	wantPanic(t, "empty metric name", func() { r.NewCounter("") })
	wantPanic(t, "at least one bucket", func() { r.NewHistogram("h0", nil) })
	wantPanic(t, "strictly increasing", func() { r.NewHistogram("h1", []float64{2, 2}) })
	wantPanic(t, "non-finite", func() { r.NewHistogram("h2", []float64{1, math.Inf(1)}) })
}

func TestBucketHelpers(t *testing.T) {
	exp := ExpBuckets(2, 4, 3)
	wantExp := []float64{2, 8, 32}
	for i := range wantExp {
		if exp[i] != wantExp[i] {
			t.Errorf("ExpBuckets[%d] = %g, want %g", i, exp[i], wantExp[i])
		}
	}
	lin := LinearBuckets(10, 5, 3)
	wantLin := []float64{10, 15, 20}
	for i := range wantLin {
		if lin[i] != wantLin[i] {
			t.Errorf("LinearBuckets[%d] = %g, want %g", i, lin[i], wantLin[i])
		}
	}
	if got := len(LatencyBuckets()); got != 11 {
		t.Errorf("len(LatencyBuckets) = %d", got)
	}
	if got := len(SizeBuckets()); got != 17 {
		t.Errorf("len(SizeBuckets) = %d", got)
	}
	wantPanic(t, "ExpBuckets", func() { ExpBuckets(0, 2, 3) })
	wantPanic(t, "LinearBuckets", func() { LinearBuckets(0, 0, 3) })
}

func populated(t *testing.T) *Registry {
	t.Helper()
	r := NewRegistry()
	c := r.NewCounter("b.count")
	a := r.NewCounter("a.count")
	g := r.NewGauge("z.gauge")
	h := r.NewHistogram("m.hist", []float64{1, 10})
	c.Add(3)
	a.Inc()
	g.Set(-4)
	h.Observe(0.5)
	h.Observe(100)
	return r
}

func TestSnapshotDeterminism(t *testing.T) {
	enableForTest(t)
	r := populated(t)
	var j1, j2, t1, t2 bytes.Buffer
	if err := r.WriteJSON(&j1); err != nil {
		t.Fatal(err)
	}
	if err := r.WriteJSON(&j2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(j1.Bytes(), j2.Bytes()) {
		t.Error("two JSON snapshots of identical state differ")
	}
	if err := r.WriteText(&t1); err != nil {
		t.Fatal(err)
	}
	if err := r.WriteText(&t2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(t1.Bytes(), t2.Bytes()) {
		t.Error("two text snapshots of identical state differ")
	}

	var s Snapshot
	if err := json.Unmarshal(j1.Bytes(), &s); err != nil {
		t.Fatalf("snapshot is not valid JSON: %v", err)
	}
	if s.Counters["a.count"] != 1 || s.Counters["b.count"] != 3 {
		t.Errorf("counters = %v", s.Counters)
	}
	if s.Gauges["z.gauge"] != -4 {
		t.Errorf("gauges = %v", s.Gauges)
	}
	h := s.Histograms["m.hist"]
	if h.Count != 2 || h.Sum != 100.5 {
		t.Errorf("histogram snapshot = %+v", h)
	}
}

func TestWriteTextFormat(t *testing.T) {
	enableForTest(t)
	r := populated(t)
	var buf bytes.Buffer
	if err := r.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	got := buf.String()
	wantLines := []string{
		"a.count 1",
		"b.count 3",
		"z.gauge -4",
		"m.hist count=2 sum=100.5",
		"m.hist{le=1} 1",
		"m.hist{le=+Inf} 1",
	}
	for _, line := range wantLines {
		if !strings.Contains(got, line+"\n") {
			t.Errorf("text snapshot missing %q:\n%s", line, got)
		}
	}
	if strings.Contains(got, "{le=10}") {
		t.Errorf("empty bucket should be elided from text output:\n%s", got)
	}
	// Counters come sorted before gauges before histograms.
	if strings.Index(got, "a.count") > strings.Index(got, "b.count") {
		t.Error("counter order not sorted")
	}
}

func TestReset(t *testing.T) {
	enableForTest(t)
	r := populated(t)
	r.Reset()
	s := r.Snapshot()
	if s.Counters["a.count"] != 0 || s.Counters["b.count"] != 0 ||
		s.Gauges["z.gauge"] != 0 || s.Histograms["m.hist"].Count != 0 ||
		s.Histograms["m.hist"].Sum != 0 {
		t.Errorf("Reset left state behind: %+v", s)
	}
}

func TestPackageLevelRegistryAndReset(t *testing.T) {
	enableForTest(t)
	c := NewCounter("obs_test.counter")
	g := NewGauge("obs_test.gauge")
	h := NewHistogram("obs_test.hist", []float64{1})
	c.Inc()
	g.Set(2)
	h.Observe(3)
	DefaultTrace.Start(8)
	t.Cleanup(DefaultTrace.Stop)
	Emit("obs_test.event", 1, 2, 3)
	s := Default.Snapshot()
	if s.Counters["obs_test.counter"] != 1 || s.Gauges["obs_test.gauge"] != 2 {
		t.Errorf("default registry snapshot = %v %v", s.Counters, s.Gauges)
	}
	Reset()
	s = Default.Snapshot()
	if s.Counters["obs_test.counter"] != 0 || s.Histograms["obs_test.hist"].Count != 0 {
		t.Error("package Reset did not zero the default registry")
	}
	if DefaultTrace.Total() != 0 {
		t.Error("package Reset did not clear the default trace")
	}
}

func TestConcurrentRecording(t *testing.T) {
	enableForTest(t)
	r := NewRegistry()
	c := r.NewCounter("c")
	g := r.NewGauge("g")
	h := r.NewHistogram("h", []float64{4, 64})
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
				g.SetMax(int64(w*per + i))
				h.Observe(float64(i % 100))
				if i%100 == 0 { // snapshots race with recording safely
					_ = r.Snapshot()
				}
			}
		}(w)
	}
	wg.Wait()
	if c.Value() != workers*per {
		t.Errorf("counter = %d, want %d", c.Value(), workers*per)
	}
	if g.Value() != workers*per-1 {
		t.Errorf("gauge max = %d, want %d", g.Value(), workers*per-1)
	}
	if h.Count() != workers*per {
		t.Errorf("histogram count = %d, want %d", h.Count(), workers*per)
	}
	wantSum := float64(workers) * float64(per/100) * (99 * 100 / 2)
	if h.Sum() != wantSum {
		t.Errorf("histogram sum = %g, want %g", h.Sum(), wantSum)
	}
}

// Name returns the registered metric name.
func (c *Counter) Name() string { return c.name }

// Name returns the registered metric name.
func (g *Gauge) Name() string { return g.name }

// Add adds delta and returns the new level (0 while disabled), so
// occupancy call sites can feed the result straight into a peak
// tracker without a second load.
func (g *Gauge) Add(delta int64) int64 {
	if !enabled.Load() {
		return 0
	}
	return g.v.Add(delta)
}

// Name returns the registered metric name.
func (h *Histogram) Name() string { return h.name }

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 {
	var n uint64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// LinearBuckets returns n evenly spaced upper bounds: start,
// start+width, start+2·width, ….
func LinearBuckets(start, width float64, n int) []float64 {
	if width <= 0 || n < 1 {
		panic("obs: LinearBuckets wants width > 0, n >= 1")
	}
	b := make([]float64, n)
	for i := range b {
		b[i] = start + float64(i)*width
	}
	return b
}
