package stats

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func TestAccBasics(t *testing.T) {
	var a Acc
	if !math.IsNaN(a.Mean()) || !math.IsNaN(a.Max()) || !math.IsNaN(a.Min()) {
		t.Error("empty accumulator should report NaN")
	}
	for _, x := range []float64{2, 4, 6} {
		a.Add(x)
	}
	if a.N() != 3 || a.Mean() != 4 || a.Min() != 2 || a.Max() != 6 {
		t.Errorf("acc = %v", a.String())
	}
	if sd := a.StdDev(); math.Abs(sd-2) > 1e-12 {
		t.Errorf("stddev = %v, want 2", sd)
	}
}

func TestAccNaNAndInf(t *testing.T) {
	var a Acc
	a.Add(1)
	a.Add(math.NaN())
	a.Add(math.Inf(1))
	a.Add(3)
	if a.Skipped() != 1 {
		t.Errorf("skipped = %d, want 1", a.Skipped())
	}
	if a.Mean() != 2 {
		t.Errorf("mean = %v, want 2 (Inf excluded)", a.Mean())
	}
	if !math.IsInf(a.Max(), 1) {
		t.Errorf("max = %v, want +Inf", a.Max())
	}
}

func TestAccSingleObservation(t *testing.T) {
	var a Acc
	a.Add(5)
	if !math.IsNaN(a.StdDev()) {
		t.Error("stddev of one sample should be NaN")
	}
	if a.Min() != 5 || a.Max() != 5 {
		t.Error("single-sample min/max wrong")
	}
}

// TestQuickAccMatchesDirectComputation cross-checks the streaming
// mean/stddev against a two-pass reference.
func TestQuickAccMatchesDirectComputation(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 50))
		n := 2 + rng.IntN(100)
		xs := make([]float64, n)
		var a Acc
		for i := range xs {
			xs[i] = rng.Float64()*100 - 50
			a.Add(xs[i])
		}
		mean := 0.0
		for _, x := range xs {
			mean += x
		}
		mean /= float64(n)
		varSum := 0.0
		for _, x := range xs {
			varSum += (x - mean) * (x - mean)
		}
		sd := math.Sqrt(varSum / float64(n-1))
		return math.Abs(a.Mean()-mean) < 1e-9 && math.Abs(a.StdDev()-sd) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestBuckets(t *testing.T) {
	b := NewBuckets()
	b.Add(3, 1.5)
	b.Add(1, 2.0)
	b.Add(3, 2.5)
	keys := b.Keys()
	if len(keys) != 2 || keys[0] != 1 || keys[1] != 3 {
		t.Fatalf("keys = %v, want [1 3]", keys)
	}
	if got := b.Get(3).Mean(); got != 2 {
		t.Errorf("bucket 3 mean = %v, want 2", got)
	}
	if b.Get(9) != nil {
		t.Error("missing bucket should be nil")
	}
}

func TestRatioOfSums(t *testing.T) {
	var r RatioOfSums
	if !math.IsNaN(r.Value()) {
		t.Error("empty ratio should be NaN")
	}
	r.Add(3, 2)
	r.Add(1, 2)
	if r.Value() != 1 {
		t.Errorf("ratio = %v, want 1", r.Value())
	}
	r.Add(math.Inf(1), 5) // skipped
	r.Add(5, math.NaN())  // skipped
	if r.Value() != 1 {
		t.Errorf("ratio after junk = %v, want 1", r.Value())
	}
}

func TestCI95(t *testing.T) {
	var a Acc
	a.Add(1)
	if !math.IsNaN(a.CI95()) {
		t.Error("CI of one sample should be NaN")
	}
	for _, x := range []float64{1, 3} { // mean 5/3... just use known values
		a.Add(x)
	}
	// n=3, values 1,1,3: sd = sqrt(((2/3)^2*2 + (4/3)^2)/2) = sqrt(4/3)
	want := 1.96 * math.Sqrt(4.0/3.0) / math.Sqrt(3)
	if got := a.CI95(); math.Abs(got-want) > 1e-12 {
		t.Errorf("CI95 = %v, want %v", got, want)
	}
}

// Skipped returns the number of NaN observations dropped.
func (a *Acc) Skipped() int { return a.nanSkipped }

// Min returns the smallest observation (NaN when empty).
func (a *Acc) Min() float64 {
	if a.n+a.inf == 0 {
		return math.NaN()
	}
	return a.min
}
