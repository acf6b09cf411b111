// Package determinism is a truthlint golden fixture: each expectation
// comment is a diagnostic the determinism analyzer must produce on
// that line, and lines without one must stay silent.
package determinism

import (
	"fmt"
	"math/rand/v2"
	"sort"
	"time"
)

func Stamp() int64 {
	return time.Now().UnixNano() // want `time\.Now reads the wall clock`
}

func Elapsed(t0 time.Time) time.Duration {
	return time.Since(t0) // want `time\.Since reads the wall clock`
}

func Deadline(t0 time.Time) time.Duration {
	return time.Until(t0) // want `time\.Until reads the wall clock`
}

func Draw() int {
	return rand.IntN(10) // want `process-global RNG`
}

func Shuffled(xs []int) {
	rand.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] }) // want `process-global RNG`
}

// Seeded is fine: constructors are not draws, and methods on a
// seeded *rand.Rand replay per seed.
func Seeded() int {
	r := rand.New(rand.NewPCG(1, 2))
	return r.IntN(10)
}

// Durations of constant spans don't read the clock.
func Pause() time.Duration {
	return 3 * time.Second
}

func Keys(m map[int]float64) []int {
	var out []int
	for k := range m { // want `map iteration order`
		out = append(out, k)
	}
	return out
}

// KeysSorted is the approved collect-then-sort idiom.
func KeysSorted(m map[int]float64) []int {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}

// KeysCustomSorted delegates to a local sorter; still fine.
func KeysCustomSorted(m map[int]float64) []int {
	var keys []int
	for k := range m {
		keys = append(keys, k)
	}
	sortKeys(keys)
	return keys
}

func sortKeys(ks []int) { sort.Ints(ks) }

func Dump(m map[int]string) {
	for _, v := range m { // want `map iteration order`
		fmt.Println(v)
	}
}

// Sum folds floats in map order: float addition is not associative,
// so the total's last bits change from run to run.
func Sum(m map[int]float64) float64 {
	total := 0.0
	for _, v := range m { // want `folds floats into total in map order`
		total += v
	}
	return total
}

// Drain subtracts in map order; the same fault as Sum.
func Drain(m map[string]float64, acc []float64) {
	for _, v := range m { // want `folds floats into acc\[0\] in map order`
		acc[0] -= v
	}
}

// IntSum is exact, so its order cannot leak.
func IntSum(m map[int]int) int {
	total := 0
	for _, v := range m {
		total += v
	}
	return total
}

// PerKey gives every key its own sum; each fold sees one term.
func PerKey(m map[int]float64, scale map[int]float64) {
	for k, v := range m {
		scale[k] += v
	}
}

// Keyed writes land at deterministic positions regardless of order.
func Invert(m map[int]int) map[int]int {
	out := make(map[int]int, len(m))
	for k, v := range m {
		out[v] = k
	}
	return out
}

// Allowed demonstrates a reasoned escape hatch.
func Allowed() time.Time {
	//lint:allow determinism fixture exercises the reasoned allow path
	return time.Now()
}
