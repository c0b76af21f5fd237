package main

import (
	"math"
	"sort"
	"time"
)

// Percentiles use the nearest-rank rule on a sorted copy: the p-th
// per-mille value of n samples is the one at 1-based rank ceil(p·n/1000).
// Per-mille levels keep the rank arithmetic exact in integers.

// rank returns the 1-based nearest rank of per-mille level pm among n
// samples.
func rank(n, pm int) int {
	r := (pm*n + 999) / 1000
	if r < 1 {
		r = 1
	}
	return r
}

// pctl returns the per-mille pm percentile of xs (0 for no samples).
func pctl(xs []float64, pm int) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank(len(s), pm)-1]
}

func median(xs []float64) float64 { return pctl(xs, 500) }

// tailLevels are the percentiles a tail is reported at, highest first.
var tailLevels = []int{999, 990, 900}

// tailLevel returns the highest per-mille level in tailLevels that leaves
// at least ten samples beyond it among n samples, or 500 (the median)
// when even the 90th percentile would not.
func tailLevel(n int) int {
	for _, pm := range tailLevels {
		if n-rank(n, pm) >= 10 {
			return pm
		}
	}
	return 500
}

// summary is a timing reported the way the benchmark prints every
// timing: median, the highest tail percentile with ten samples beyond
// it, and the sample count.
type summary struct {
	N      int
	P50    float64
	TailPM int
	Tail   float64
}

func summarize(xs []float64) summary {
	pm := tailLevel(len(xs))
	return summary{N: len(xs), P50: median(xs), TailPM: pm, Tail: pctl(xs, pm)}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// ratio returns a/b, or 0 when b is 0 — a layer the workload bypasses
// reports 0 rather than NaN.
func ratio(a, b float64) float64 {
	if b == 0 || math.IsNaN(b) {
		return 0
	}
	return a / b
}
