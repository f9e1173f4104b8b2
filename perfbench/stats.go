package main

import (
	"fmt"
	"sort"
)

// minTail is how many samples must lie beyond a reported tail percentile.
// A "p99" of 400 samples is the fourth-largest value, not a percentile, so
// the helper refuses it instead of reporting a number that only looks like
// one.
const minTail = 10

// percentile returns the p-th percentile (0 < p < 100) of xs by nearest
// rank. For p > 50 it refuses when fewer than minTail samples lie strictly
// beyond the chosen rank; integer arithmetic keeps the rank exact (1000
// samples give a p99 with exactly ten beyond it).
func percentile(xs []float64, p int) (float64, error) {
	n := len(xs)
	if n == 0 {
		return 0, fmt.Errorf("p%d of no samples", p)
	}
	if p <= 0 || p >= 100 {
		return 0, fmt.Errorf("percentile %d out of range", p)
	}
	rank := (n*p + 99) / 100 // ceil(n*p/100), 1-based
	if rank < 1 {
		rank = 1
	}
	if beyond := n - rank; p > 50 && beyond < minTail {
		return 0, fmt.Errorf("p%d of %d samples has %d beyond it, need %d", p, n, beyond, minTail)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank-1], nil
}

// tailSamples is the smallest sample count for which percentile(xs, p)
// accepts a tail percentile.
func tailSamples(p int) int {
	n := 1
	for n-(n*p+99)/100 < minTail {
		n++
	}
	return n
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// ratio is num/den, 0 when nothing was counted.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
