package main

import (
	"math"
	"sort"
)

// median returns the middle value of xs (the mean of the two middle values
// for an even count), NaN for none. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// trimmedMean averages xs without its lowest and highest value (all of xs
// when there are fewer than three), NaN for none.
func trimmedMean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	if len(s) >= 3 {
		s = s[1 : len(s)-1]
	}
	var sum float64
	for _, x := range s {
		sum += x
	}
	return sum / float64(len(s))
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// nearestRank returns the nearest-rank p-th percentile (0 < p <= 100) of an
// ascending slice: the smallest sample with at least p% of the samples at or
// below it.
func nearestRank(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	k := rank(n, p)
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	return sorted[k-1]
}

// rank is the 1-based nearest rank of the p-th percentile of n samples. The
// small slack keeps p·n/100 that is whole in exact arithmetic from rounding
// up one rank through float error (99.9% of 10,000 is rank 9,990).
func rank(n int, p float64) int {
	return int(math.Ceil(p*float64(n)/100 - 1e-9))
}

// minBeyond is how many samples must lie above a reported tail percentile.
const minBeyond = 10

// beyond reports how many of n samples lie above the nearest-rank p-th
// percentile.
func beyond(n int, p float64) int {
	return n - rank(n, p)
}

// tailPercentile returns the highest of the usual tail percentiles that
// leaves at least minBeyond samples above it, or false when n is too small
// for any of them.
func tailPercentile(n int) (float64, bool) {
	for _, p := range []float64{99.9, 99, 95, 90} {
		if beyond(n, p) >= minBeyond {
			return p, true
		}
	}
	return 0, false
}
