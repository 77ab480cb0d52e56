package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a reported percentile: with
// fewer, the percentile is one or two outliers, not a property of the system.
const minBeyond = 10

// percentile returns the nearest-rank p-th percentile (0 < p < 1) of samples.
// It refuses a percentile that has fewer than beyond samples above it.
func percentile(samples []float64, p float64, beyond int) (float64, error) {
	n := len(samples)
	if n == 0 {
		return 0, fmt.Errorf("percentile %.2f of no samples", p)
	}
	rank := int(math.Ceil(p * float64(n))) // 1-based
	if rank < 1 {
		rank = 1
	}
	if n-rank < beyond {
		return 0, fmt.Errorf("percentile %.2f of %d samples has %d beyond it, want at least %d", p, n, n-rank, beyond)
	}
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	return sorted[rank-1], nil
}

// median is the interpolated middle of samples (0 for none).
func median(samples []float64) float64 {
	n := len(samples)
	if n == 0 {
		return 0
	}
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

// lowerQuartile is the nearest-rank 25th percentile of repeated readings of
// one quantity (0 for none).
func lowerQuartile(readings []float64) float64 {
	if len(readings) == 0 {
		return 0
	}
	v, _ := percentile(readings, 0.25, 0)
	return v
}

func mean(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range samples {
		sum += v
	}
	return sum / float64(len(samples))
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
