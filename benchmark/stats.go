package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of an
// ascending slice, or 0 for an empty one.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(float64(len(sorted)) * p / 100))
	return sorted[min(max(rank, 1), len(sorted))-1]
}

// median sorts vals in place and returns their median (0 when empty).
func median(vals []float64) float64 {
	sort.Float64s(vals)
	n := len(vals)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return vals[n/2]
	}
	return (vals[n/2-1] + vals[n/2]) / 2
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
