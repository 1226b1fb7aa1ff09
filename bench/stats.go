//go:build linux

package main

import (
	"sort"
)

// quartiles returns the three quartiles of values exactly as Python's
// statistics.quantiles(values, n=4) does (the exclusive method), so the
// spreads -repeat prints are the ones the driver computes. It needs at
// least two values.
func quartiles(values []float64) (q1, q2, q3 float64) {
	data := append([]float64(nil), values...)
	sort.Float64s(data)
	n := len(data)
	at := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		j = max(1, min(j, n-1))
		delta := float64(i*m - j*4)
		return (data[j-1]*(4-delta) + data[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

// median returns the middle value (mean of the middle two for an even
// count), 0 for no values.
func median(values []float64) float64 {
	n := len(values)
	if n == 0 {
		return 0
	}
	data := append([]float64(nil), values...)
	sort.Float64s(data)
	if n%2 == 1 {
		return data[n/2]
	}
	return (data[n/2-1] + data[n/2]) / 2
}

// spread is the inter-quartile distance as a share of the median, the
// steadiness measure of the benchmark contract; 0 when fewer than two
// values or a zero median leave it undefined.
func spread(values []float64) float64 {
	if len(values) < 2 {
		return 0
	}
	q1, q2, q3 := quartiles(values)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / q2
}

// quantile returns the q-quantile (nearest rank, 0 <= q <= 1) of sorted.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[min(int(q*float64(len(sorted))), len(sorted)-1)]
}

// tailBeyond is how many samples must lie beyond a percentile for the
// benchmark to report it.
const tailBeyond = 10

// highestPercentile reports the highest of p50, p90, p99, p99.9, p99.99
// that still has at least tailBeyond samples beyond it, with its value;
// p is 0 when even the median is not supported (fewer than 20 samples).
func highestPercentile(sorted []float64) (p, value float64) {
	// Percentiles in parts per 10,000, so the count beyond one is exact
	// integer arithmetic (100 x (1 - 0.9) is not 10 in floating point).
	for _, c := range []int{9999, 9990, 9900, 9000, 5000} {
		if len(sorted)*(10000-c) >= tailBeyond*10000 {
			p = float64(c) / 10000
			return p, quantile(sorted, p)
		}
	}
	return 0, 0
}

// sortedCopy returns values sorted ascending without touching the input.
func sortedCopy(values []float64) []float64 {
	out := append([]float64(nil), values...)
	sort.Float64s(out)
	return out
}
