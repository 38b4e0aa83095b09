package main

import (
	"math"
	"sort"

	"fortress/internal/stats"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// sorted, or 0 when it is empty.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	// The epsilon keeps p/100*n from landing a hair above a whole rank
	// (99.9% of 1000 is rank 999, not 999.0000000000001 rounded up).
	i := int(math.Ceil(p/100*float64(len(sorted))-1e-9)) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

// median is 0 for no values.
func median(vals []float64) float64 {
	m, _ := stats.Quantile(vals, 0.5)
	return m
}

// tailLadder is the percentiles a latency tail is reported at, each with
// the share of samples beyond it as one in so many.
var tailLadder = []struct {
	p     float64
	oneIn int
}{{50, 2}, {90, 10}, {99, 100}, {99.9, 1000}, {99.99, 10000}}

// highestPercentile returns the highest rung of tailLadder that still has
// at least ten of the n samples beyond it, and 0 when not even the median
// has.
func highestPercentile(n int) float64 {
	best := 0.0
	for _, rung := range tailLadder {
		if n >= 10*rung.oneIn {
			best = rung.p
		}
	}
	return best
}

// spread returns the distance between the first and third quartile of
// vals as a share of their median, with the quartiles Python's
// statistics.quantiles(vals, n=4) gives (the exclusive method). It is 0
// for fewer than two values, which have no quartiles.
func spread(vals []float64) float64 {
	n := len(vals)
	med := median(vals)
	if n < 2 || med == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	q := func(k int) float64 { // k-th quartile, exclusive method
		pos := float64(k) * float64(n+1) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return math.Abs(q(3)-q(1)) / math.Abs(med)
}
