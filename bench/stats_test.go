package main

import (
	"math"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	var sorted []float64
	for i := 1; i <= 100; i++ {
		sorted = append(sorted, float64(i))
	}
	for _, c := range []struct{ p, want float64 }{{50, 50}, {99, 99}, {99.9, 100}, {100, 100}, {0.1, 1}} {
		if got := percentile(sorted, c.p); got != c.want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
}

// The tail is reported at the highest percentile with at least ten samples
// beyond it.
func TestHighestPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{19, 0}, {20, 50}, {99, 50}, {100, 90}, {999, 90}, {1000, 99}, {9999, 99}, {10000, 99.9}, {100000, 99.99}} {
		if got := highestPercentile(c.n); got != c.want {
			t.Errorf("highestPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

// spread must agree with Python's statistics.quantiles(v, n=4), which is
// what the driver computes; the expected values were worked out by hand
// from its exclusive method.
func TestSpreadMatchesPythonQuantiles(t *testing.T) {
	for _, c := range []struct {
		vals []float64
		want float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, (8.25 - 2.75) / 5.5},
		{[]float64{10, 12, 11, 13, 9, 15, 10, 11, 12, 14}, (13.25 - 10) / 11.5},
		{[]float64{4, 8}, (9 - 3) / 6.0}, // two values extrapolate, as Python does
		{[]float64{7}, 0},
		{nil, 0},
	} {
		if got := spread(c.vals); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("spread(%v) = %v, want %v", c.vals, got, c.want)
		}
	}
}

func TestSummarize(t *testing.T) {
	msec := time.Millisecond
	win := window{
		elapsed: 2 * time.Second,
		cpu:     30 * msec,
		crashes: []time.Duration{500 * msec, 1500 * msec},
		samples: []sample{
			{due: 100 * msec, sent: 100 * msec, done: 102 * msec, ok: true},
			// Due before the first crash, finished after it: not evidence
			// that service is back.
			{due: 490 * msec, sent: 490 * msec, done: 900 * msec, ok: true},
			{due: 510 * msec, sent: 510 * msec, done: 1510 * msec, ok: false},
			{due: 520 * msec, sent: 1510 * msec, done: 1512 * msec, ok: true},
			{due: 1600 * msec, sent: 1600 * msec, done: 1604 * msec, ok: true},
		},
	}
	e := summarize(win)
	if e.attempted != 5 || e.failed != 1 || e.errorRate != 0.2 {
		t.Errorf("attempted %d failed %d error rate %v, want 5, 1, 0.2", e.attempted, e.failed, e.errorRate)
	}
	if e.throughput != 2 {
		t.Errorf("throughput = %v ops/s, want 4 OK over 2 s", e.throughput)
	}
	if e.cpuPerOp != 7500 {
		t.Errorf("cpu per op = %v us, want 30 ms over 4 OK", e.cpuPerOp)
	}
	// Latency runs from the due time: the request due at 520 ms waited
	// behind the one that timed out.
	if e.p99 != 992 {
		t.Errorf("p99 = %v ms, want 992", e.p99)
	}
	if e.maxLate != 990*msec {
		t.Errorf("max late = %v, want 990ms", e.maxLate)
	}
	// First crash: service is back at 1512 ms, 1012 ms after it. Second:
	// 104 ms. The median of the two is their mean.
	if e.outage != (1012+104)/2.0 {
		t.Errorf("outage = %v ms, want %v", e.outage, (1012+104)/2.0)
	}
}
