package main

import (
	"testing"
	"time"

	"fortress/internal/metrics"
)

func TestSelfTime(t *testing.T) {
	usec := time.Microsecond
	spans := []span{
		{ID: "a", Name: root, StartNs: 0, EndNs: int64(900 * usec)},
		{ID: "a", Parent: root, Name: "replica.request", StartNs: int64(1000 * usec), EndNs: int64(1150 * usec)},
		{ID: "a", Parent: root, Name: "service.apply", StartNs: int64(1200 * usec), EndNs: int64(1204 * usec)},
		{ID: "a", Parent: root, Name: "sig.sign", StartNs: int64(1300 * usec), EndNs: int64(1328 * usec)},
		{ID: "b", Name: root, StartNs: int64(2000 * usec), EndNs: int64(2700 * usec)},
	}
	reqs := byRequest(spans)
	if len(reqs) != 2 || len(reqs["a"]) != 4 {
		t.Fatalf("byRequest grouped %d requests, %d spans under a; want 2 and 4", len(reqs), len(reqs["a"]))
	}
	if self, ok := selfTime(reqs["a"], root, "replica.request"); !ok || self != 750*usec {
		t.Errorf("proxy tier self time = %v, %v; want 750µs", self, ok)
	}
	if self, ok := selfTime(reqs["a"], "replica.request", "service.apply", "sig.sign"); !ok || self != 118*usec {
		t.Errorf("replica self time = %v, %v; want 118µs", self, ok)
	}
	// An unsampled request has a root span only: it has no self time to
	// report, rather than its whole duration.
	if _, ok := selfTime(reqs["b"], root, "replica.request"); ok {
		t.Error("self time of a request without the child span reported ok")
	}
	// A replay slower than the original gives a negative self time; it is
	// reported, not clamped.
	slow := map[string]time.Duration{root: 100 * usec, "replica.request": 130 * usec}
	if self, _ := selfTime(slow, root, "replica.request"); self != -30*usec {
		t.Errorf("self time = %v, want -30µs", self)
	}

	got := p50us(reqs, root)
	if got != 800 {
		t.Errorf("p50 of root spans = %v us, want 800 (the mean of 900 and 700)", got)
	}
	got = p50us(reqs, "sig.sign")
	if got != 28 {
		t.Errorf("p50 of sig.sign = %v us, want 28: only sampled requests count", got)
	}
}

func TestSumLabels(t *testing.T) {
	reg := metrics.New()
	reg.Counter(`core_flush_messages_total{node="s0"}`, metrics.Timing).Add(5)
	reg.Counter(`core_flush_messages_total{node="s1"}`, metrics.Timing).Add(7)
	reg.Counter("fortress_rerandomize_total", metrics.Stable).Add(2)
	h0 := reg.Histogram(`store_sync_ns{node="s0"}`, metrics.DefaultLatencyBuckets)
	h1 := reg.Histogram(`store_sync_ns{node="s1"}`, metrics.DefaultLatencyBuckets)
	h0.Observe(1000)
	h0.Observe(3000)
	h1.Observe(2000)

	got := sumLabels(reg.Snapshot())
	for name, want := range map[string]float64{
		"core_flush_messages_total":            12,
		`core_flush_messages_total{node="s1"}`: 7,
		"fortress_rerandomize_total":           2,
		"store_sync_ns#sum":                    6000,
		"store_sync_ns#count":                  3,
	} {
		if got[name] != want {
			t.Errorf("sumLabels[%s] = %v, want %v", name, got[name], want)
		}
	}
}

// Replays between end and begin must not be counted as requests.
func TestCountsSkipReplays(t *testing.T) {
	reg := metrics.New()
	c0 := reg.Counter(`pb_updates_delta_total{node="s0"}`, metrics.Timing)
	c1 := reg.Counter(`pb_updates_delta_total{node="s1"}`, metrics.Timing)
	c0.Add(100) // before the run
	cnt := &counts{reg: reg, total: make(map[string]float64)}
	cnt.begin()
	c0.Add(8)
	c1.Add(8)
	cnt.end()
	c0.Add(1) // a replay
	c1.Add(1)
	cnt.begin()
	c0.Add(3)
	cnt.end()
	if got := cnt.total["pb_updates_delta_total"]; got != 19 {
		t.Errorf("counted %v, want 19 (8+8+3)", got)
	}
}
