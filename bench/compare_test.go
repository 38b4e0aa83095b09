package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func def(t *testing.T, name string) metricDef {
	t.Helper()
	for _, d := range endToEndDefs {
		if d.name == name {
			return d
		}
	}
	t.Fatalf("no end-to-end metric %q", name)
	return metricDef{}
}

func TestVerdict(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 100, 101, 99, 100, 100, 100}
	for _, c := range []struct {
		name, metric string
		old, new     []float64
		want         string
	}{
		{"same", "latency_p50_ms", steady, steady, verdictOK},
		{"within bound", "latency_p50_ms", steady, scale(steady, 1.09), verdictOK},
		{"beyond bound", "latency_p50_ms", steady, scale(steady, 1.11), verdictRegressed},
		{"better", "latency_p50_ms", steady, scale(steady, 0.5), verdictOK},
		{"p99 has 15%", "latency_p99_ms", steady, scale(steady, 1.14), verdictOK},
		{"p99 beyond 15%", "latency_p99_ms", steady, scale(steady, 1.16), verdictRegressed},
		{"higher is better: drop", "throughput_ops_s", steady, scale(steady, 0.89), verdictRegressed},
		{"higher is better: rise", "throughput_ops_s", steady, scale(steady, 1.5), verdictOK},
		// Old runs scattered over more than the bound: the medians cannot tell.
		{"wide old", "latency_p50_ms", []float64{80, 90, 100, 110, 120, 85, 95, 105, 115, 100}, scale(steady, 1.05), verdictUnresolved},
		{"wide new", "latency_p50_ms", steady, []float64{80, 90, 100, 110, 120, 85, 95, 105, 115, 100}, verdictUnresolved},
		// ...unless every new run beats every old one.
		{"wide but all better", "latency_p50_ms", []float64{80, 90, 100, 110, 120, 85, 95, 105, 115, 100}, scale(steady, 0.5), verdictOK},
		// error_rate is 0 on the fault-free workloads: its bound is absolute.
		{"error rate within +0.01", "error_rate", []float64{0, 0, 0}, []float64{0.009, 0.009, 0.009}, verdictOK},
		{"error rate beyond +0.01", "error_rate", []float64{0, 0, 0}, []float64{0.02, 0.02, 0.02}, verdictRegressed},
		// setup_s may worsen by 25% or 0.1 s, whichever is more.
		{"setup within 0.1 s", "setup_s", []float64{0.1, 0.1, 0.1}, []float64{0.19, 0.19, 0.19}, verdictOK},
		{"setup beyond 25%", "setup_s", []float64{2, 2, 2}, []float64{2.6, 2.6, 2.6}, verdictRegressed},
		{"single runs", "latency_p50_ms", []float64{100}, []float64{120}, verdictRegressed},
	} {
		if got := verdict(def(t, c.metric), c.old, c.new); got != c.want {
			t.Errorf("%s: verdict = %s, want %s", c.name, got, c.want)
		}
	}
}

func scale(vals []float64, f float64) []float64 {
	out := make([]float64, len(vals))
	for i, v := range vals {
		out[i] = v * f
	}
	return out
}

// A result file is the concatenated output of several runs, result lines
// included; -compare prints one row per workload.
func TestCompareFiles(t *testing.T) {
	run := func(p50, outage float64) string {
		rep := report{Workloads: []workloadReport{
			{Name: "pb_write", EndToEnd: map[string]metric{"latency_p50_ms": {p50, "ms"}, "error_rate": {0, "ratio"}}},
			{Name: "smr_failover_open", EndToEnd: map[string]metric{"outage_ms": {outage, "ms"}}},
		}}
		var b bytes.Buffer
		if err := rep.write(&b); err != nil {
			t.Fatal(err)
		}
		return b.String() + resultLine(rep.Workloads[0], false) + "\n"
	}
	dir := t.TempDir()
	old, new := filepath.Join(dir, "old.json"), filepath.Join(dir, "new.json")
	write := func(path string, runs ...string) {
		if err := os.WriteFile(path, []byte(strings.Join(runs, "")), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write(old, run(2.0, 1000), run(2.02, 1001), run(1.98, 999))
	write(new, run(2.05, 1300), run(2.04, 1301), run(2.06, 1299))

	var out bytes.Buffer
	regressed, err := compareFiles(&out, old, new)
	if err != nil {
		t.Fatal(err)
	}
	if !regressed {
		t.Error("an outage 30% longer was not reported as a regression")
	}
	rows := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(rows) != 3 || !strings.HasPrefix(rows[1], "pb_write") || !strings.HasPrefix(rows[2], "smr_failover_open") {
		t.Fatalf("want a header and one row per workload, got:\n%s", out.String())
	}
	if !strings.Contains(rows[1], "ok (2→2.05 ms, n=3/3)") || strings.Contains(rows[1], verdictRegressed) {
		t.Errorf("pb_write row: %s", rows[1])
	}
	if !strings.Contains(rows[2], "regressed (1000→1300 ms, n=3/3)") {
		t.Errorf("smr_failover_open row: %s", rows[2])
	}

	if _, err := compareFiles(&out, old, filepath.Join(dir, "missing.json")); err == nil {
		t.Error("a missing file compared without error")
	}
	write(new, "{}")
	if _, err := compareFiles(&out, old, new); err == nil {
		t.Error("a file without results compared without error")
	}
}
