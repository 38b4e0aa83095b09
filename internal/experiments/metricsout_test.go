package experiments

import (
	"reflect"
	"testing"
)

// TestFaultSweepMetricsDeterministicAcrossWorkers pins the -metrics-out
// determinism contract: the merged Stable-counter section of every cell's
// snapshot is a pure function of (Seed, grid, Reps) — identical at workers
// 1, 2 and 8 — and collection itself never perturbs the sweep's results.
func TestFaultSweepMetricsDeterministicAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("live fault-sweep repetitions in -short mode")
	}
	base := SweepConfig{
		Reps:           2,
		Seed:           11,
		MaxSteps:       8,
		Presets:        []string{"rolling-partition"},
		CollectMetrics: true,
	}
	var want []map[string]uint64
	var wantRows []SweepRow
	for _, workers := range []int{1, 2, 8} {
		cfg := base
		cfg.Workers = workers
		rows, err := Sweep(cfg)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		got := make([]map[string]uint64, len(rows))
		for i, r := range rows {
			if r.Metrics == nil {
				t.Fatalf("workers=%d: row %d has no metrics despite CollectMetrics", workers, i)
			}
			got[i] = r.Metrics.Counters
			if got[i]["campaign_runs_total"] != uint64(base.Reps) {
				t.Fatalf("workers=%d row %d: campaign_runs_total = %d, want %d",
					workers, i, got[i]["campaign_runs_total"], base.Reps)
			}
			// Collection must not bend the sweep itself: strip the
			// observational payload and compare outcomes across workers too.
			rows[i].Metrics = nil
		}
		if want == nil {
			want, wantRows = got, rows
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("stable counters differ between workers=1 and workers=%d:\n got %v\nwant %v",
				workers, got, want)
		}
		if !reflect.DeepEqual(rows, wantRows) {
			t.Errorf("sweep rows differ between workers=1 and workers=%d", workers)
		}
	}
}
