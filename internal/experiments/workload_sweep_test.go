package experiments

import (
	"math"
	"reflect"
	"testing"
)

// workloadSweepConfig is the acceptance grid for the open-loop workload
// engine: a two-group deployment under the zipf-poisson preset, with a
// pristine cell next to a shard-cut cell. Chi is large enough that no
// repetition is compromised within the horizon, so the two cells replay the
// exact same arrival stream and differ only in the fault schedule.
func workloadSweepConfig(workers int) SweepConfig {
	return SweepConfig{
		Chi:       4096,
		Reps:      2,
		Seed:      7,
		Workers:   workers,
		MaxSteps:  12,
		Groups:    []int{2},
		Presets:   []string{"none", "shard-cut"},
		Workloads: []string{"zipf-poisson"},
	}
}

// TestWorkloadSweepBitIdenticalAcrossWorkers is the tentpole's acceptance
// check: an open-loop zipf-poisson sweep over a sharded deployment is
// bit-identical at 1, 2 and 8 workers — latency histograms included — and
// under shard-cut the islanded shard's p99 degrades to the deadline while
// the untouched shard's latency distribution is exactly the pristine cell's.
func TestWorkloadSweepBitIdenticalAcrossWorkers(t *testing.T) {
	run := func(workers int) []SweepRow {
		t.Helper()
		rows, err := Sweep(workloadSweepConfig(workers))
		if err != nil {
			t.Fatal(err)
		}
		return rows
	}
	base := run(1)
	if len(base) != 2 {
		t.Fatalf("rows = %d, want 2", len(base))
	}
	for _, workers := range []int{2, 8} {
		if got := run(workers); !reflect.DeepEqual(got, base) {
			t.Errorf("workers=%d rows differ from workers=1", workers)
		}
	}
	pristine, cut := base[0], base[1]
	if pristine.Preset != "none" || cut.Preset != "shard-cut" {
		t.Fatalf("row order: %s, %s", pristine.Preset, cut.Preset)
	}
	for _, r := range base {
		// Precondition for the stream-equality claims below: every
		// repetition survives the horizon, so both cells measure all steps.
		if r.Compromised != 0 {
			t.Fatalf("preset %s: %d repetitions compromised — the cells no longer share a stream", r.Preset, r.Compromised)
		}
		if r.Workload != "zipf-poisson" {
			t.Fatalf("preset %s: workload label %q", r.Preset, r.Workload)
		}
		if math.IsNaN(r.P50) || math.IsNaN(r.P99) || math.IsNaN(r.P999) {
			t.Fatalf("preset %s: empty latency columns %g/%g/%g", r.Preset, r.P50, r.P99, r.P999)
		}
		if len(r.ShardP99) != 2 {
			t.Fatalf("preset %s: shard p99 vector %v", r.Preset, r.ShardP99)
		}
	}
	// shard-cut islands the last group for the middle half of the horizon:
	// shard 1's requests get charged the spec deadline (250ms) and its p99
	// collapses toward it, while shard 0 — untouched by the schedule — stays
	// flat: within sampling noise of the pristine cell (cells draw
	// independent streams) and far below the islanded shard.
	if cut.ShardP99[1] <= 2*pristine.ShardP99[1] {
		t.Errorf("islanded shard p99 %g not degraded vs pristine %g", cut.ShardP99[1], pristine.ShardP99[1])
	}
	if cut.ShardP99[1] <= 4*cut.ShardP99[0] {
		t.Errorf("islanded shard p99 %g not ≫ untouched shard %g", cut.ShardP99[1], cut.ShardP99[0])
	}
	if drift := math.Abs(cut.ShardP99[0]-pristine.ShardP99[0]) / pristine.ShardP99[0]; drift > 0.25 {
		t.Errorf("untouched shard p99 not flat: cut %g vs pristine %g (drift %g)", cut.ShardP99[0], pristine.ShardP99[0], drift)
	}
	if cut.P99 <= pristine.P99 {
		t.Errorf("aggregate p99 under shard-cut %g not above pristine %g", cut.P99, pristine.P99)
	}
	if cut.ShardAvailability[0] != 1 || pristine.ShardAvailability[0] != 1 {
		t.Errorf("untouched shard availability not 1: cut %g, pristine %g", cut.ShardAvailability[0], pristine.ShardAvailability[0])
	}
}
