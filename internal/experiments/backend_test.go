package experiments

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

// TestFaultSweepSMRBitIdenticalAcrossWorkers is the SMR half of the sweep
// determinism contract (and the acceptance bar for the backend axis): an
// SMR-backed fault sweep over the quorum- and rolling-partition presets —
// schedules under which replicas crash, restart and converge through the
// leader-driven catch-up transfer — produces byte-identical CSV at 1, 2
// and 8 workers.
func TestFaultSweepSMRBitIdenticalAcrossWorkers(t *testing.T) {
	run := func(workers int) []SweepRow {
		t.Helper()
		cfg := smallFaultSweep(workers)
		cfg.Backends = []string{"smr"}
		cfg.Presets = []string{"quorum-partition", "rolling-partition"}
		rows, err := Sweep(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return rows
	}
	base := run(1)
	if len(base) != 2 {
		t.Fatalf("rows = %d, want 2", len(base))
	}
	for _, r := range base {
		if r.Backend != "smr" {
			t.Fatalf("row backend = %q", r.Backend)
		}
	}
	for _, workers := range []int{2, 8} {
		got := run(workers)
		if !reflect.DeepEqual(got, base) {
			t.Errorf("workers=%d rows %+v differ from workers=1 %+v", workers, got, base)
		}
	}
	var a, b bytes.Buffer
	if err := faultColumns.WriteCSV(&a, base); err != nil {
		t.Fatal(err)
	}
	if err := faultColumns.WriteCSV(&b, run(8)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("SMR CSV differs between workers=1 and workers=8")
	}
}

// TestFaultSweepDropCellsBitIdenticalAcrossWorkers pins the per-directed-
// pair drop streams: cells with a positive drop rate — previously only
// statistically reproducible, because one shared generator interleaved all
// connections — now reproduce byte-for-byte at any worker count.
func TestFaultSweepDropCellsBitIdenticalAcrossWorkers(t *testing.T) {
	run := func(workers int) []SweepRow {
		t.Helper()
		cfg := smallFaultSweep(workers)
		cfg.Presets = []string{"none", "lossy"}
		cfg.DropRates = []float64{0.03}
		rows, err := Sweep(cfg)
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
		got := run(workers)
		if !reflect.DeepEqual(got, base) {
			t.Errorf("workers=%d drop-cell rows differ:\n got %+v\nwant %+v", workers, got, base)
		}
	}
	var a, b bytes.Buffer
	if err := faultColumns.WriteCSV(&a, base); err != nil {
		t.Fatal(err)
	}
	if err := faultColumns.WriteCSV(&b, run(8)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("positive-drop CSV differs between workers=1 and workers=8")
	}
}

// TestFaultSweepBackendComparison is the new scenario axis doing its job:
// under the quorum cut the PB tier loses availability (the islanded
// primary cannot commit), while the SMR tier keeps serving through the
// followers left outside the cut, which relay to the leader over intact
// server-server links.
func TestFaultSweepBackendComparison(t *testing.T) {
	cfg := smallFaultSweep(0)
	cfg.Backends = []string{"pb", "smr"}
	cfg.Presets = []string{"quorum-partition"}
	cfg.MaxSteps = 12
	rows, err := Sweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(rows))
	}
	pb, smr := rows[0], rows[1]
	if pb.Backend != "pb" || smr.Backend != "smr" {
		t.Fatalf("row order: %s, %s", pb.Backend, smr.Backend)
	}
	if smr.Availability < pb.Availability+0.15 {
		t.Errorf("SMR did not measurably out-serve PB under the quorum cut: smr %.4g, pb %.4g",
			smr.Availability, pb.Availability)
	}
}

// TestFaultSweepRejectsUnknownBackend mirrors the preset validation.
func TestFaultSweepRejectsUnknownBackend(t *testing.T) {
	cfg := smallFaultSweep(1)
	cfg.Backends = []string{"raft"}
	if _, err := Sweep(cfg); err == nil || !strings.Contains(err.Error(), "raft") {
		t.Fatalf("unknown backend: err = %v", err)
	}
}

// TestLiveCampaignBackendAxis runs one tiny SMR cell through the live
// campaign sweep, checking the axis is plumbed end to end.
func TestLiveCampaignBackendAxis(t *testing.T) {
	cfg := SweepConfig{
		Chi:      12,
		Reps:     2,
		Seed:     3,
		MaxSteps: 6,
		Backends: []string{"smr"},
		Servers:  2,

		ProxyCounts: []int{2},
		Detectors:   []bool{false},
		Pacings:     []uint64{1},
	}
	rows, err := Sweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0].Backend != "smr" {
		t.Fatalf("rows = %+v", rows)
	}
	if rows[0].Reps != 2 {
		t.Fatalf("reps = %d", rows[0].Reps)
	}
}
