package experiments

import (
	"bytes"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// smallFaultSweep is a grid sized for tests: active schedules on every cell,
// short horizon, few repetitions.
func smallFaultSweep(workers int) SweepConfig {
	return SweepConfig{
		Chi:      16,
		Reps:     2,
		Seed:     5,
		Workers:  workers,
		MaxSteps: 8,
		Presets:  []string{"rolling-partition", "quorum-partition", "proxy-outage"},
	}
}

// TestFaultSweepBitIdenticalAcrossWorkers is the sweep-level determinism
// contract with active fault schedules: every row — availability fractions
// and floating-point lifetime summaries included — is bit-identical at 1, 2
// and 8 workers.
func TestFaultSweepBitIdenticalAcrossWorkers(t *testing.T) {
	run := func(workers int) []SweepRow {
		t.Helper()
		rows, err := Sweep(smallFaultSweep(workers))
		if err != nil {
			t.Fatal(err)
		}
		return rows
	}
	base := run(1)
	if len(base) != 3 {
		t.Fatalf("rows = %d, want 3", len(base))
	}
	for _, workers := range []int{2, 8} {
		got := run(workers)
		if !reflect.DeepEqual(got, base) {
			t.Errorf("workers=%d rows %+v differ from workers=1 %+v", workers, got, base)
		}
	}
	// The CSV rendering — the artifact the CLI acceptance compares — must
	// therefore also be byte-identical.
	var a, b bytes.Buffer
	if err := faultColumns.WriteCSV(&a, base); err != nil {
		t.Fatal(err)
	}
	if err := faultColumns.WriteCSV(&b, run(8)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("CSV differs between workers=1 and workers=8")
	}
}

// TestShardSweepBitIdenticalAcrossWorkers extends the determinism contract
// to the sharded grid: a two-group sweep with a shard-cut cell is
// bit-identical at 1, 2 and 8 workers — rows, per-shard availability
// vectors, merged Stable-counter snapshots and the rendered CSV alike —
// and the cut cell shows exactly the isolation the consistent-hash
// partitioning promises: the islanded shard collapses while the other
// holds at 1.
func TestShardSweepBitIdenticalAcrossWorkers(t *testing.T) {
	run := func(workers int) ([]SweepRow, []map[string]uint64) {
		t.Helper()
		cfg := smallFaultSweep(workers)
		cfg.Groups = []int{2}
		cfg.Presets = []string{"none", "shard-cut"}
		cfg.CollectMetrics = true
		rows, err := Sweep(cfg)
		if err != nil {
			t.Fatal(err)
		}
		counters := make([]map[string]uint64, len(rows))
		for i := range rows {
			if rows[i].Metrics == nil {
				t.Fatalf("workers=%d: row %d has no metrics despite CollectMetrics", workers, i)
			}
			counters[i] = rows[i].Metrics.Counters
			// Only the Stable section is part of the determinism contract;
			// strip the observational payload before whole-row comparison.
			rows[i].Metrics = nil
		}
		return rows, counters
	}
	base, baseCounters := run(1)
	if len(base) != 2 {
		t.Fatalf("rows = %d, want 2", len(base))
	}
	pristine, cut := base[0], base[1]
	if pristine.Preset != "none" || cut.Preset != "shard-cut" {
		t.Fatalf("row order: %s, %s", pristine.Preset, cut.Preset)
	}
	for i, r := range base {
		if r.Groups != 2 || len(r.ShardAvailability) != 2 {
			t.Fatalf("row %d: groups=%d shards=%d, want a two-shard cell",
				i, r.Groups, len(r.ShardAvailability))
		}
	}
	// The fault is scoped to the last group: shard 0's slice of the keyspace
	// must ride out the cut untouched while shard 1 measurably degrades.
	if pristine.ShardAvailability[1] != 1 {
		t.Fatalf("pristine shard 1 availability = %g, want 1", pristine.ShardAvailability[1])
	}
	if cut.ShardAvailability[0] != 1 {
		t.Errorf("shard 0 availability = %g under shard-cut, want 1 (fault scoped to group 1)",
			cut.ShardAvailability[0])
	}
	if cut.ShardAvailability[1] >= pristine.ShardAvailability[1]-0.15 {
		t.Errorf("shard-cut did not measurably degrade shard 1: %g vs pristine %g",
			cut.ShardAvailability[1], pristine.ShardAvailability[1])
	}
	if c := baseCounters[1][`campaign_shard_probes_total{group="1"}`]; c == 0 {
		t.Error("shard-cut cell recorded no per-shard probe counters")
	}
	for _, workers := range []int{2, 8} {
		got, gotCounters := run(workers)
		if !reflect.DeepEqual(got, base) {
			t.Errorf("workers=%d rows %+v differ from workers=1 %+v", workers, got, base)
		}
		if !reflect.DeepEqual(gotCounters, baseCounters) {
			t.Errorf("workers=%d stable counters differ from workers=1:\n got %v\nwant %v",
				workers, gotCounters, baseCounters)
		}
	}
	// The CSV rendering — groups and shard_availability columns included —
	// must therefore also be byte-identical.
	rerun, _ := run(8)
	var a, b bytes.Buffer
	if err := faultColumns.WriteCSV(&a, base); err != nil {
		t.Fatal(err)
	}
	if err := faultColumns.WriteCSV(&b, rerun); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("sharded CSV differs between workers=1 and workers=8")
	}
}

// TestFaultSweepQuorumPartitionDegradesAvailability is the headline claim of
// the fault subsystem: islanding a server quorum from the proxy tier
// measurably degrades campaign-measured availability versus the pristine
// baseline.
func TestFaultSweepQuorumPartitionDegradesAvailability(t *testing.T) {
	cfg := smallFaultSweep(0)
	cfg.Presets = []string{"none", "quorum-partition"}
	cfg.MaxSteps = 12
	rows, err := Sweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(rows))
	}
	pristine, cut := rows[0], rows[1]
	if pristine.Preset != "none" || cut.Preset != "quorum-partition" {
		t.Fatalf("row order: %s, %s", pristine.Preset, cut.Preset)
	}
	if pristine.Availability < cut.Availability+0.15 {
		t.Errorf("quorum partition did not measurably degrade availability: pristine %.4g, cut %.4g",
			pristine.Availability, cut.Availability)
	}
}

// TestFaultSweepDurabilityAxes drives the blackout preset through the full
// sweep across the persistence grid with a jittered variant: the grid fans
// out wal cells (per fsync cadence) next to the collapsed mem cell, rows
// carry the axis labels in grid order, and the wal cells actually leave
// per-repetition store directories under PersistRoot.
func TestFaultSweepDurabilityAxes(t *testing.T) {
	cfg := smallFaultSweep(0)
	cfg.Presets = []string{"blackout"}
	cfg.Persist = []string{"mem", "wal"}
	cfg.FsyncEvery = []int{1}
	cfg.Jitters = []uint64{0, 1}
	cfg.PersistRoot = t.TempDir()
	rows, err := Sweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := []struct {
		persist string
		fsync   int
		jitter  uint64
	}{{"mem", 0, 0}, {"mem", 0, 1}, {"wal", 1, 0}, {"wal", 1, 1}}
	if len(rows) != len(want) {
		t.Fatalf("rows = %d, want %d", len(rows), len(want))
	}
	for i, w := range want {
		r := rows[i]
		if r.Preset != "blackout" || r.Persist != w.persist || r.FsyncEvery != w.fsync || r.Jitter != w.jitter {
			t.Errorf("row %d = (%s persist=%s fsync=%d jitter=%d), want (blackout %s %d %d)",
				i, r.Preset, r.Persist, r.FsyncEvery, r.Jitter, w.persist, w.fsync, w.jitter)
		}
	}
	logs, err := filepath.Glob(filepath.Join(cfg.PersistRoot, "cell*", "r*", "s*", "wal.log"))
	if err != nil {
		t.Fatal(err)
	}
	if len(logs) == 0 {
		t.Errorf("no WAL files under %s after a wal-cell sweep", cfg.PersistRoot)
	}
}

// TestReadMixSweepBitIdenticalAcrossWorkers extends the determinism
// contract to the workload axes: a read-mostly SMR sweep fanned over
// leases-off and leases-on cells is bit-identical at 1, 2 and 8 workers —
// the per-step read/write choice is a deterministic threshold, never an RNG
// draw, and lease fallback always completes the probe.
func TestReadMixSweepBitIdenticalAcrossWorkers(t *testing.T) {
	run := func(workers int) []SweepRow {
		t.Helper()
		cfg := smallFaultSweep(workers)
		cfg.Backends = []string{"smr"}
		cfg.Presets = []string{"rolling-partition"}
		cfg.ReadFracs = []float64{0.5, 0.95}
		cfg.Leases = []bool{false, true}
		rows, err := Sweep(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return rows
	}
	base := run(1)
	want := []struct {
		frac   float64
		leases bool
	}{{0.5, false}, {0.5, true}, {0.95, false}, {0.95, true}}
	if len(base) != len(want) {
		t.Fatalf("rows = %d, want %d", len(base), len(want))
	}
	for i, w := range want {
		if base[i].ReadFrac != w.frac || base[i].Leases != w.leases {
			t.Errorf("row %d = (readfrac=%g leases=%t), want (%g %t)",
				i, base[i].ReadFrac, base[i].Leases, w.frac, w.leases)
		}
	}
	for _, workers := range []int{2, 8} {
		got := run(workers)
		if !reflect.DeepEqual(got, base) {
			t.Errorf("workers=%d rows %+v differ from workers=1 %+v", workers, got, base)
		}
	}
}

// TestQuorumPartitionLeasesNoWorse is the sweep-level availability claim:
// under the quorum-partition schedule at a read-mostly mix, turning leases
// on must not cost availability — lease reads either answer locally or fall
// back to the same ordered path the baseline uses.
func TestQuorumPartitionLeasesNoWorse(t *testing.T) {
	cfg := smallFaultSweep(0)
	cfg.Backends = []string{"smr"}
	cfg.Presets = []string{"quorum-partition"}
	cfg.MaxSteps = 12
	cfg.ReadFracs = []float64{0.95}
	cfg.Leases = []bool{false, true}
	rows, err := Sweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(rows))
	}
	off, on := rows[0], rows[1]
	if off.Leases || !on.Leases {
		t.Fatalf("row order: leases=%t, leases=%t", off.Leases, on.Leases)
	}
	if on.Availability < off.Availability {
		t.Errorf("leases cost availability under quorum partition: on %.4g < off %.4g",
			on.Availability, off.Availability)
	}
}

func TestFaultSweepRejectsUnknownPreset(t *testing.T) {
	cfg := smallFaultSweep(1)
	cfg.Presets = []string{"no-such-preset"}
	if _, err := Sweep(cfg); err == nil || !strings.Contains(err.Error(), "no-such-preset") {
		t.Fatalf("unknown preset: err = %v", err)
	}
}

func TestFormatFaultSweepAndCSV(t *testing.T) {
	rows := []SweepRow{{
		Backend: "pb", Preset: "none", DropRate: 0.5, Proxies: 3, Groups: 2,
		Persist: "wal", FsyncEvery: 8, Jitter: 2,
		Workload: "zipf-poisson", ReadFrac: 0.95, Leases: true,
		Reps: 4, Compromised: 2,
		MeanLifetime: 7.25, CI95: 1.5, Availability: 0.875, AvailabilityCI95: 0.05,
		P50: 0.5, P99: 2, P999: 4,
		ShardAvailability: []float64{1, 0.75},
		ShardP99:          []float64{1.5, 250},
		Routes:            map[string]uint64{"all-proxies": 2},
	}}
	table := faultColumns.Format(rows)
	for _, want := range []string{"backend", "preset", "availability", "workload", "readfrac", "leases", "groups", "shards", "p99ms", "shardp99", "none", "zipf-poisson", "1;0.75", "1.5;250", "all-proxies:2"} {
		if !strings.Contains(table, want) {
			t.Errorf("table missing %q:\n%s", want, table)
		}
	}
	var buf bytes.Buffer
	if err := faultColumns.WriteCSV(&buf, rows); err != nil {
		t.Fatal(err)
	}
	got := buf.String()
	if !strings.HasPrefix(got, "backend,preset,drop_rate,proxies,persist,fsync_every,jitter,workload,read_frac,leases,reps,compromised,mean_lifetime,ci95,availability,availability_ci95,p50_ms,p99_ms,p999_ms,") {
		t.Errorf("csv header: %q", got)
	}
	if !strings.Contains(got, "pb,none,0.5,3,wal,8,2,zipf-poisson,0.95,true,4,2,7.25,1.5,0.875,0.05,0.5,2,4,2,1;0.75,1.5;250,0,0,2") {
		t.Errorf("csv row: %q", got)
	}
}
