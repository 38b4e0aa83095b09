package experiments

import (
	"strings"
	"testing"
)

// smallLiveGrid keeps live-campaign tests fast: 2 cells, 3 reps each.
func smallLiveGrid() SweepConfig {
	return SweepConfig{
		Chi:         16,
		Reps:        3,
		Seed:        5,
		MaxSteps:    24,
		OmegaDirect: 2,
		Servers:     2,
		ProxyCounts: []int{2},
		Detectors:   []bool{false},
		Pacings:     []uint64{0, 1},
	}
}

func TestLiveCampaignGridShape(t *testing.T) {
	rows, err := Sweep(smallLiveGrid())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("got %d rows for a 1×1×2 grid", len(rows))
	}
	for i, r := range rows {
		if r.Proxies != 2 || r.Detector {
			t.Fatalf("row %d carries wrong cell identity: %+v", i, r)
		}
		if r.Reps != 3 {
			t.Fatalf("row %d ran %d reps, want 3", i, r.Reps)
		}
		if r.Compromised == 0 {
			t.Fatalf("row %d: no repetition fell on a 16-key space within 24 steps", i)
		}
	}
	// Grid order: pacing sweeps fastest.
	if rows[0].OmegaIndirect != 0 || rows[1].OmegaIndirect != 1 {
		t.Fatalf("rows out of grid order: %d, %d", rows[0].OmegaIndirect, rows[1].OmegaIndirect)
	}
}

// TestLiveCampaignDeterministicAcrossWorkers: the sweep reproduces from its
// seed at any worker budget, like every other experiment sweep.
func TestLiveCampaignDeterministicAcrossWorkers(t *testing.T) {
	cfg := smallLiveGrid()
	cfg.Workers = 1
	base, err := Sweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workers = 4
	got, err := Sweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Measurement-off rows carry NaN sentinels (ReadFrac, latency columns),
	// so reflect.DeepEqual would reject even identical sweeps; the rendered
	// CSV covers every row field and is the artifact that must reproduce.
	var a, b strings.Builder
	if err := campaignColumns.WriteCSV(&a, base); err != nil {
		t.Fatal(err)
	}
	if err := campaignColumns.WriteCSV(&b, got); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Errorf("workers=4 sweep differs from workers=1:\n%s\nvs\n%s", b.String(), a.String())
	}
}

func TestLiveCampaignIndirectOnly(t *testing.T) {
	// OmegaDirect 0 is a real configuration — an indirect-only sweep — and
	// must not be rewritten to the default direct budget.
	cfg := smallLiveGrid()
	cfg.OmegaDirect = 0
	cfg.Pacings = []uint64{2}
	rows, err := Sweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("got %d rows", len(rows))
	}
	// All compromises must come through the server routes: with no direct
	// probes the proxy tier can never fall.
	if n := rows[0].Routes["all-proxies"]; n != 0 {
		t.Fatalf("indirect-only sweep captured proxies %d times — direct budget not honoured", n)
	}
	// A cell with no probe budget at all must surface the validation error.
	cfg.Pacings = []uint64{0}
	if _, err := Sweep(cfg); err == nil {
		t.Fatal("zero total probe budget accepted")
	}
}

func TestLiveCampaignDefaultsApplied(t *testing.T) {
	cfg := SweepConfig{}.withDefaults()
	if cfg.Chi == 0 || cfg.Reps == 0 || len(cfg.ProxyCounts) == 0 ||
		len(cfg.Detectors) == 0 || len(cfg.Pacings) == 0 {
		t.Fatalf("defaults not applied: %+v", cfg)
	}
	// Drop rates and jitter ride the fault injector, which only a grid with
	// a fault-preset axis builds.
	for _, c := range []SweepConfig{{DropRates: []float64{0.05}}, {Jitters: []uint64{1}}} {
		if _, err := c.withDefaults().cells(); err == nil {
			t.Errorf("campaign grid accepted %+v", c)
		}
	}
}

func TestLiveCampaignFormatAndCSV(t *testing.T) {
	rows, err := Sweep(smallLiveGrid())
	if err != nil {
		t.Fatal(err)
	}
	table := campaignColumns.Format(rows)
	if !strings.Contains(table, "proxies") || !strings.Contains(table, "meanLifetime") {
		t.Fatalf("table header missing:\n%s", table)
	}
	var b strings.Builder
	if err := campaignColumns.WriteCSV(&b, rows); err != nil {
		t.Fatal(err)
	}
	csv := b.String()
	lines := strings.Split(strings.TrimSpace(csv), "\n")
	if len(lines) != len(rows)+1 {
		t.Fatalf("csv has %d lines for %d rows", len(lines), len(rows))
	}
	if !strings.HasPrefix(lines[0], "backend,proxies,detector,omega_indirect") {
		t.Fatalf("csv header wrong: %s", lines[0])
	}
	if !strings.HasPrefix(lines[1], "pb,2,false,0,,,false,3,") {
		t.Fatalf("csv first row wrong: %s", lines[1])
	}
}
