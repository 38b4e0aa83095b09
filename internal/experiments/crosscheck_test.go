package experiments

import (
	"math"
	"testing"

	"fortress/internal/model"
)

// TestLiveSMRMatchesAnalyticFig1Point cross-checks the executable stack
// against the analytic model at one fig1 coordinate: an SMR-backed live
// deployment probed indirectly once per step (ω_direct = 0, pacing 1,
// detector off) is exactly the S1 single-tier SO system at α = 1/χ — the
// server tier shares one randomization key, and with no direct budget the
// proxy tier never falls. The live mean lifetime must land within the
// series' own confidence band of the closed-form EL.
func TestLiveSMRMatchesAnalyticFig1Point(t *testing.T) {
	const chi = 16
	cfg := SweepConfig{
		Chi:         chi,
		Reps:        32,
		Seed:        11,
		MaxSteps:    3 * chi,
		OmegaDirect: 0,
		Backends:    []string{"smr"},
		ProxyCounts: []int{3},
		Detectors:   []bool{false},
		Pacings:     []uint64{1},
	}
	rows, err := Sweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("rows = %d, want 1", len(rows))
	}
	row := rows[0]
	// SO probing sweeps the keyspace without repetition, so every
	// repetition must fall within χ steps — a horizon of 3χ leaves no
	// censored lifetimes to bias the mean.
	if row.Compromised != uint64(cfg.Reps) {
		t.Fatalf("only %d/%d repetitions compromised within %d steps", row.Compromised, cfg.Reps, cfg.MaxSteps)
	}
	p := model.Params{
		Chi:               chi,
		Alpha:             1.0 / chi, // ω = α·χ = 1 probe per step
		Kappa:             0,
		LaunchPadFraction: 0,
		SMRReplicas:       4,
		SMRTolerance:      1,
		PBReplicas:        3,
		Proxies:           3,
	}
	want, err := model.S1SO{P: p}.AnalyticEL()
	if err != nil {
		t.Fatal(err)
	}
	tol := 3*row.CI95 + 1
	if diff := math.Abs(row.MeanLifetime - want); diff > tol {
		t.Errorf("live SMR mean lifetime %g vs analytic EL %g: |diff| %g exceeds tolerance %g (ci95 %g)",
			row.MeanLifetime, want, diff, tol, row.CI95)
	}
}
