package attack

import (
	"reflect"
	"testing"
	"time"

	"fortress/internal/faults"
	"fortress/internal/fortress"
	"fortress/internal/service"
	"fortress/internal/xrand"
)

// seriesTemplate is a small, generously timed deployment so campaign
// repetitions finish fast without timing flakes under parallel load.
func seriesTemplate() fortress.Config {
	return fortress.Config{
		Servers:           2,
		Proxies:           2,
		ServiceFactory:    func() service.Service { return service.NewKV() },
		HeartbeatInterval: 10 * time.Millisecond,
		HeartbeatTimeout:  200 * time.Millisecond,
		ServerTimeout:     5 * time.Second,
	}
}

func TestCampaignSeriesValidation(t *testing.T) {
	s := space(t, 16)
	if _, err := CampaignSeries(seriesTemplate(), s, SeriesConfig{
		Campaign: CampaignConfig{OmegaDirect: 1, MaxSteps: 4},
	}, 0, xrand.New(1)); err == nil {
		t.Fatal("zero repetitions accepted")
	}
	if _, err := CampaignSeries(seriesTemplate(), s, SeriesConfig{}, 2, xrand.New(1)); err == nil {
		t.Fatal("invalid campaign config accepted")
	}
}

func TestCampaignSeriesAggregates(t *testing.T) {
	s := space(t, 16)
	res, err := CampaignSeries(seriesTemplate(), s, SeriesConfig{
		Campaign: CampaignConfig{OmegaDirect: 2, OmegaIndirect: 1, MaxSteps: 30},
		Workers:  2,
	}, 4, xrand.New(9))
	if err != nil {
		t.Fatal(err)
	}
	if res.Reps != 4 || len(res.Results) != 4 {
		t.Fatalf("reps = %d, results = %d, want 4", res.Reps, len(res.Results))
	}
	if res.Lifetime.N != 4 {
		t.Fatalf("lifetime summary over %d observations, want 4", res.Lifetime.N)
	}
	// χ=16 with ω=2+1 per step and a 30-step horizon: every repetition must
	// fall, and the recorded routes must account for every compromise.
	if res.Compromised != 4 {
		t.Fatalf("compromised %d/4 repetitions on a 16-key space", res.Compromised)
	}
	var routed uint64
	for route, count := range res.Routes {
		switch route {
		case "server-indirect", "server-launchpad", "all-proxies":
		default:
			t.Fatalf("unknown route %q", route)
		}
		routed += count
	}
	if routed != res.Compromised {
		t.Fatalf("routes account for %d compromises, want %d", routed, res.Compromised)
	}
}

// TestCampaignSeriesBitIdenticalAcrossWorkers is the acceptance-criteria
// contract: the merged series result — every field, including the
// floating-point lifetime summary — is bit-identical whether the
// repetitions run on 1, 2 or 8 workers.
func TestCampaignSeriesBitIdenticalAcrossWorkers(t *testing.T) {
	s := space(t, 16)
	run := func(workers int) SeriesResult {
		t.Helper()
		res, err := CampaignSeries(seriesTemplate(), s, SeriesConfig{
			Campaign: CampaignConfig{OmegaDirect: 2, OmegaIndirect: 1, MaxSteps: 24},
			Workers:  workers,
		}, 6, xrand.New(1234))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	base := run(1)
	for _, workers := range []int{2, 8} {
		got := run(workers)
		if !reflect.DeepEqual(got, base) {
			t.Errorf("workers=%d series %+v differs from workers=1 %+v", workers, got, base)
		}
	}
}

// faultedTemplate shortens the server timeout below the failover timeout so
// that a request parked behind a severed or dead primary fails at the proxy
// on a clock that is a pure function of the schedule, never of load.
func faultedTemplate() fortress.Config {
	c := seriesTemplate()
	c.HeartbeatTimeout = 400 * time.Millisecond
	c.ServerTimeout = 150 * time.Millisecond
	return c
}

// TestCampaignSeriesWithInjectorBitIdentical extends the determinism
// contract to degraded networks: with an active fault schedule — a quorum
// cut plus a proxy outage replayed by a per-repetition injector — and
// per-step availability measurement on, the merged series result is still
// bit-identical at 1, 2 and 8 workers.
func TestCampaignSeriesWithInjectorBitIdentical(t *testing.T) {
	s := space(t, 16)
	sched := faults.Schedule{}.Append(
		faults.Partition(2, faults.ServerAddrs(2), faults.ProxyAddrs(2)),
		faults.Crash(3, fortress.Proxy(1)),
		faults.Heal(5, faults.ServerAddrs(2), faults.ProxyAddrs(2)),
		faults.Restart(6, fortress.Proxy(1)),
	)
	run := func(workers int) SeriesResult {
		t.Helper()
		res, err := CampaignSeries(faultedTemplate(), s, SeriesConfig{
			Campaign: CampaignConfig{
				OmegaDirect:         2,
				OmegaIndirect:       1,
				MaxSteps:            10,
				MeasureAvailability: true,
				HealthTimeout:       600 * time.Millisecond,
				ProbeTimeout:        2 * time.Second,
			},
			Workers: workers,
			MakeInjector: func(rep int, sys *fortress.System, rng *xrand.RNG) StepInjector {
				inj, err := faults.NewInjector(sched, sys, rng)
				if err != nil {
					t.Error(err)
					return nil
				}
				return inj
			},
		}, 4, xrand.New(321))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	base := run(1)
	if base.Availability.N == 0 {
		t.Fatal("availability was not measured")
	}
	// The 3-step quorum cut must show up: no repetition can be fully
	// available unless it was compromised before the cut opened.
	for i, r := range base.Results {
		if r.ProbedSteps > 2 && r.AvailableSteps == r.ProbedSteps {
			t.Errorf("rep %d: fully available across a quorum cut (%d steps)", i, r.ProbedSteps)
		}
	}
	for _, workers := range []int{2, 8} {
		got := run(workers)
		if !reflect.DeepEqual(got, base) {
			t.Errorf("workers=%d series %+v differs from workers=1 %+v", workers, got, base)
		}
	}
}

// TestCampaignSeriesRejectsSharedInjector pins the footgun: one injector is
// bound to one deployment, so the series template must not carry one.
func TestCampaignSeriesRejectsSharedInjector(t *testing.T) {
	s := space(t, 16)
	cfg := SeriesConfig{Campaign: CampaignConfig{OmegaDirect: 1, MaxSteps: 4}}
	cfg.Campaign.Injector = noopInjector{}
	if _, err := CampaignSeries(seriesTemplate(), s, cfg, 2, xrand.New(1)); err == nil {
		t.Fatal("series template with a shared injector accepted")
	}
}

type noopInjector struct{}

func (noopInjector) Advance(uint64) error { return nil }

// TestCampaignSeriesPOOutlivesSO checks the aggregated series reproduces the
// paper's headline trend on the executable stack: re-randomizing every step
// lengthens mean lifetime.
func TestCampaignSeriesPOOutlivesSO(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-repetition comparison skipped in -short")
	}
	s := space(t, 20)
	run := func(rerandomize bool) float64 {
		t.Helper()
		res, err := CampaignSeries(seriesTemplate(), s, SeriesConfig{
			Campaign: CampaignConfig{
				OmegaDirect:   2,
				OmegaIndirect: 1,
				MaxSteps:      40,
				Rerandomize:   rerandomize,
			},
			Workers: 4,
		}, 6, xrand.New(77))
		if err != nil {
			t.Fatal(err)
		}
		return res.Lifetime.Mean
	}
	so := run(false)
	po := run(true)
	if po <= so {
		t.Errorf("PO mean lifetime %v ≤ SO mean lifetime %v across series", po, so)
	}
}
