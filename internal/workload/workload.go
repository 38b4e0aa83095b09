// Package workload is the declarative workload surface shared by campaigns,
// the sweep grids and the CLI: a Spec says what the measurement traffic looks
// like — how many simulated clients, how their arrivals are paced (closed
// loop, Poisson, bursty, diurnal ramp), which keys they touch (uniform or
// Zipfian popularity), how much of it is reads, and the latency a request is
// charged when its shard cannot answer — and Gen turns a Spec plus a seeded
// RNG into a deterministic arrival stream.
//
// Two invariants carry the rest of the repository's contracts:
//
//   - Generator state is O(active requests), never O(clients): cohorts of
//     clients are superposed into aggregate renewal processes on a small
//     event heap, so 10⁶ simulated clients cost the same fixed state as 10⁴
//     plus the per-step arrival buffer (BenchmarkWorkloadGen pins this via
//     its bytes/client metric).
//   - Everything is a pure function of (Spec, seed): arrival times, keys,
//     the read/write mix (a deterministic threshold, like the legacy
//     campaign probe) and the per-request service-time samples. Latency is
//     virtual — a service-time draw when the owning shard answers its
//     step probe, the Spec's Deadline when it does not — never wall clock,
//     so sweeps stay bit-identical at any -workers value.
package workload

import (
	"errors"
	"fmt"
	"time"
)

// Arrival selects how request arrivals are paced.
type Arrival int

const (
	// ClosedLoop is the legacy campaign workload: exactly one in-flight
	// request per step (per shard on sharded deployments), issued when the
	// previous one completes. Clients/Rate are ignored.
	ClosedLoop Arrival = iota
	// Poisson is open-loop: each simulated client issues requests as a
	// Poisson process at Rate arrivals per step, independent of completions
	// — the open-vs-closed distinction that makes latency-under-disaster
	// visible instead of self-throttling around it.
	Poisson
	// Bursty is Poisson modulated by an on/off square wave: during the
	// burst phase (BurstDuty of every BurstPeriod steps) the rate is
	// multiplied by BurstFactor.
	Bursty
	// Diurnal is Poisson modulated by a sawtooth ramp: the rate climbs
	// from 10% to 100% of Rate over each RampPeriod steps, then resets —
	// a compressed day/night cycle.
	Diurnal
)

// String names the arrival process.
func (a Arrival) String() string {
	switch a {
	case ClosedLoop:
		return "closed"
	case Poisson:
		return "poisson"
	case Bursty:
		return "bursty"
	case Diurnal:
		return "diurnal"
	default:
		return fmt.Sprintf("arrival(%d)", int(a))
	}
}

// KeyDist selects the key-popularity distribution.
type KeyDist int

const (
	// Uniform spreads arrivals evenly over the Keys key IDs.
	Uniform KeyDist = iota
	// Zipfian skews popularity as 1/(rank+1)^ZipfS: key 0 is the hottest.
	// Sampling is an O(log Keys) binary search over a precomputed CDF, so
	// any exponent s > 0 works (math/rand's rejection-inversion needs s>1).
	Zipfian
)

// String names the key distribution.
func (d KeyDist) String() string {
	switch d {
	case Uniform:
		return "uniform"
	case Zipfian:
		return "zipfian"
	default:
		return fmt.Sprintf("keydist(%d)", int(d))
	}
}

// Spec declares a measurement workload. The zero value means "no workload
// configured" (IsZero) — consumers fall back to their default, the
// "closed" preset — and zero-valued individual fields select the documented defaults.
type Spec struct {
	// Name labels the spec in sweep rows and CSV; presets set it.
	Name string
	// Clients is the simulated client population (10⁴–10⁶ is the intended
	// range). No per-client state exists anywhere: clients only scale the
	// aggregate arrival rate. Ignored by ClosedLoop. Default 10000.
	Clients int
	// Arrival is the arrival process.
	Arrival Arrival
	// Rate is each client's arrival rate in requests per unit time-step
	// (open-loop processes only). Default 0.02 — 10⁴ clients then offer
	// 200 requests per step.
	Rate float64
	// BurstFactor multiplies Rate during the burst phase (Bursty only).
	// Default 8.
	BurstFactor float64
	// BurstPeriod is the on/off cycle length in steps (Bursty only).
	// Default 8.
	BurstPeriod uint64
	// BurstDuty is the fraction of each period spent bursting (Bursty
	// only). Default 0.25.
	BurstDuty float64
	// RampPeriod is the sawtooth cycle length in steps (Diurnal only).
	// Default 16.
	RampPeriod uint64
	// KeyDist is the key-popularity distribution.
	KeyDist KeyDist
	// Keys is the number of distinct key IDs. Default 1024.
	Keys int
	// ZipfS is the Zipfian exponent (Zipfian only); must be > 0.
	ZipfS float64
	// ReadFraction is the read share of the workload in [0, 1]; 0 is all
	// writes. The realized mix tracks the fraction exactly via a
	// deterministic threshold, never an RNG draw.
	ReadFraction float64
	// Deadline is the virtual latency charged to a request whose owning
	// shard fails its step probe — the per-request deadline after which an
	// open-loop client would give up. Default 250ms.
	Deadline time.Duration
}

// IsZero reports whether the spec is entirely unset — the "no workload
// configured" sentinel consumers test before falling back to a default.
func (s Spec) IsZero() bool { return s == Spec{} }

// Validate rejects nonsensical field values. It accepts zero-valued fields
// (they mean "default"); the generator validates again after defaulting.
func (s Spec) Validate() error {
	switch {
	case s.Clients < 0:
		return fmt.Errorf("workload: negative client count %d", s.Clients)
	case s.Rate < 0:
		return errors.New("workload: negative rate")
	case s.Keys < 0:
		return fmt.Errorf("workload: negative key count %d", s.Keys)
	case s.ReadFraction < 0 || s.ReadFraction > 1:
		return fmt.Errorf("workload: read fraction %g outside [0,1]", s.ReadFraction)
	case s.Deadline < 0:
		return fmt.Errorf("workload: negative deadline %v", s.Deadline)
	case s.BurstFactor < 0 || (s.Arrival == Bursty && s.BurstFactor != 0 && s.BurstFactor < 1):
		return fmt.Errorf("workload: burst factor %g must be at least 1", s.BurstFactor)
	case s.BurstDuty < 0 || s.BurstDuty > 1:
		return fmt.Errorf("workload: burst duty %g outside [0,1]", s.BurstDuty)
	}
	if s.KeyDist == Zipfian && s.ZipfS <= 0 {
		return errors.New("workload: zipf s must be > 0")
	}
	return nil
}

// withDefaults fills zero-valued fields with the documented defaults.
func (s Spec) withDefaults() Spec {
	if s.Keys == 0 {
		s.Keys = 1024
	}
	if s.Deadline == 0 {
		s.Deadline = 250 * time.Millisecond
	}
	if s.Arrival != ClosedLoop {
		if s.Clients == 0 {
			s.Clients = 10000
		}
		if s.Rate == 0 {
			s.Rate = 0.02
		}
		if s.Arrival == Bursty {
			if s.BurstFactor == 0 {
				s.BurstFactor = 8
			}
			if s.BurstPeriod == 0 {
				s.BurstPeriod = 8
			}
			if s.BurstDuty == 0 {
				s.BurstDuty = 0.25
			}
		}
		if s.Arrival == Diurnal && s.RampPeriod == 0 {
			s.RampPeriod = 16
		}
	}
	return s
}

// Preset is a named Spec with the help text the CLIs print.
type Preset struct {
	Spec        Spec
	Description string
}

// Presets is the named-workload catalog the sweep grids and the -workload
// CLI flag select from, in a fixed order.
func Presets() []Preset {
	return []Preset{
		{
			Spec:        Spec{Name: "closed", Arrival: ClosedLoop, ReadFraction: 1},
			Description: "legacy closed loop: one all-read health probe per step per shard",
		},
		{
			Spec:        Spec{Name: "uniform-closed", Arrival: ClosedLoop, ReadFraction: 0.95},
			Description: "closed loop at a 0.95 read mix",
		},
		{
			Spec: Spec{Name: "uniform-poisson", Arrival: Poisson, Clients: 10000,
				Rate: 0.02, KeyDist: Uniform, ReadFraction: 0.95},
			Description: "10k open-loop clients, Poisson arrivals, uniform keys, 0.95 reads",
		},
		{
			Spec: Spec{Name: "zipf-poisson", Arrival: Poisson, Clients: 10000,
				Rate: 0.02, KeyDist: Zipfian, ZipfS: 1.1, ReadFraction: 0.95},
			Description: "10k open-loop clients, Poisson arrivals, Zipfian keys (s=1.1), 0.95 reads",
		},
		{
			Spec: Spec{Name: "zipf-bursty", Arrival: Bursty, Clients: 10000,
				Rate: 0.01, BurstFactor: 8, BurstPeriod: 8, BurstDuty: 0.25,
				KeyDist: Zipfian, ZipfS: 1.1, ReadFraction: 0.9},
			Description: "Zipfian keys under 8x on/off bursts (2 of every 8 steps)",
		},
		{
			Spec: Spec{Name: "diurnal-ramp", Arrival: Diurnal, Clients: 10000,
				Rate: 0.02, RampPeriod: 16, KeyDist: Zipfian, ZipfS: 0.8, ReadFraction: 0.95},
			Description: "Zipfian keys on a sawtooth 10%-100% rate ramp every 16 steps",
		},
	}
}

// PresetByName returns the named preset's Spec.
func PresetByName(name string) (Spec, error) {
	for _, p := range Presets() {
		if p.Spec.Name == name {
			return p.Spec, nil
		}
	}
	return Spec{}, fmt.Errorf("workload: unknown preset %q", name)
}

// PresetNames lists the preset names in catalog order.
func PresetNames() []string {
	ps := Presets()
	names := make([]string, len(ps))
	for i, p := range ps {
		names[i] = p.Spec.Name
	}
	return names
}
