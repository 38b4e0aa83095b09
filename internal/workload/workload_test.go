package workload

import (
	"math"
	"reflect"
	"testing"
	"time"

	"fortress/internal/xrand"
)

func TestValidatePinnedErrors(t *testing.T) {
	// These two messages are part of the Spec API: the CLIs surface them
	// verbatim, so they are pinned here.
	if err := (Spec{Rate: -1}).Validate(); err == nil || err.Error() != "workload: negative rate" {
		t.Errorf("negative rate: err = %v", err)
	}
	for _, s := range []float64{0, -0.5} {
		if err := (Spec{KeyDist: Zipfian, ZipfS: s}).Validate(); err == nil || err.Error() != "workload: zipf s must be > 0" {
			t.Errorf("zipf s=%g: err = %v", s, err)
		}
	}
}

func TestValidateRejectsNonsense(t *testing.T) {
	bad := []Spec{
		{Clients: -1},
		{Keys: -3},
		{ReadFraction: 1.5},
		{ReadFraction: -0.1},
		{Deadline: -time.Second},
		{Arrival: Bursty, BurstFactor: 0.5},
		{BurstDuty: 2},
	}
	for _, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("Validate(%+v) accepted", s)
		}
	}
	if err := (Spec{}).Validate(); err != nil {
		t.Errorf("zero spec rejected: %v", err)
	}
}

func TestEveryPresetValidates(t *testing.T) {
	for _, p := range Presets() {
		if err := p.Spec.Validate(); err != nil {
			t.Errorf("preset %s: %v", p.Spec.Name, err)
		}
		if _, err := NewGen(p.Spec, xrand.New(1)); err != nil {
			t.Errorf("preset %s gen: %v", p.Spec.Name, err)
		}
		got, err := PresetByName(p.Spec.Name)
		if err != nil || got != p.Spec {
			t.Errorf("PresetByName(%s) = %+v, %v", p.Spec.Name, got, err)
		}
		if p.Spec.IsZero() {
			t.Errorf("preset %s reads as the no-workload sentinel", p.Spec.Name)
		}
	}
	if !(Spec{}).IsZero() {
		t.Error("zero spec not IsZero")
	}
	// The zero Spec's fallback: one all-read closed-loop probe per step.
	if got, _ := PresetByName("closed"); got != (Spec{Name: "closed", Arrival: ClosedLoop, ReadFraction: 1}) {
		t.Errorf("closed preset = %+v", got)
	}
	if _, err := PresetByName("no-such-workload"); err == nil || err.Error() != `workload: unknown preset "no-such-workload"` {
		t.Errorf("unknown preset: err = %v", err)
	}
}

// TestGenDeterministic is the purity contract: two generators built from the
// same (Spec, seed) emit identical streams, for every preset.
func TestGenDeterministic(t *testing.T) {
	for _, p := range Presets() {
		a, err := NewGen(p.Spec, xrand.New(42))
		if err != nil {
			t.Fatal(err)
		}
		b, err := NewGen(p.Spec, xrand.New(42))
		if err != nil {
			t.Fatal(err)
		}
		for step := uint64(0); step < 32; step++ {
			ra := a.Arrivals(step, nil)
			rb := b.Arrivals(step, nil)
			if !reflect.DeepEqual(ra, rb) {
				t.Fatalf("preset %s step %d: streams diverge", p.Spec.Name, step)
			}
		}
	}
}

// TestGenArrivalsOrderedWithinStep checks the event heap drains in virtual
// time order and never leaks an arrival outside its step window.
func TestGenArrivalsOrderedWithinStep(t *testing.T) {
	spec := Spec{Arrival: Poisson, Clients: 5000, Rate: 0.05}
	g, err := NewGen(spec, xrand.New(7))
	if err != nil {
		t.Fatal(err)
	}
	for step := uint64(0); step < 16; step++ {
		reqs := g.Arrivals(step, nil)
		prev := math.Inf(-1)
		for _, r := range reqs {
			if r.T < float64(step) || r.T >= float64(step+1) {
				t.Fatalf("step %d: arrival at t=%g outside window", step, r.T)
			}
			if r.T < prev {
				t.Fatalf("step %d: arrivals out of order", step)
			}
			prev = r.T
			if r.Service < 500*time.Microsecond {
				t.Fatalf("service draw %v below floor", r.Service)
			}
		}
	}
}

// TestPoissonRate checks the open-loop offered load: Clients·Rate arrivals
// per step in expectation, within a loose Monte-Carlo band.
func TestPoissonRate(t *testing.T) {
	spec := Spec{Arrival: Poisson, Clients: 10000, Rate: 0.02}
	g, err := NewGen(spec, xrand.New(3))
	if err != nil {
		t.Fatal(err)
	}
	const steps = 200
	var n int
	buf := make([]Request, 0, 512)
	for step := uint64(0); step < steps; step++ {
		buf = g.Arrivals(step, buf[:0])
		n += len(buf)
	}
	perStep := float64(n) / steps
	if perStep < 180 || perStep > 220 {
		t.Errorf("offered load %g arrivals/step, want ≈200", perStep)
	}
}

// TestClientScalingFlatState pins the tentpole's O(active requests) claim
// structurally: a 10⁶-client generator holds exactly as many cohorts and
// heap entries as a 10⁴-client one, and its offered load scales 100×.
func TestClientScalingFlatState(t *testing.T) {
	small := Spec{Arrival: Poisson, Clients: 10000, Rate: 0.002}
	large := Spec{Arrival: Poisson, Clients: 1000000, Rate: 0.002}
	gs, err := NewGen(small, xrand.New(9))
	if err != nil {
		t.Fatal(err)
	}
	gl, err := NewGen(large, xrand.New(9))
	if err != nil {
		t.Fatal(err)
	}
	if len(gs.cohorts) != maxCohorts || len(gl.cohorts) != maxCohorts {
		t.Fatalf("cohorts: small %d, large %d, want %d each", len(gs.cohorts), len(gl.cohorts), maxCohorts)
	}
	count := func(g *Gen) int {
		var n int
		buf := make([]Request, 0, 4096)
		for step := uint64(0); step < 20; step++ {
			buf = g.Arrivals(step, buf[:0])
			n += len(buf)
		}
		return n
	}
	ns, nl := count(gs), count(gl)
	ratio := float64(nl) / float64(ns)
	if ratio < 80 || ratio > 120 {
		t.Errorf("load ratio %g for 100× clients, want ≈100 (small %d, large %d)", ratio, ns, nl)
	}
}

// TestZipfSkew checks the popularity law: key 0 dominates and low ranks
// collectively outweigh a uniform share.
func TestZipfSkew(t *testing.T) {
	spec := Spec{Arrival: Poisson, Clients: 10000, Rate: 0.05,
		KeyDist: Zipfian, Keys: 1024, ZipfS: 1.1}
	g, err := NewGen(spec, xrand.New(11))
	if err != nil {
		t.Fatal(err)
	}
	counts := make(map[uint32]int)
	var total int
	buf := make([]Request, 0, 1024)
	for step := uint64(0); step < 64; step++ {
		buf = g.Arrivals(step, buf[:0])
		for _, r := range buf {
			counts[r.Key]++
		}
		total += len(buf)
	}
	var top16 int
	for k := uint32(0); k < 16; k++ {
		top16 += counts[k]
	}
	if frac := float64(top16) / float64(total); frac < 0.3 {
		t.Errorf("top-16 keys carry %g of traffic, want skew ≫ uniform 16/1024", frac)
	}
	for k, n := range counts {
		if n > counts[0] {
			t.Fatalf("key %d (%d hits) beats rank-0 key (%d)", k, n, counts[0])
		}
	}
}

// TestBurstyModulation checks the square wave: burst-phase steps carry more
// arrivals than off-phase steps.
func TestBurstyModulation(t *testing.T) {
	spec := Spec{Arrival: Bursty, Clients: 10000, Rate: 0.01,
		BurstFactor: 8, BurstPeriod: 8, BurstDuty: 0.25}
	g, err := NewGen(spec, xrand.New(13))
	if err != nil {
		t.Fatal(err)
	}
	var burst, quiet, burstSteps, quietSteps int
	buf := make([]Request, 0, 2048)
	for step := uint64(0); step < 64; step++ {
		buf = g.Arrivals(step, buf[:0])
		if step%8 < 2 { // duty 0.25 of period 8
			burst += len(buf)
			burstSteps++
		} else {
			quiet += len(buf)
			quietSteps++
		}
	}
	bRate := float64(burst) / float64(burstSteps)
	qRate := float64(quiet) / float64(quietSteps)
	if bRate < 4*qRate {
		t.Errorf("burst rate %g not ≫ quiet rate %g (factor 8 configured)", bRate, qRate)
	}
}

// TestClosedLoopMixMatchesLegacyRule pins the deterministic read/write
// threshold against the legacy campaign's per-step sequence.
func TestClosedLoopMixMatchesLegacyRule(t *testing.T) {
	g, err := NewGen(Spec{Name: "closed", Arrival: ClosedLoop, ReadFraction: 0.5}, xrand.New(1))
	if err != nil {
		t.Fatal(err)
	}
	var reads, total int
	for step := uint64(0); step < 100; step++ {
		reqs := g.Arrivals(step, nil)
		if len(reqs) != 1 {
			t.Fatalf("closed loop emitted %d requests in one step", len(reqs))
		}
		// Legacy rule: read iff realized reads < frac·(total+1).
		want := float64(reads) < 0.5*float64(total+1)
		if reqs[0].Read != want {
			t.Fatalf("step %d: read=%t, legacy rule says %t", step, reqs[0].Read, want)
		}
		total++
		if reqs[0].Read {
			reads++
		}
	}
	if reads != 50 {
		t.Errorf("realized %d reads of %d, want exact tracking", reads, total)
	}
}

func TestHistQuantiles(t *testing.T) {
	var h Hist
	if h.Quantile(0.5) != 0 || h.P99() != 0 {
		t.Error("empty hist quantile not 0")
	}
	// 90 fast observations and 10 slow: p50 sits in the fast bucket, p99 in
	// the slow one.
	for i := 0; i < 90; i++ {
		h.Observe(1 * time.Millisecond)
	}
	for i := 0; i < 10; i++ {
		h.Observe(100 * time.Millisecond)
	}
	if h.Count != 100 {
		t.Fatalf("count = %d", h.Count)
	}
	if p50 := h.P50(); p50 < 500*time.Microsecond || p50 > 1*time.Millisecond {
		t.Errorf("p50 = %v, want within the 1ms bucket", p50)
	}
	if p99 := h.P99(); p99 < 64*time.Millisecond || p99 > 128*time.Millisecond {
		t.Errorf("p99 = %v, want within the 128ms bucket", p99)
	}
	if mean := h.Mean(); mean < 5*time.Millisecond || mean > 20*time.Millisecond {
		t.Errorf("mean = %v", mean)
	}
}

// TestHistMergeOrderIndependent is what makes the campaign fold
// deterministic: merging per-repetition histograms is element-wise addition,
// so any fold order yields the same aggregate.
func TestHistMergeOrderIndependent(t *testing.T) {
	mk := func(seed uint64) Hist {
		var h Hist
		r := xrand.New(seed)
		for i := 0; i < 200; i++ {
			h.Observe(time.Duration(r.Uint64n(uint64(500 * time.Millisecond))))
		}
		return h
	}
	a, b, c := mk(1), mk(2), mk(3)
	var ab, ba Hist
	ab.Merge(a)
	ab.Merge(b)
	ab.Merge(c)
	ba.Merge(c)
	ba.Merge(b)
	ba.Merge(a)
	if ab != ba {
		t.Error("merge is order-dependent")
	}
	if ab.Count != a.Count+b.Count+c.Count {
		t.Errorf("merged count %d", ab.Count)
	}
}

// TestNewGenSplitOnly pins the stream-layout contract NewGen documents: it
// only ever Splits the parent (one split for the sample stream plus one per
// cohort), never reads it, so sibling streams laid out after the generator
// stay where the caller put them.
func TestNewGenSplitOnly(t *testing.T) {
	a, b := xrand.New(77), xrand.New(77)
	g, err := NewGen(PresetsMustSpec(t, "zipf-poisson"), a)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1+len(g.cohorts); i++ {
		b.Split()
	}
	for i := 0; i < 16; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("NewGen read the parent stream beyond its splits")
		}
	}
}

// PresetsMustSpec fetches a preset spec or fails the test.
func PresetsMustSpec(t *testing.T, name string) Spec {
	t.Helper()
	s, err := PresetByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return s
}
