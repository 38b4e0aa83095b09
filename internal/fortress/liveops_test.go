package fortress

import (
	"fmt"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"fortress/internal/keyspace"
	"fortress/internal/metrics"
	"fortress/internal/replica"
	"fortress/internal/replica/store"
	"fortress/internal/service"
)

// metricsTestSystem deploys a system with a fresh registry attached. A WAL
// store factory is wired when dir is non-empty, with per-server directories
// and the store's instruments labelled by server address.
func metricsTestSystem(t *testing.T, backend replica.Backend, reg *metrics.Registry, dir string) *System {
	t.Helper()
	space, err := keyspace.NewSpace(64)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Servers:           3,
		Proxies:           2,
		Backend:           backend,
		Space:             space,
		Seed:              7,
		ServiceFactory:    func() service.Service { return service.NewKV() },
		HeartbeatInterval: 5 * time.Millisecond,
		HeartbeatTimeout:  100 * time.Millisecond,
		ServerTimeout:     2 * time.Second,
		Metrics:           reg,
	}
	if dir != "" {
		cfg.StoreFactory = func(server int) (store.Store, error) {
			return store.Open(store.WALConfig{
				Dir:          filepath.Join(dir, fmt.Sprintf("s%d", server)),
				DisableFsync: true,
				Metrics:      reg,
				Node:         ServerAddr(server),
			})
		}
	}
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sys.Stop)
	return sys
}

// TestMetricsInstrumentCoverage pins the live-ops acceptance bar: a
// deployed system registers instruments from every layer — replication
// core, replication engine (PB or SMR), durable store, proxy tier and the
// fortress lifecycle — and well more than ten distinct families in total.
func TestMetricsInstrumentCoverage(t *testing.T) {
	regPB := metrics.New()
	sysPB := metricsTestSystem(t, replica.BackendPB, regPB, "")
	client, err := sysPB.Client("cov-client", time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.Invoke("w1", []byte(`{"op":"put","key":"k","value":"v"}`)); err != nil {
		t.Fatal(err)
	}

	regSMR := metrics.New()
	metricsTestSystem(t, replica.BackendSMR, regSMR, t.TempDir())

	families := map[string]bool{}
	collect := func(snap metrics.Snapshot) {
		for _, section := range []map[string]uint64{snap.Counters, snap.Timing} {
			for name := range section {
				base, _, _ := strings.Cut(name, "{")
				families[base] = true
			}
		}
		for name := range snap.Gauges {
			base, _, _ := strings.Cut(name, "{")
			families[base] = true
		}
		for name := range snap.Histograms {
			base, _, _ := strings.Cut(name, "{")
			families[base] = true
		}
	}
	collect(regPB.Snapshot())
	collect(regSMR.Snapshot())

	if len(families) < 10 {
		t.Fatalf("want >= 10 distinct instrument families, got %d: %v", len(families), families)
	}
	byLayer := map[string]bool{}
	for base := range families {
		prefix, _, _ := strings.Cut(base, "_")
		byLayer[prefix] = true
	}
	for _, layer := range []string{"core", "pb", "smr", "store", "proxy", "fortress"} {
		if !byLayer[layer] {
			t.Errorf("no %s-layer instruments registered; families: %v", layer, families)
		}
	}
	// The workload above must be visible, not just registered.
	snap := regPB.Snapshot()
	if snap.Timing[`proxy_requests_total{node="proxy-0"}`]+snap.Timing[`proxy_requests_total{node="proxy-1"}`] == 0 {
		t.Error("client request not counted by any proxy")
	}
}

// TestTraceRingWraparoundUnderChurn drives a crash/restart storm through a
// small pre-registered ring (registration is idempotent, so the system's
// own traceEvent calls land in it) and checks the ring's bound holds: the
// oldest events are evicted in order and only the most recent survive.
func TestTraceRingWraparoundUnderChurn(t *testing.T) {
	const capacity = 4
	reg := metrics.New()
	ring := reg.Ring(ServerAddr(1), capacity)
	sys := metricsTestSystem(t, replica.BackendPB, reg, "")

	const cycles = 6
	var midpoint []metrics.Event
	for i := 0; i < cycles; i++ {
		if err := sys.Crash(Server(1)); err != nil {
			t.Fatal(err)
		}
		if err := sys.Restart(Server(1)); err != nil {
			t.Fatal(err)
		}
		if i == 1 {
			midpoint = ring.Events()
		}
	}

	if got := ring.Total(); got < 2*cycles {
		t.Fatalf("ring total %d, want >= %d (every crash/restart recorded)", got, 2*cycles)
	}
	events := ring.Events()
	if len(events) != capacity {
		t.Fatalf("retained %d events, want exactly the ring capacity %d", len(events), capacity)
	}
	for i, e := range events {
		if e.Node != ServerAddr(1) {
			t.Errorf("event %d from %q, want %q", i, e.Node, ServerAddr(1))
		}
		if i > 0 && e.Time < events[i-1].Time {
			t.Errorf("events out of order: [%d].Time=%d < [%d].Time=%d", i, e.Time, i-1, events[i-1].Time)
		}
	}
	// Eviction is oldest-first: the four cycles after the midpoint snapshot
	// recorded at least eight further events through the 4-slot ring, so
	// nothing retained at the midpoint may survive to the end.
	if len(midpoint) == 0 {
		t.Fatal("no events retained at storm midpoint")
	}
	if newest := midpoint[len(midpoint)-1].Time; events[0].Time < newest {
		t.Errorf("oldest retained event (t=%d) predates the storm midpoint (t=%d); oldest events were not evicted first",
			events[0].Time, newest)
	}
}
