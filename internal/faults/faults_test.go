package faults_test

import (
	"errors"
	"sync"
	"testing"
	"time"

	"fortress/internal/faults"
	"fortress/internal/fortress"
	"fortress/internal/keyspace"
	"fortress/internal/netsim"
	"fortress/internal/service"
	"fortress/internal/xrand"
)

func testSystem(t *testing.T, servers, proxies int) *fortress.System {
	t.Helper()
	space, err := keyspace.NewSpace(1 << 10)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := fortress.New(fortress.Config{
		Servers:           servers,
		Proxies:           proxies,
		Space:             space,
		Seed:              1,
		ServiceFactory:    func() service.Service { return service.NewKV() },
		HeartbeatInterval: 10 * time.Millisecond,
		HeartbeatTimeout:  300 * time.Millisecond,
		ServerTimeout:     time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sys.Stop)
	return sys
}

func TestInjectorFiresInTimestampOrder(t *testing.T) {
	sys := testSystem(t, 2, 2)
	sched := faults.Schedule{}.Append(
		faults.Restart(4, fortress.Proxy(1)), // listed out of order: the injector sorts by At
		faults.Crash(2, fortress.Proxy(1)),
	)
	inj, err := faults.NewInjector(sched, sys, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := inj.Advance(1); err != nil {
		t.Fatal(err)
	}
	if inj.Fired() != 0 || inj.Pending() != 2 {
		t.Fatalf("fired %d pending %d before any due time", inj.Fired(), inj.Pending())
	}
	if err := inj.Advance(3); err != nil {
		t.Fatal(err)
	}
	if inj.Fired() != 1 {
		t.Fatalf("fired %d at t=3, want 1", inj.Fired())
	}
	if st := sys.Status(); st.ProxiesDown != 1 || st.ProxiesCrashed != 1 {
		t.Fatalf("after crash event: %+v", st)
	}
	if err := inj.Advance(4); err != nil {
		t.Fatal(err)
	}
	if inj.Fired() != 2 || inj.Pending() != 0 {
		t.Fatalf("fired %d pending %d at t=4", inj.Fired(), inj.Pending())
	}
	if st := sys.Status(); st.ProxiesDown != 0 || st.ProxiesCrashed != 0 {
		t.Fatalf("after restart event: %+v", st)
	}
}

func TestInjectorPartitionAndHeal(t *testing.T) {
	sys := testSystem(t, 2, 2)
	servers := faults.ServerAddrs(2)
	proxies := faults.ProxyAddrs(2)
	sched := faults.Schedule{}.Append(
		faults.Partition(1, servers, proxies),
		faults.Heal(3, servers, proxies),
	)
	inj, err := faults.NewInjector(sched, sys, nil)
	if err != nil {
		t.Fatal(err)
	}
	dial := func(from, to string) error {
		conn, err := sys.Net().Dial(from, to)
		if err == nil {
			conn.Close()
		}
		return err
	}
	if err := inj.Advance(1); err != nil {
		t.Fatal(err)
	}
	if err := dial(proxies[0], servers[1]); !errors.Is(err, netsim.ErrUnreachable) {
		t.Fatalf("dial across the cut: %v", err)
	}
	// Intra-group pairs are unaffected.
	if err := dial(servers[0], servers[1]); err != nil {
		t.Fatalf("server-to-server dial during cut: %v", err)
	}
	if err := inj.Advance(3); err != nil {
		t.Fatal(err)
	}
	if err := dial(proxies[0], servers[1]); err != nil {
		t.Fatalf("dial after heal: %v", err)
	}
}

// Fault outages are hardware-level: Recover's forking-daemon respawn and a
// full re-randomization epoch both leave the node down; only Restart ends
// the outage.
func TestFaultCrashSurvivesRecoverAndRerandomize(t *testing.T) {
	sys := testSystem(t, 3, 2)
	if err := sys.Crash(fortress.Server(1)); err != nil {
		t.Fatal(err)
	}
	if err := sys.Recover(); err != nil {
		t.Fatal(err)
	}
	if st := sys.Status(); st.ServersDown != 1 {
		t.Fatalf("after Recover: %+v", st)
	}
	if _, err := sys.Net().Dial("probe", fortress.ServerAddr(1)); err == nil {
		t.Fatal("fault-crashed server accepted a dial after Recover")
	}
	if err := sys.Rerandomize(); err != nil {
		t.Fatal(err)
	}
	if st := sys.Status(); st.ServersDown != 1 {
		t.Fatalf("after Rerandomize: %+v", st)
	}
	if _, err := sys.Net().Dial("probe", fortress.ServerAddr(1)); err == nil {
		t.Fatal("fault-crashed server accepted a dial after Rerandomize")
	}
	if err := sys.Restart(fortress.Server(1)); err != nil {
		t.Fatal(err)
	}
	if st := sys.Status(); st.ServersDown != 0 {
		t.Fatalf("after Restart: %+v", st)
	}
	// Restarting a node that is not fault-crashed is a harmless no-op: the
	// live replica keeps its connections instead of being rebuilt.
	before := sys.Servers()[1]
	if err := sys.Restart(fortress.Server(1)); err != nil {
		t.Fatal(err)
	}
	if sys.Servers()[1] != before {
		t.Fatal("no-op restart rebuilt a live server")
	}
	conn, err := sys.Net().Dial("probe", fortress.ServerAddr(1))
	if err != nil {
		t.Fatalf("dial after restart: %v", err)
	}
	conn.Close()

	// Service still works end to end after the outage cycle.
	client, err := sys.Client("client", time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.Invoke("w1", []byte(`{"op":"put","key":"k","value":"v"}`)); err != nil {
		t.Fatalf("invoke after outage cycle: %v", err)
	}
}

func TestPresetsBuildForAnyShape(t *testing.T) {
	for _, p := range faults.Presets() {
		for _, shape := range []struct {
			servers, proxies int
			horizon          uint64
		}{{1, 1, 1}, {2, 2, 8}, {3, 3, 24}, {5, 4, 64}} {
			sched := p.Build(faults.Shape{Servers: shape.servers, Proxies: shape.proxies}, shape.horizon)
			for _, e := range sched.Events {
				if e.At > shape.horizon {
					t.Errorf("preset %s (shape %+v): event %s at t=%d beyond horizon",
						p.Name, shape, e.Kind, e.At)
				}
			}
		}
	}
	if _, err := faults.PresetByName("no-such-preset"); err == nil {
		t.Fatal("unknown preset accepted")
	}
	if len(faults.PresetNames()) != len(faults.Presets()) {
		t.Fatal("PresetNames out of sync with Presets")
	}
}

func TestInjectorValidation(t *testing.T) {
	sys := testSystem(t, 2, 2)
	if _, err := faults.NewInjector(faults.Schedule{}, nil, nil); err == nil {
		t.Fatal("nil system accepted")
	}
	sched := faults.Schedule{}.Append(faults.DropRate(0, 0.5))
	if _, err := faults.NewInjector(sched, sys, nil); err == nil {
		t.Fatal("drop-rate schedule without rng accepted")
	}
	if _, err := faults.NewInjector(sched, sys, xrand.New(1)); err != nil {
		t.Fatalf("drop-rate schedule with rng rejected: %v", err)
	}
	for name, e := range map[string]faults.Event{
		"crash of nonexistent server": faults.Crash(0, fortress.Server(99)),
		"crash without a target":      {Kind: faults.EvCrash},
	} {
		inj, err := faults.NewInjector(faults.Schedule{}.Append(e), sys, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := inj.Advance(0); err == nil {
			t.Errorf("%s did not error", name)
		}
	}
}

// TestConcurrentDropRateAndRestartUnderTraffic is the race-detector workout
// for the runtime fault surface: live client traffic while one goroutine
// flips the network drop rate and another crash/restarts a proxy and a
// server. Run with -race (CI does).
func TestConcurrentDropRateAndRestartUnderTraffic(t *testing.T) {
	space, err := keyspace.NewSpace(1 << 10)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := fortress.New(fortress.Config{
		Servers:           3,
		Proxies:           2,
		Space:             space,
		Seed:              1,
		ServiceFactory:    func() service.Service { return service.NewKV() },
		HeartbeatInterval: 5 * time.Millisecond,
		HeartbeatTimeout:  500 * time.Millisecond,
		ServerTimeout:     50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Stop()
	client, err := sys.Client("load", 150*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}

	const iters = 25
	var wg sync.WaitGroup
	wg.Add(3)
	go func() { // live traffic; errors are expected while faults flap
		defer wg.Done()
		for i := 0; i < iters; i++ {
			reqID := "req-" + string(rune('a'+i%26)) + "-" + string(rune('0'+i/26))
			_, _ = client.Invoke(reqID, []byte(`{"op":"get","key":"k"}`))
		}
	}()
	go func() { // drop-rate flapping
		defer wg.Done()
		rng := xrand.New(42)
		for i := 0; i < iters; i++ {
			sys.Net().SetDropRate(0.2, rng)
			rng = nil // handed off; netsim owns it under dropMu now
			time.Sleep(time.Millisecond)
			sys.Net().SetDropRate(0, nil)
		}
	}()
	go func() { // node churn
		defer wg.Done()
		for i := 0; i < iters; i++ {
			if err := sys.Crash(fortress.Proxy(1)); err != nil {
				t.Error(err)
				return
			}
			if err := sys.Crash(fortress.Server(2)); err != nil {
				t.Error(err)
				return
			}
			time.Sleep(time.Millisecond)
			if err := sys.Restart(fortress.Proxy(1)); err != nil {
				t.Error(err)
				return
			}
			if err := sys.Restart(fortress.Server(2)); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()

	// The system must settle back to full health.
	sys.Net().SetDropRate(0, nil)
	if st := sys.Status(); st.ServersDown != 0 || st.ProxiesDown != 0 {
		t.Fatalf("outages left behind: %+v", st)
	}
	if _, err := client.Invoke("final", []byte(`{"op":"put","key":"k","value":"v"}`)); err != nil {
		t.Fatalf("invoke after churn: %v", err)
	}
}
