package faults_test

import (
	"fmt"
	"testing"
	"time"

	"fortress/internal/attack"
	"fortress/internal/faults"
	"fortress/internal/fortress"
	"fortress/internal/keyspace"
	"fortress/internal/replica"
	"fortress/internal/service"
	"fortress/internal/xrand"
)

// smrSystem deploys a FORTRESS system on the SMR backend with fault-sweep
// style timings (ServerTimeout below HeartbeatTimeout, so unavailability
// under a cut is the schedule's doing, not the failure detector's).
func smrSystem(t *testing.T, servers, proxies int) *fortress.System {
	t.Helper()
	space, err := keyspace.NewSpace(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := fortress.New(fortress.Config{
		Servers:           servers,
		Proxies:           proxies,
		Backend:           replica.BackendSMR,
		Space:             space,
		Seed:              7,
		ServiceFactory:    func() service.Service { return service.NewKV() },
		HeartbeatInterval: 10 * time.Millisecond,
		HeartbeatTimeout:  250 * time.Millisecond,
		ServerTimeout:     150 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sys.Stop)
	return sys
}

// runSMRFaultCampaign replays sched against a fresh SMR deployment under a
// proxy-probe campaign with availability measurement on (the health checks
// are the order-protocol traffic the restarted replica must catch up on),
// then waits for the crashed-and-restarted server to converge to the
// leader's executed sequence.
func runSMRFaultCampaign(t *testing.T, sched faults.Schedule, servers, proxies int, steps uint64) {
	t.Helper()
	sys := smrSystem(t, servers, proxies)
	space, err := keyspace.NewSpace(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	inj, err := faults.NewInjector(sched, sys, xrand.New(3))
	if err != nil {
		t.Fatal(err)
	}
	res, err := attack.Campaign(sys, space, attack.CampaignConfig{
		OmegaDirect:         1,
		MaxSteps:            steps,
		Injector:            inj,
		MeasureAvailability: true,
		HealthTimeout:       300 * time.Millisecond,
		ProbeTimeout:        time.Second,
	}, xrand.New(9))
	if err != nil {
		t.Fatal(err)
	}
	if res.ProbedSteps != steps {
		t.Fatalf("probed %d steps, want %d", res.ProbedSteps, steps)
	}
	if inj.Pending() != 0 {
		t.Fatalf("%d schedule events never fired", inj.Pending())
	}

	// Convergence: the restarted replica pulls the leader's history through
	// the catch-up transfer; the leader executed at least the health checks.
	srvs := sys.Servers()
	deadline := time.Now().Add(5 * time.Second)
	for {
		leader, restarted := srvs[0].Executed(), srvs[servers-1].Executed()
		if leader > 0 && restarted == leader {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("restarted replica never converged: leader executed %d, replica %d",
				leader, restarted)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestSMRCatchupUnderQuorumPartition crashes the one proxy-reachable
// server while a quorum cut islands the rest, restarts it after the heal,
// and requires it to converge to the leader's executed sequence via the
// leader-driven catch-up transfer. The schedule composes the preset with
// the outage through Merge.
func TestSMRCatchupUnderQuorumPartition(t *testing.T) {
	const (
		servers = 3
		proxies = 2
		steps   = 10
	)
	preset, err := faults.PresetByName("quorum-partition")
	if err != nil {
		t.Fatal(err)
	}
	sched := faults.Merge(
		preset.Build(faults.Shape{Servers: servers, Proxies: proxies}, steps),
		faults.Schedule{}.Append(
			faults.Crash(1, fortress.Server(servers-1)),
			faults.Restart(8, fortress.Server(servers-1)),
		),
	)
	runSMRFaultCampaign(t, sched, servers, proxies, steps)
}

// TestSMRCatchupUnderRollingPartition is the moving-cut variant: the tier
// rides the rolling partition while the highest-indexed server is down,
// then the restarted server catches up.
func TestSMRCatchupUnderRollingPartition(t *testing.T) {
	const (
		servers = 3
		proxies = 2
		steps   = 10
	)
	preset, err := faults.PresetByName("rolling-partition")
	if err != nil {
		t.Fatal(err)
	}
	sched := faults.Merge(
		preset.Build(faults.Shape{Servers: servers, Proxies: proxies}, steps),
		faults.Schedule{}.Append(
			faults.Crash(1, fortress.Server(servers-1)),
			faults.Restart(8, fortress.Server(servers-1)),
		),
	)
	runSMRFaultCampaign(t, sched, servers, proxies, steps)
}

// TestSMRQuorumPartitionStaysAvailable pins the PB-vs-SMR headline: under
// the quorum cut the PB tier cannot commit (the primary is islanded), but
// the SMR tier keeps serving — followers outside the cut forward to the
// leader over intact server-server links and answer with ordered
// responses.
func TestSMRQuorumPartitionStaysAvailable(t *testing.T) {
	const (
		servers = 3
		proxies = 2
		steps   = 8
	)
	preset, err := faults.PresetByName("quorum-partition")
	if err != nil {
		t.Fatal(err)
	}
	sys := smrSystem(t, servers, proxies)
	space, err := keyspace.NewSpace(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	inj, err := faults.NewInjector(preset.Build(faults.Shape{Servers: servers, Proxies: proxies}, steps), sys, xrand.New(3))
	if err != nil {
		t.Fatal(err)
	}
	res, err := attack.Campaign(sys, space, attack.CampaignConfig{
		OmegaDirect:         1,
		MaxSteps:            steps,
		Injector:            inj,
		MeasureAvailability: true,
		HealthTimeout:       600 * time.Millisecond,
		ProbeTimeout:        time.Second,
	}, xrand.New(9))
	if err != nil {
		t.Fatal(err)
	}
	if res.AvailableSteps != res.ProbedSteps {
		t.Fatalf("SMR lost availability under the quorum cut: %d/%d steps available (followers should relay to the leader)",
			res.AvailableSteps, res.ProbedSteps)
	}
}

// TestSMRRebuildDoesNotForkSequencer pins the fortress-rebuild seeding: a
// fault-crashed lowest-index server is rebuilt mid-history from a live
// peer's StateTransfer, so it rejoins at the group's frontier instead of
// reclaiming the sequencer role at sequence one — which would make every
// follower silently reject its orders forever (a forked cluster that still
// answers clients through the rogue leader alone).
func TestSMRRebuildDoesNotForkSequencer(t *testing.T) {
	sys := smrSystem(t, 3, 2)
	client, err := sys.Client("fork-client", 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	// invoke retries a request until the doubly-signed path answers —
	// failover windows make individual attempts fail with timeouts.
	invoke := func(id, body string) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for {
			if _, err := client.Invoke(id, []byte(body)); err == nil {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("invoke %s never succeeded", id)
			}
			time.Sleep(20 * time.Millisecond)
		}
	}
	converged := func(want uint64) {
		t.Helper()
		srvs := sys.Servers()
		deadline := time.Now().Add(5 * time.Second)
		for {
			a, b, c := srvs[0].Executed(), srvs[1].Executed(), srvs[2].Executed()
			if a >= want && a == b && b == c {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("executed sequences diverged: %d %d %d (want all >= %d)", a, b, c, want)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}

	for i := 0; i < 3; i++ {
		invoke(fmt.Sprintf("w%d", i), `{"op":"put","key":"k","value":"v1"}`)
	}
	converged(3)

	// Down the sequencer long enough for the followers to fail over.
	if err := sys.Crash(fortress.Server(0)); err != nil {
		t.Fatal(err)
	}
	time.Sleep(400 * time.Millisecond) // > HeartbeatTimeout: server 1 takes over
	invoke("w3", `{"op":"put","key":"k","value":"v2"}`)

	if err := sys.Restart(fortress.Server(0)); err != nil {
		t.Fatal(err)
	}
	invoke("w4", `{"op":"put","key":"k","value":"v3"}`)
	// Every replica — the rebuilt 0 included — must keep executing the
	// same total order.
	converged(5)
	got, err := client.Invoke("r-final", []byte(`{"op":"get","key":"k"}`))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != `{"found":true,"value":"v3"}` {
		t.Fatalf("post-rebuild read = %s", got)
	}
}

// TestSMRBackendEndToEnd sanity-checks the backend swap itself: a client
// write/read through the doubly-signed proxy path against an SMR tier.
func TestSMRBackendEndToEnd(t *testing.T) {
	sys := smrSystem(t, 3, 2)
	client, err := sys.Client("smr-e2e-client", 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.Invoke("w1", []byte(`{"op":"put","key":"k","value":"v"}`)); err != nil {
		t.Fatal(err)
	}
	got, err := client.Invoke("r1", []byte(`{"op":"get","key":"k"}`))
	if err != nil {
		t.Fatal(err)
	}
	want := `{"found":true,"value":"v"}`
	if string(got) != want {
		t.Fatalf("read through SMR tier = %s, want %s", got, want)
	}
	for i, s := range sys.Servers() {
		if s.Executed() < 2 {
			t.Errorf("server %d executed %d requests, want >= 2 (every SMR replica executes)", i, s.Executed())
		}
	}
	if fmt.Sprint(sys.Backend()) != "smr" {
		t.Fatalf("Backend() = %v", sys.Backend())
	}
}
