package fortress_test

import (
	"fmt"
	"testing"
	"time"

	"fortress/internal/fortress"
	"fortress/internal/keyspace"
	"fortress/internal/service"
)

// newShardedSystem deploys a 2-group fortress for shard isolation tests.
func newShardedSystem(t *testing.T) *fortress.System {
	t.Helper()
	space, err := keyspace.NewSpace(16)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := fortress.New(fortress.Config{
		Servers:           3,
		Proxies:           3,
		Groups:            2,
		Space:             space,
		Seed:              7,
		ServiceFactory:    func() service.Service { return service.NewKV() },
		HeartbeatInterval: 10 * time.Millisecond,
		HeartbeatTimeout:  200 * time.Millisecond,
		ServerTimeout:     time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sys.Stop)
	return sys
}

// TestShardCutIsolatesGroups severs group 0's server quorum from the proxy
// tier and checks the outage stays inside that shard: group 0's slice of the
// keyspace goes dark while group 1 keeps answering reads and writes.
func TestShardCutIsolatesGroups(t *testing.T) {
	sys := newShardedSystem(t)
	ring := sys.Ring()
	k0, k1 := ring.ProbeKey(0), ring.ProbeKey(1)

	client, err := sys.Client("shard-client", time.Second)
	if err != nil {
		t.Fatal(err)
	}
	put := func(id, key string) error {
		_, err := client.Invoke(id, []byte(fmt.Sprintf(`{"op":"put","key":%q,"value":"x"}`, key)))
		return err
	}
	get := func(id, key string) error {
		_, err := client.InvokeRead(id, []byte(fmt.Sprintf(`{"op":"get","key":%q}`, key)))
		return err
	}
	if err := put("w0", k0); err != nil {
		t.Fatalf("pre-cut put group 0: %v", err)
	}
	if err := put("w1", k1); err != nil {
		t.Fatalf("pre-cut put group 1: %v", err)
	}

	// Sever a majority of group 0 (servers 0,1 — primary included) from the
	// whole proxy tier: the shard cannot commit until the cut heals.
	quorum := []string{fortress.ServerAddr(0), fortress.ServerAddr(1)}
	front := []string{fortress.ProxyAddr(0), fortress.ProxyAddr(1), fortress.ProxyAddr(2)}
	sys.Net().PartitionGroup(quorum, front)

	if err := put("w2", k0); err == nil {
		t.Error("group-0 write succeeded through a severed quorum")
	}
	if err := get("r2", k0); err == nil {
		t.Error("group-0 read succeeded through a severed quorum")
	}
	if err := put("w3", k1); err != nil {
		t.Errorf("group-1 write failed despite untouched shard: %v", err)
	}
	if err := get("r3", k1); err != nil {
		t.Errorf("group-1 read failed despite untouched shard: %v", err)
	}

	sys.Net().HealGroup(quorum, front)
	if err := put("w4", k0); err != nil {
		t.Errorf("group-0 write failed after heal: %v", err)
	}
}

// TestShardRoutingSurvivesProxyRebuild regression-tests the proxy rebuild
// path: a proxy restarted after a fault crash must come back with the same
// routing ring, or it silently falls back to forwarding every request to all
// groups — which masks shard outages (a group-0 request answered by group 1)
// and double-executes writes.
func TestShardRoutingSurvivesProxyRebuild(t *testing.T) {
	sys := newShardedSystem(t)
	ring := sys.Ring()
	k0, k1 := ring.ProbeKey(0), ring.ProbeKey(1)

	for i := 0; i < 3; i++ {
		if err := sys.Crash(fortress.Proxy(i)); err != nil {
			t.Fatal(err)
		}
		if err := sys.Restart(fortress.Proxy(i)); err != nil {
			t.Fatal(err)
		}
	}

	client, err := sys.Client("rebuild-client", time.Second)
	if err != nil {
		t.Fatal(err)
	}
	quorum := []string{fortress.ServerAddr(0), fortress.ServerAddr(1)}
	front := []string{fortress.ProxyAddr(0), fortress.ProxyAddr(1), fortress.ProxyAddr(2)}
	sys.Net().PartitionGroup(quorum, front)

	// A rebuilt proxy that lost the ring would forward this to all six
	// servers and return group 1's (wrong-shard) answer instead of failing.
	if _, err := client.Invoke("w0", []byte(fmt.Sprintf(`{"op":"put","key":%q,"value":"x"}`, k0))); err == nil {
		t.Error("group-0 write through rebuilt proxies succeeded despite severed quorum")
	}
	if _, err := client.Invoke("w1", []byte(fmt.Sprintf(`{"op":"put","key":%q,"value":"x"}`, k1))); err != nil {
		t.Errorf("group-1 write through rebuilt proxies failed: %v", err)
	}
}
