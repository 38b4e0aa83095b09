package smr

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"
	"time"

	"fortress/internal/netsim"
	"fortress/internal/replica/core"
	"fortress/internal/service"
	"fortress/internal/sig"
)

// leaseCluster is cluster with a per-replica Config hook, for tests that
// need leases (or other non-default knobs) switched on.
func leaseCluster(t *testing.T, n int, mk func(i int) service.Service, customize func(c *Config)) (*netsim.Network, []*Replica, *Client) {
	t.Helper()
	net := netsim.NewNetwork()
	peers := make(map[int]string, n)
	for i := 0; i < n; i++ {
		peers[i] = fmt.Sprintf("smr-%d", i)
	}
	replicas := make([]*Replica, n)
	pubKeys := make(map[int][]byte, n)
	for i := 0; i < n; i++ {
		keys, err := sig.NewKeyPair()
		if err != nil {
			t.Fatal(err)
		}
		cfg := Config{
			Index: i, Addr: peers[i], Peers: peers,
			Service: mk(i), Keys: keys, Net: net,
			HeartbeatInterval: hbInterval,
			HeartbeatTimeout:  hbTimeout,
		}
		if customize != nil {
			customize(&cfg)
		}
		r, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		replicas[i] = r
		pubKeys[i] = r.PublicKey()
		t.Cleanup(r.Stop)
	}
	f := (n - 1) / 3
	if f < 1 {
		f = 1
	}
	client, err := NewClient(net, "client", peers, pubKeys, f, reqTimeout)
	if err != nil {
		t.Fatal(err)
	}
	return net, replicas, client
}

func kvPut(t *testing.T, key, val string) []byte {
	t.Helper()
	b, err := json.Marshal(service.KVRequest{Op: "put", Key: key, Value: val})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func kvGet(t *testing.T, key string) []byte {
	t.Helper()
	b, err := json.Marshal(service.KVRequest{Op: "get", Key: key})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func kvValue(t *testing.T, body []byte) (string, bool) {
	t.Helper()
	var resp service.KVResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatalf("decode KV response %q: %v", body, err)
	}
	return resp.Value, resp.Found
}

// waitExecuted waits until every listed replica has executed want requests.
func waitExecuted(t *testing.T, reps []*Replica, want uint64) {
	t.Helper()
	waitFor(t, func() bool {
		for _, r := range reps {
			if r.Executed() != want {
				return false
			}
		}
		return true
	})
}

// TestLeaseReadServedLocally: with leases on, a read-tagged request to a
// follower holding a valid lease is answered from local state — marked
// leased, signed by the contacted replica, and never entering the order
// protocol (no replica's execution count moves).
func TestLeaseReadServedLocally(t *testing.T) {
	net, reps, client := leaseCluster(t, 4,
		func(int) service.Service { return service.NewKV() },
		func(c *Config) { c.Leases = true })
	if _, err := client.Invoke("w1", kvPut(t, "k", "v1")); err != nil {
		t.Fatal(err)
	}
	waitExecuted(t, reps, 1)
	waitFor(t, func() bool {
		for _, r := range reps {
			if !r.LeaseValid() {
				return false
			}
		}
		return true
	})
	before := reps[0].Executed()
	resp, leased, err := core.Request(net, "rc", reps[2].Addr(), "lr1", kvGet(t, "k"), true, reqTimeout)
	if err != nil {
		t.Fatal(err)
	}
	if !leased {
		t.Fatal("lease-holding follower did not serve the read locally")
	}
	if resp.ServerIndex != 2 {
		t.Fatalf("signed by %d, want the contacted follower 2", resp.ServerIndex)
	}
	if val, found := kvValue(t, resp.Body); !found || val != "v1" {
		t.Fatalf("lease read = %q found=%v, want v1", val, found)
	}
	waitExecuted(t, reps, before) // the read took no sequence slot
}

// TestMisTaggedWriteStillOrdered: the Read tag is advisory — a write body
// tagged as a read must still be sequenced and executed everywhere, because
// the replica re-classifies through the hosted service.
func TestMisTaggedWriteStillOrdered(t *testing.T) {
	net, reps, _ := leaseCluster(t, 4,
		func(int) service.Service { return service.NewCounter() },
		func(c *Config) { c.Leases = true })
	waitFor(t, func() bool { return reps[1].LeaseValid() })
	resp, leased, err := core.Request(net, "rc", reps[1].Addr(), "mt1", []byte("inc"), true, reqTimeout)
	if err != nil {
		t.Fatal(err)
	}
	if leased {
		t.Fatal("write served from the lease fast path")
	}
	if string(resp.Body) != "1" {
		t.Fatalf("body = %s, want 1", resp.Body)
	}
	waitExecuted(t, reps, 1)
}

// TestInvokeReadWithLeasesOff: InvokeRead still returns the correct value
// when no replica can hold a lease — the rotation's ordered answer is
// cross-checked by falling back to the f+1 vote.
func TestInvokeReadWithLeasesOff(t *testing.T) {
	_, _, client := leaseCluster(t, 4,
		func(int) service.Service { return service.NewKV() }, nil)
	if _, err := client.Invoke("w1", kvPut(t, "k", "v1")); err != nil {
		t.Fatal(err)
	}
	body, err := client.InvokeRead("r1", kvGet(t, "k"))
	if err != nil {
		t.Fatal(err)
	}
	if val, found := kvValue(t, body); !found || val != "v1" {
		t.Fatalf("read = %q found=%v, want v1", val, found)
	}
}

// TestLeaseExpiresUnderPartition: a follower cut off from its peers loses
// its lease within the lease duration, and a read-tagged request to it then
// fails outright (the fallback forward cannot reach the leader) rather than
// returning a possibly-stale local answer.
func TestLeaseExpiresUnderPartition(t *testing.T) {
	net, reps, client := leaseCluster(t, 4,
		func(int) service.Service { return service.NewKV() },
		func(c *Config) {
			c.Leases = true
			c.LeaseDuration = 30 * time.Millisecond
		})
	if _, err := client.Invoke("w1", kvPut(t, "k", "v1")); err != nil {
		t.Fatal(err)
	}
	waitExecuted(t, reps, 1)
	waitFor(t, func() bool { return reps[3].LeaseValid() })

	peerAddrs := []string{reps[0].Addr(), reps[1].Addr(), reps[2].Addr()}
	net.PartitionGroup([]string{reps[3].Addr()}, peerAddrs)
	defer net.HealAll()
	waitFor(t, func() bool { return !reps[3].LeaseValid() })

	// The test client's address is not in the partition, so the request
	// reaches the follower; with no valid lease the follower must fall back
	// to ordering, which cannot complete across the cut.
	_, leased, err := core.Request(net, "rc", reps[3].Addr(), "pr1", kvGet(t, "k"), true, 300*time.Millisecond)
	if err == nil && leased {
		t.Fatal("partitioned follower served a lease read after expiry")
	}
	if err == nil {
		t.Fatal("partitioned follower answered an ordered read without the leader")
	}

	// Healed, the follower is re-granted a lease and serves fresh state:
	// writes acknowledged while it was cut off must be visible.
	net.HealAll()
	if _, err := client.Invoke("w2", kvPut(t, "k", "v2")); err != nil {
		t.Fatal(err)
	}
	waitExecuted(t, reps, 2)
	waitFor(t, func() bool { return reps[3].LeaseValid() })
	resp, leased, err := core.Request(net, "rc", reps[3].Addr(), "pr2", kvGet(t, "k"), true, reqTimeout)
	if err != nil {
		t.Fatal(err)
	}
	if !leased {
		t.Fatal("healed follower did not regain its lease")
	}
	if val, _ := kvValue(t, resp.Body); val != "v2" {
		t.Fatalf("post-heal lease read = %q, want v2 (stale read)", val)
	}
}

// TestLeaderLeaseRequiresQuorumAcks: an islanded leader's self-lease dies
// once follower acks go stale, so it stops serving single-signature lease
// reads — the client's InvokeRead would fall back to the f+1 vote, which
// the deposed leader cannot win alone.
func TestLeaderLeaseRequiresQuorumAcks(t *testing.T) {
	net, reps, client := leaseCluster(t, 4,
		func(int) service.Service { return service.NewKV() },
		func(c *Config) {
			c.Leases = true
			c.LeaseDuration = 30 * time.Millisecond
		})
	if _, err := client.Invoke("w1", kvPut(t, "k", "v1")); err != nil {
		t.Fatal(err)
	}
	waitExecuted(t, reps, 1)
	waitFor(t, func() bool { return reps[0].LeaseValid() })

	followers := []string{reps[1].Addr(), reps[2].Addr(), reps[3].Addr()}
	net.PartitionGroup([]string{reps[0].Addr()}, followers)
	defer net.HealAll()
	waitFor(t, func() bool { return !reps[0].LeaseValid() })

	_, leased, err := core.Request(net, "rc", reps[0].Addr(), "ql1", kvGet(t, "k"), true, reqTimeout)
	if err != nil {
		t.Fatal(err)
	}
	if leased {
		t.Fatal("islanded leader served a lease read without quorum acks")
	}
}

// TestMonotonicReadsAcrossLeaderCrash: after a leader crash and failover,
// every lease-served read reflects all writes acknowledged before it — a
// read never returns a value older than the last acknowledged write.
func TestMonotonicReadsAcrossLeaderCrash(t *testing.T) {
	net, reps, client := leaseCluster(t, 4,
		func(int) service.Service { return service.NewKV() },
		func(c *Config) { c.Leases = true })
	if _, err := client.Invoke("w1", kvPut(t, "k", "v1")); err != nil {
		t.Fatal(err)
	}
	waitExecuted(t, reps, 1)

	reps[0].Crash()
	waitFor(t, func() bool { return reps[1].IsLeader() })
	if _, err := client.Invoke("w2", kvPut(t, "k", "v2")); err != nil {
		t.Fatal(err)
	}
	live := reps[1:]
	waitExecuted(t, live, 2)

	for i, r := range live {
		r := r
		waitFor(t, func() bool { return r.LeaseValid() })
		resp, leased, err := core.Request(net, fmt.Sprintf("rc-%d", i), r.Addr(),
			fmt.Sprintf("mono-%d", i), kvGet(t, "k"), true, reqTimeout)
		if err != nil {
			t.Fatal(err)
		}
		if !leased {
			t.Fatalf("replica %d lost its lease between check and read", r.Index())
		}
		if val, _ := kvValue(t, resp.Body); val != "v2" {
			t.Fatalf("replica %d lease read = %q, want v2: read older than last acked write", r.Index(), val)
		}
	}
}

// TestLeaseDurationValidation: a lease that can outlive the failure
// detector would let a deposed leader serve stale reads after a failover,
// so the config must reject LeaseDuration > HeartbeatTimeout.
func TestLeaseDurationValidation(t *testing.T) {
	net := netsim.NewNetwork()
	keys, err := sig.NewKeyPair()
	if err != nil {
		t.Fatal(err)
	}
	_, err = New(Config{
		Index: 0, Addr: "x", Peers: map[int]string{0: "x"},
		Service: service.NewKV(), Keys: keys, Net: net,
		HeartbeatInterval: hbInterval, HeartbeatTimeout: hbTimeout,
		Leases: true, LeaseDuration: hbTimeout * 2,
	})
	if err == nil || !strings.Contains(err.Error(), "LeaseDuration") {
		t.Fatalf("lease outliving the heartbeat timeout accepted: %v", err)
	}
}
