package smr

import (
	"fmt"
	"testing"
	"time"

	"fortress/internal/netsim"
	"fortress/internal/replica/core"
	"fortress/internal/service"
	"fortress/internal/sig"
)

// catchupCluster mirrors cluster but pins CatchupHistory (so tests can
// force either transfer path) and the failover timeout (so partition tests
// can keep the cut well inside the election window).
func catchupCluster(t *testing.T, n, history int, failover time.Duration) (*netsim.Network, []*Replica, *Client) {
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
		r, err := New(Config{
			Index: i, Addr: peers[i], Peers: peers,
			Service: service.NewCounter(), Keys: keys, Net: net,
			HeartbeatInterval: hbInterval,
			HeartbeatTimeout:  failover,
			CatchupHistory:    history,
		})
		if err != nil {
			t.Fatal(err)
		}
		replicas[i] = r
		pubKeys[i] = r.PublicKey()
		t.Cleanup(r.Stop)
	}
	client, err := NewClient(net, "client", peers, pubKeys, 1, reqTimeout)
	if err != nil {
		t.Fatal(err)
	}
	return net, replicas, client
}

// invokeN drives n requests through the cluster with distinct IDs starting
// at base.
func invokeN(t *testing.T, client *Client, base, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if _, err := client.Invoke(fmt.Sprintf("r%d", base+i), []byte("inc")); err != nil {
			t.Fatalf("invoke r%d: %v", base+i, err)
		}
	}
}

// TestCatchupAfterCrashRestartSuffix is the headline recovery scenario: a
// replica crashes, misses orders, restarts with its retained state, detects
// the gap from the leader's heartbeat frontier, and replays the missing
// log suffix — converging to the leader's executed sequence with no client
// traffic required after the restart.
func TestCatchupAfterCrashRestartSuffix(t *testing.T) {
	net, reps, client := catchupCluster(t, 3, 0, hbTimeout) // default window: suffix path
	invokeN(t, client, 0, 5)
	waitFor(t, func() bool { return reps[2].Executed() == 5 })

	reps[2].Crash()
	invokeN(t, client, 5, 5)
	waitFor(t, func() bool { return reps[0].Executed() == 10 })
	if got := reps[2].Executed(); got != 5 {
		t.Fatalf("crashed replica executed %d, want its pre-crash 5", got)
	}

	if err := reps[2].Restart(); err != nil {
		t.Fatal(err)
	}
	// No further client traffic: the leader's heartbeat carries the
	// executed frontier, and the restarted replica pulls the suffix.
	waitFor(t, func() bool { return reps[2].Executed() == 10 })

	// The replayed suffix also rebuilt the response cache: a request that
	// was sequenced while the replica was down is answered from cache when
	// asked directly.
	resp, _, err := core.Request(net, "late-client", reps[2].Addr(), "r7", []byte("inc"), false, reqTimeout)
	if err != nil {
		t.Fatal(err)
	}
	if string(resp.Body) != "8" {
		t.Fatalf("replayed response body = %q, want 8", resp.Body)
	}
	if reps[2].Executed() != 10 {
		t.Fatalf("cache reply re-executed: executed = %d", reps[2].Executed())
	}
}

// TestCatchupSnapshotPath forces the snapshot branch: with no retained
// history the leader ships its full state, positioning the restarted
// replica at the frontier in one jump.
func TestCatchupSnapshotPath(t *testing.T) {
	_, reps, client := catchupCluster(t, 3, -1, hbTimeout) // retain nothing: snapshot path
	invokeN(t, client, 0, 4)
	waitFor(t, func() bool { return reps[2].Executed() == 4 })

	reps[2].Crash()
	invokeN(t, client, 4, 4)
	waitFor(t, func() bool { return reps[0].Executed() == 8 })
	if err := reps[2].Restart(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return reps[2].Executed() == 8 })

	// State converged too, not just the counter of executions: the next
	// ordered request must produce the same body on the caught-up replica
	// as everywhere else (9 increments total).
	body, err := client.Invoke("after-catchup", []byte("inc"))
	if err != nil {
		t.Fatal(err)
	}
	if string(body) != "9" {
		t.Fatalf("post-catchup invoke = %q, want 9", body)
	}
	waitFor(t, func() bool { return reps[2].Executed() == 9 })
}

// TestCatchupSnapshotTransfersResponseCache: a snapshot jump skips
// executing the gap's requests, so the transfer must carry the leader's
// response cache — a retry of a jumped-over request is answered from
// cache, never re-executed under a fresh sequence number.
func TestCatchupSnapshotTransfersResponseCache(t *testing.T) {
	net, reps, client := catchupCluster(t, 3, -1, hbTimeout)
	invokeN(t, client, 0, 4)
	waitFor(t, func() bool { return reps[2].Executed() == 4 })
	reps[2].Crash()
	invokeN(t, client, 4, 4)
	waitFor(t, func() bool { return reps[0].Executed() == 8 })
	if err := reps[2].Restart(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return reps[2].Executed() == 8 })

	// r5 was executed (as the sixth increment) while replica 2 was down
	// and arrived here only inside the snapshot jump.
	resp, _, err := core.Request(net, "retry-client", reps[2].Addr(), "r5", []byte("inc"), false, reqTimeout)
	if err != nil {
		t.Fatal(err)
	}
	if string(resp.Body) != "6" {
		t.Fatalf("retried jumped-over request = %q, want the cached 6", resp.Body)
	}
	if got := reps[2].Executed(); got != 8 {
		t.Fatalf("retry re-entered the order protocol: executed = %d, want 8", got)
	}
}

// TestCatchupWindowOutrun: a window smaller than the gap falls back to the
// snapshot path and still converges.
func TestCatchupWindowOutrun(t *testing.T) {
	_, reps, client := catchupCluster(t, 3, 2, hbTimeout) // tiny window
	invokeN(t, client, 0, 3)
	waitFor(t, func() bool { return reps[2].Executed() == 3 })
	reps[2].Crash()
	invokeN(t, client, 3, 6) // gap of 6 > window of 2
	waitFor(t, func() bool { return reps[0].Executed() == 9 })
	if err := reps[2].Restart(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return reps[2].Executed() == 9 })
}

// TestJoinExistingDefersToLiveLeader: a replacement built with
// JoinExisting must not claim the sequencer role off its low index — it
// waits for, and adopts, whoever actually leads.
func TestJoinExistingDefersToLiveLeader(t *testing.T) {
	net := netsim.NewNetwork()
	peers := map[int]string{0: "smr-0", 1: "smr-1", 2: "smr-2"}
	replicas := make(map[int]*Replica, 3)
	mk := func(i int, join bool) *Replica {
		keys, err := sig.NewKeyPair()
		if err != nil {
			t.Fatal(err)
		}
		r, err := New(Config{
			Index: i, Addr: peers[i], Peers: peers,
			Service: service.NewCounter(), Keys: keys, Net: net,
			HeartbeatInterval: hbInterval, HeartbeatTimeout: 2 * time.Second,
			JoinExisting: join,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(r.Stop)
		return r
	}
	// 1 and 2 come up first; with 0 absent nothing leads yet, but both
	// follow index 0 by default. 0 then joins with JoinExisting: it must
	// NOT believe it leads, even though it has the lowest index.
	replicas[1] = mk(1, false)
	replicas[2] = mk(2, false)
	replicas[0] = mk(0, true)
	if replicas[0].IsLeader() {
		t.Fatal("JoinExisting replica claimed leadership on start")
	}
	if got := replicas[0].LeaderIndex(); got != leaderUnknown {
		t.Fatalf("leader index = %d, want leaderUnknown", got)
	}
}

// TestSequenceDedupsExecutedRequests: a new leader must not re-sequence a
// request it already executed under the previous sequencer — a forwarded
// retry is absorbed by the response cache, not given a fresh number.
func TestSequenceDedupsExecutedRequests(t *testing.T) {
	net, reps, client := catchupCluster(t, 3, 0, hbTimeout)
	invokeN(t, client, 0, 3) // r0..r2 executed everywhere
	waitFor(t, func() bool { return reps[1].Executed() == 3 && reps[2].Executed() == 3 })

	// Fail leadership over to replica 1.
	reps[0].Crash()
	waitFor(t, func() bool { return reps[1].IsLeader() })

	// A lagging replica retries r1 by forwarding it to the new leader
	// (its own respCache would miss after a snapshot-less rebuild). The
	// leader executed r1 at its original sequence number and must not
	// order it again.
	conn, err := net.Dial("laggard", reps[1].Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := conn.Send(encode(wireMsg{Type: msgForward, RequestID: "r1", Body: []byte("inc"), From: 2})); err != nil {
		t.Fatal(err)
	}
	// Drive a fresh request through to prove the leader is live, then
	// check the retry did not bump the execution count on its own.
	invokeN(t, client, 10, 1)
	waitFor(t, func() bool { return reps[1].Executed() == 4 })
	time.Sleep(20 * time.Millisecond)
	if got := reps[1].Executed(); got != 4 {
		t.Fatalf("forwarded retry was re-executed: executed = %d, want 4", got)
	}
}

// TestCatchupAfterDroppedOrders: catch-up repairs gaps caused by lost
// order messages, not just restarts — the replica stays up while a
// partition eats the leader's broadcasts, then heals and converges.
func TestCatchupAfterDroppedOrders(t *testing.T) {
	// A generous failover timeout keeps the brief cut from triggering an
	// election on the isolated replica.
	net, reps, client := catchupCluster(t, 3, 0, 2*time.Second)
	invokeN(t, client, 0, 2)
	waitFor(t, func() bool { return reps[2].Executed() == 2 })

	// Sever replica 2 from its peers (clients still reach it): orders
	// sequenced during the cut never arrive.
	net.PartitionGroup([]string{reps[2].Addr()}, []string{reps[0].Addr(), reps[1].Addr()})
	invokeN(t, client, 2, 3)
	waitFor(t, func() bool { return reps[0].Executed() == 5 })
	net.HealGroup([]string{reps[2].Addr()}, []string{reps[0].Addr(), reps[1].Addr()})

	// Post-heal heartbeats carry the frontier; the replica catches up
	// without being restarted. (It may briefly have elected itself a new
	// leader view during the cut; the real leader's heartbeat wins.)
	waitFor(t, func() bool { return reps[2].Executed() == 5 })
}
