package smr

import (
	"encoding/json"
	"errors"
	"fmt"
	"testing"
	"time"

	"fortress/internal/netsim"
	"fortress/internal/replica/core"
	"fortress/internal/service"
	"fortress/internal/sig"
	"fortress/internal/xrand"
)

const (
	hbInterval = 5 * time.Millisecond
	hbTimeout  = 40 * time.Millisecond
	reqTimeout = 2 * time.Second
)

func cluster(t *testing.T, n int, mk func(i int) service.Service, allowNondet bool) (*netsim.Network, []*Replica, *Client) {
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
			Service: mk(i), Keys: keys, Net: net,
			HeartbeatInterval:     hbInterval,
			HeartbeatTimeout:      hbTimeout,
			AllowNondeterministic: allowNondet,
		})
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

func TestRejectsNondeterministicService(t *testing.T) {
	net := netsim.NewNetwork()
	keys, err := sig.NewKeyPair()
	if err != nil {
		t.Fatal(err)
	}
	_, err = New(Config{
		Index: 0, Addr: "x", Peers: map[int]string{0: "x"},
		Service: service.NewNondet(service.NewCounter(), xrand.New(1)),
		Keys:    keys, Net: net,
		HeartbeatInterval: hbInterval, HeartbeatTimeout: hbTimeout,
	})
	if !errors.Is(err, ErrNotDeterministic) {
		t.Fatalf("want ErrNotDeterministic, got %v", err)
	}
}

func TestInvokeReachesQuorum(t *testing.T) {
	_, _, client := cluster(t, 4, func(int) service.Service { return service.NewCounter() }, false)
	body, err := client.Invoke("r1", []byte("add 5"))
	if err != nil {
		t.Fatal(err)
	}
	if string(body) != "5" {
		t.Fatalf("body = %s", body)
	}
}

func TestAllReplicasConverge(t *testing.T) {
	_, reps, client := cluster(t, 4, func(int) service.Service { return service.NewCounter() }, false)
	for i := 0; i < 10; i++ {
		if _, err := client.Invoke(fmt.Sprintf("r%d", i), []byte("inc")); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, func() bool {
		for _, r := range reps {
			if r.Executed() != 10 {
				return false
			}
		}
		return true
	})
}

func TestOrderingConsistencyUnderConcurrency(t *testing.T) {
	_, reps, client := cluster(t, 4, func(int) service.Service { return service.NewKV() }, false)
	// Fire concurrent conflicting writes; afterwards all replicas must hold
	// the same value — whatever order the sequencer chose.
	const writers = 8
	errs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		go func(w int) {
			req, err := json.Marshal(service.KVRequest{Op: "put", Key: "k", Value: fmt.Sprintf("w%d", w)})
			if err != nil {
				errs <- err
				return
			}
			_, err = client.Invoke(fmt.Sprintf("conc-%d", w), req)
			errs <- err
		}(w)
	}
	for w := 0; w < writers; w++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, func() bool {
		for _, r := range reps {
			if r.Executed() != writers {
				return false
			}
		}
		return true
	})
	// Read back through the protocol: quorum on the final value proves the
	// replicas agree.
	req, err := json.Marshal(service.KVRequest{Op: "get", Key: "k"})
	if err != nil {
		t.Fatal(err)
	}
	body, err := client.Invoke("final-read", req)
	if err != nil {
		t.Fatalf("replicas diverged: %v", err)
	}
	var kr service.KVResponse
	if err := json.Unmarshal(body, &kr); err != nil {
		t.Fatal(err)
	}
	if !kr.Found {
		t.Fatal("final value missing")
	}
}

func TestNondeterminismBreaksVoting(t *testing.T) {
	// With the DSM check bypassed, replicas diverge and the client cannot
	// assemble f+1 matching responses — the paper's reason SMR requires DSM.
	rng := xrand.New(5)
	_, _, client := cluster(t, 4, func(int) service.Service {
		return service.NewNondet(service.NewCounter(), rng.Split())
	}, true)
	_, err := client.Invoke("n1", []byte("inc"))
	if !errors.Is(err, ErrNoQuorum) {
		t.Fatalf("want ErrNoQuorum, got %v", err)
	}
}

func TestLeaderFailover(t *testing.T) {
	_, reps, client := cluster(t, 4, func(int) service.Service { return service.NewCounter() }, false)
	if _, err := client.Invoke("a", []byte("add 3")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool {
		for _, r := range reps {
			if r.Executed() != 1 {
				return false
			}
		}
		return true
	})
	reps[0].Crash()
	waitFor(t, func() bool { return reps[1].IsLeader() })

	body, err := client.Invoke("b", []byte("add 4"))
	if err != nil {
		t.Fatal(err)
	}
	if string(body) != "7" {
		t.Fatalf("post-failover body = %s, want 7", body)
	}
	// Survivors follow the new leader.
	waitFor(t, func() bool {
		return reps[2].LeaderIndex() == 1 && reps[3].LeaderIndex() == 1
	})
}

func TestDuplicateRequestNotReExecuted(t *testing.T) {
	_, _, client := cluster(t, 4, func(int) service.Service { return service.NewCounter() }, false)
	b1, err := client.Invoke("dup", []byte("inc"))
	if err != nil {
		t.Fatal(err)
	}
	b2, err := client.Invoke("dup", []byte("inc"))
	if err != nil {
		t.Fatal(err)
	}
	if string(b1) != "1" || string(b2) != "1" {
		t.Fatalf("duplicate re-executed: %s / %s", b1, b2)
	}
}

func TestVote(t *testing.T) {
	mk := func(idx int, body string) sig.ServerResponse {
		return sig.ServerResponse{ServerIndex: idx, Body: []byte(body)}
	}
	// f=1: need 2 matching from distinct replicas.
	if _, err := Vote([]sig.ServerResponse{mk(0, "x")}, 1); !errors.Is(err, ErrNoQuorum) {
		t.Fatal("single response reached quorum")
	}
	if _, err := Vote([]sig.ServerResponse{mk(0, "x"), mk(0, "x")}, 1); !errors.Is(err, ErrNoQuorum) {
		t.Fatal("same replica counted twice")
	}
	body, err := Vote([]sig.ServerResponse{mk(0, "x"), mk(1, "y"), mk(2, "x")}, 1)
	if err != nil || string(body) != "x" {
		t.Fatalf("Vote = %s, %v", body, err)
	}
	if _, err := Vote(nil, 1); !errors.Is(err, ErrNoQuorum) {
		t.Fatal("empty vote passed")
	}
}

func TestClientValidation(t *testing.T) {
	net := netsim.NewNetwork()
	if _, err := NewClient(net, "c", nil, nil, 1, time.Second); err == nil {
		t.Fatal("empty addrs accepted")
	}
	if _, err := NewClient(net, "c", map[int]string{0: "a"}, nil, 1, time.Second); err == nil {
		t.Fatal("too few replicas for f accepted")
	}
	if _, err := NewClient(net, "c", map[int]string{0: "a"}, nil, -1, time.Second); err == nil {
		t.Fatal("negative f accepted")
	}
}

func TestApplicationErrorsAgree(t *testing.T) {
	_, _, client := cluster(t, 4, func(int) service.Service { return service.NewCounter() }, false)
	body, err := client.Invoke("bad", []byte("explode"))
	if err != nil {
		t.Fatal(err)
	}
	if string(body[:6]) != "error:" {
		t.Fatalf("body = %s", body)
	}
}

func TestFollowerForwardsToLeader(t *testing.T) {
	// A request reaching only a follower still gets executed via forwarding.
	net, reps, _ := cluster(t, 4, func(int) service.Service { return service.NewCounter() }, false)
	resp, _, err := core.Request(net, "c", reps[2].Addr(), "fwd", []byte("add 9"), false, reqTimeout)
	if err != nil {
		t.Fatal(err)
	}
	if string(resp.Body) != "9" {
		t.Fatalf("body = %s", resp.Body)
	}
	if resp.ServerIndex != 2 {
		t.Fatalf("signed by %d, want the contacted follower 2", resp.ServerIndex)
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("condition never became true")
}

func BenchmarkInvoke(b *testing.B) {
	net := netsim.NewNetwork()
	peers := map[int]string{0: "s0", 1: "s1", 2: "s2", 3: "s3"}
	pubKeys := make(map[int][]byte)
	var reps []*Replica
	for i := 0; i < 4; i++ {
		keys, err := sig.NewKeyPair()
		if err != nil {
			b.Fatal(err)
		}
		r, err := New(Config{
			Index: i, Addr: peers[i], Peers: peers,
			Service: service.NewCounter(), Keys: keys, Net: net,
			HeartbeatInterval: 50 * time.Millisecond,
			HeartbeatTimeout:  500 * time.Millisecond,
		})
		if err != nil {
			b.Fatal(err)
		}
		reps = append(reps, r)
		pubKeys[i] = r.PublicKey()
	}
	defer func() {
		for _, r := range reps {
			r.Stop()
		}
	}()
	client, err := NewClient(net, "bench", peers, pubKeys, 1, 5*time.Second)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := client.Invoke(fmt.Sprintf("b%d", i), []byte("inc")); err != nil {
			b.Fatal(err)
		}
	}
}

// TestStopTerminatesWithIdleInboundConns pins the shutdown liveness fix:
// stopping replicas in index order must terminate promptly even though the
// stopped leader still holds served connections (follower forwards) that
// will never carry another message — shutdown closes inbound connections
// instead of waiting for traffic to wake their serving goroutines.
func TestStopTerminatesWithIdleInboundConns(t *testing.T) {
	_, replicas, client := cluster(t, 4, func(int) service.Service { return service.NewCounter() }, false)
	// Several invokes so every follower has forwarded to the leader at
	// least once, caching follower→leader connections.
	for i := 0; i < 3; i++ {
		if _, err := client.Invoke(fmt.Sprintf("stop-%d", i), []byte("inc")); err != nil {
			t.Fatal(err)
		}
	}
	for i, r := range replicas {
		done := make(chan struct{})
		go func() { r.Stop(); close(done) }()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatalf("replica %d Stop did not terminate — inbound conns not closed on shutdown", i)
		}
	}
}

// TestRestartAfterCrash is the restartable-serve-loop contract for SMR: a
// crashed follower re-registers its listener, rejoins the order protocol,
// and executes subsequent sequenced requests from where it left off.
func TestRestartAfterCrash(t *testing.T) {
	_, rs, client := cluster(t, 4, func(int) service.Service { return service.NewKV() }, false)
	put := func(val string) []byte {
		b, err := json.Marshal(service.KVRequest{Op: "put", Key: "k", Value: val})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	if _, err := client.Invoke("w1", put("v1")); err != nil {
		t.Fatal(err)
	}
	// Let w1's order land on the follower before crashing it: the order
	// protocol has no catch-up transfer, so a replica that crashes with a
	// sequence gap would stall on the missing entry after restart.
	deadline := time.Now().Add(2 * time.Second)
	for rs[3].Executed() < 1 {
		if time.Now().After(deadline) {
			t.Fatalf("follower never executed w1")
		}
		time.Sleep(time.Millisecond)
	}
	rs[3].Crash()
	if err := rs[3].Restart(); err != nil {
		t.Fatalf("restart: %v", err)
	}
	if err := rs[3].Restart(); err == nil {
		t.Fatal("restart of a running replica accepted")
	}
	if _, err := client.Invoke("w2", put("v2")); err != nil {
		t.Fatal(err)
	}
	// The restarted follower receives w2's order and executes contiguously
	// from its retained log position.
	deadline = time.Now().Add(2 * time.Second)
	for rs[3].Executed() < rs[0].Executed() {
		if time.Now().After(deadline) {
			t.Fatalf("restarted replica executed %d, leader %d", rs[3].Executed(), rs[0].Executed())
		}
		time.Sleep(time.Millisecond)
	}
}
