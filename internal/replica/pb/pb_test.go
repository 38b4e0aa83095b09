package pb

import (
	"encoding/json"
	"fmt"
	"testing"
	"time"

	"fortress/internal/metrics"
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

// cluster stands up n replicas hosting fresh services built by mk.
func cluster(t *testing.T, n int, mk func(i int) service.Service) (*netsim.Network, []*Replica) {
	t.Helper()
	net := netsim.NewNetwork()
	peers := make(map[int]string, n)
	for i := 0; i < n; i++ {
		peers[i] = fmt.Sprintf("server-%d", i)
	}
	replicas := make([]*Replica, n)
	for i := 0; i < n; i++ {
		keys, err := sig.NewKeyPair()
		if err != nil {
			t.Fatal(err)
		}
		r, err := New(Config{
			Index:             i,
			Addr:              peers[i],
			Peers:             peers,
			InitialPrimary:    0,
			Service:           mk(i),
			Keys:              keys,
			Net:               net,
			HeartbeatInterval: hbInterval,
			HeartbeatTimeout:  hbTimeout,
		})
		if err != nil {
			t.Fatal(err)
		}
		replicas[i] = r
		t.Cleanup(r.Stop)
	}
	return net, replicas
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

func TestConfigValidation(t *testing.T) {
	net := netsim.NewNetwork()
	keys, err := sig.NewKeyPair()
	if err != nil {
		t.Fatal(err)
	}
	good := Config{
		Index: 0, Addr: "a", Peers: map[int]string{0: "a"},
		InitialPrimary: 0, Service: service.NewKV(), Keys: keys, Net: net,
		HeartbeatInterval: time.Millisecond, HeartbeatTimeout: time.Millisecond,
	}
	mutations := []func(c *Config){
		func(c *Config) { c.Service = nil },
		func(c *Config) { c.Keys = nil },
		func(c *Config) { c.Net = nil },
		func(c *Config) { c.Addr = "" },
		func(c *Config) { c.Peers = nil },
		func(c *Config) { c.Peers = map[int]string{9: "x"} },
		func(c *Config) { c.InitialPrimary = 7 },
		func(c *Config) { c.HeartbeatInterval = 0 },
		func(c *Config) { c.HeartbeatTimeout = 0 },
	}
	for i, mutate := range mutations {
		c := good
		c.Peers = map[int]string{0: "a"}
		mutate(&c)
		if _, err := New(c); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
	r, err := New(good)
	if err != nil {
		t.Fatalf("good config rejected: %v", err)
	}
	r.Stop()
}

// respCacheReplica stands up a single-node cluster whose reply table is
// swapped, before any traffic, for one with the given horizon.
func respCacheReplica(t *testing.T, limit int) (*netsim.Network, *Replica) {
	t.Helper()
	net := netsim.NewNetwork()
	keys, err := sig.NewKeyPair()
	if err != nil {
		t.Fatal(err)
	}
	r, err := New(Config{
		Index: 0, Addr: "solo", Peers: map[int]string{0: "solo"},
		InitialPrimary: 0, Service: service.NewKV(), Keys: keys, Net: net,
		HeartbeatInterval: hbInterval, HeartbeatTimeout: hbTimeout,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Stop)
	r.mu.Lock()
	r.replies = core.NewReplies(limit)
	r.mu.Unlock()
	return net, r
}

// TestRespCacheBounded pins the retry-horizon eviction through a live
// replica: with a horizon of 4, six distinct requests leave exactly the four
// youngest responses in the table, a retry inside the horizon replays
// without executing, and one past it executes again.
func TestRespCacheBounded(t *testing.T) {
	net, r := respCacheReplica(t, 4)
	put := func(id string) {
		t.Helper()
		if _, err := Request(net, "client", r.Addr(), id, kvPut(t, "k", id), reqTimeout); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 6; i++ {
		put(fmt.Sprintf("r%d", i))
	}
	r.mu.Lock()
	held := r.replies.Export()
	r.mu.Unlock()
	if len(held) != 4 {
		t.Fatalf("table holds %d entries, want 4", len(held))
	}
	for id, want := range map[string]bool{"r0": false, "r1": false, "r2": true, "r5": true} {
		if _, ok := held[id]; ok != want {
			t.Errorf("%s retained = %v, want %v", id, ok, want)
		}
	}
	put("r5")
	if got := r.Seq(); got != 6 {
		t.Fatalf("retry inside the horizon executed: seq = %d, want 6", got)
	}
	put("r0")
	if got := r.Seq(); got != 7 {
		t.Fatalf("retry past the horizon replayed: seq = %d, want 7", got)
	}
}

func TestPrimaryServesSignedResponse(t *testing.T) {
	net, reps := cluster(t, 3, func(int) service.Service { return service.NewKV() })
	resp, err := Request(net, "client", reps[0].Addr(), "r1", kvPut(t, "k", "v"), reqTimeout)
	if err != nil {
		t.Fatal(err)
	}
	if resp.ServerIndex != 0 {
		t.Fatalf("signed by %d, want 0", resp.ServerIndex)
	}
	if err := sig.VerifyServerResponse(reps[0].PublicKey(), resp); err != nil {
		t.Fatalf("signature invalid: %v", err)
	}
	var kr service.KVResponse
	if err := json.Unmarshal(resp.Body, &kr); err != nil {
		t.Fatal(err)
	}
	if !kr.Found || kr.Value != "v" {
		t.Fatalf("response = %+v", kr)
	}
}

func TestBackupCoSignsAfterUpdate(t *testing.T) {
	net, reps := cluster(t, 3, func(int) service.Service { return service.NewKV() })

	// Ask primary and a backup for the same request, as a proxy would.
	done := make(chan sig.ServerResponse, 1)
	go func() {
		resp, err := Request(net, "proxy-b", reps[1].Addr(), "r1", kvPut(t, "k", "v"), reqTimeout)
		if err == nil {
			done <- resp
		}
	}()
	// Give the backup a moment to park the request, then drive the primary.
	time.Sleep(10 * time.Millisecond)
	if _, err := Request(net, "proxy-a", reps[0].Addr(), "r1", kvPut(t, "k", "v"), reqTimeout); err != nil {
		t.Fatal(err)
	}
	select {
	case resp := <-done:
		if resp.ServerIndex != 1 {
			t.Fatalf("backup response signed by %d", resp.ServerIndex)
		}
		if err := sig.VerifyServerResponse(reps[1].PublicKey(), resp); err != nil {
			t.Fatalf("backup signature invalid: %v", err)
		}
		var kr service.KVResponse
		if err := json.Unmarshal(resp.Body, &kr); err != nil {
			t.Fatal(err)
		}
		if kr.Value != "v" {
			t.Fatalf("backup response = %+v", kr)
		}
	case <-time.After(reqTimeout):
		t.Fatal("backup never co-signed")
	}
}

func TestBackupRepliesFromCacheOnLateRequest(t *testing.T) {
	net, reps := cluster(t, 3, func(int) service.Service { return service.NewKV() })
	if _, err := Request(net, "p", reps[0].Addr(), "r1", kvPut(t, "a", "1"), reqTimeout); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return reps[1].Seq() >= 1 })
	// Now the backup already has the update; a late request is served
	// immediately from cache.
	resp, err := Request(net, "p", reps[1].Addr(), "r1", kvPut(t, "a", "1"), reqTimeout)
	if err != nil {
		t.Fatal(err)
	}
	if resp.ServerIndex != 1 {
		t.Fatalf("signed by %d", resp.ServerIndex)
	}
}

func TestStateReplicationReachesAllBackups(t *testing.T) {
	net, reps := cluster(t, 3, func(int) service.Service { return service.NewKV() })
	for i := 0; i < 5; i++ {
		reqID := fmt.Sprintf("r%d", i)
		if _, err := Request(net, "c", reps[0].Addr(), reqID, kvPut(t, fmt.Sprintf("k%d", i), "v"), reqTimeout); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, func() bool { return reps[1].Seq() == 5 && reps[2].Seq() == 5 })
}

func TestDuplicateRequestIdempotent(t *testing.T) {
	net, reps := cluster(t, 3, func(int) service.Service { return service.NewCounter() })
	r1, err := Request(net, "c", reps[0].Addr(), "dup", []byte("inc"), reqTimeout)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Request(net, "c", reps[0].Addr(), "dup", []byte("inc"), reqTimeout)
	if err != nil {
		t.Fatal(err)
	}
	if string(r1.Body) != "1" || string(r2.Body) != "1" {
		t.Fatalf("duplicate executed twice: %s then %s", r1.Body, r2.Body)
	}
}

func TestApplicationErrorPropagates(t *testing.T) {
	net, reps := cluster(t, 3, func(int) service.Service { return service.NewCounter() })
	resp, err := Request(net, "c", reps[0].Addr(), "bad", []byte("explode"), reqTimeout)
	if err != nil {
		t.Fatal(err)
	}
	if string(resp.Body[:6]) != "error:" {
		t.Fatalf("body = %s", resp.Body)
	}
}

func TestFailoverPromotesNextIndex(t *testing.T) {
	net, reps := cluster(t, 3, func(int) service.Service { return service.NewKV() })
	if _, err := Request(net, "c", reps[0].Addr(), "r1", kvPut(t, "k", "v1"), reqTimeout); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return reps[1].Seq() == 1 && reps[2].Seq() == 1 })

	reps[0].Crash()
	waitFor(t, func() bool { return reps[1].Role() == RolePrimary })

	// The new primary serves with the preserved state.
	resp, err := Request(net, "c", reps[1].Addr(), "r2", kvGet(t, "k"), reqTimeout)
	if err != nil {
		t.Fatal(err)
	}
	var kr service.KVResponse
	if err := json.Unmarshal(resp.Body, &kr); err != nil {
		t.Fatal(err)
	}
	if !kr.Found || kr.Value != "v1" {
		t.Fatalf("state lost across failover: %+v", kr)
	}
	// The remaining backup follows the new primary.
	waitFor(t, func() bool { return reps[2].PrimaryIndex() == 1 })
}

func TestDoubleFailover(t *testing.T) {
	net, reps := cluster(t, 3, func(int) service.Service { return service.NewCounter() })
	if _, err := Request(net, "c", reps[0].Addr(), "a", []byte("add 5"), reqTimeout); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return reps[1].Seq() == 1 && reps[2].Seq() == 1 })
	reps[0].Crash()
	waitFor(t, func() bool { return reps[1].Role() == RolePrimary })
	if _, err := Request(net, "c", reps[1].Addr(), "b", []byte("add 2"), reqTimeout); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return reps[2].Seq() == 2 })
	reps[1].Crash()
	waitFor(t, func() bool { return reps[2].Role() == RolePrimary })
	resp, err := Request(net, "c", reps[2].Addr(), "c", []byte("read"), reqTimeout)
	if err != nil {
		t.Fatal(err)
	}
	if string(resp.Body) != "7" {
		t.Fatalf("state after two failovers = %s, want 7", resp.Body)
	}
}

func TestNondeterministicServiceReplicatesFine(t *testing.T) {
	// The paper's point: PB hosts non-DSM services because backups never
	// re-execute.
	rng := xrand.New(77)
	net, reps := cluster(t, 3, func(i int) service.Service {
		return service.NewNondet(service.NewCounter(), rng.Split())
	})
	if _, err := Request(net, "c", reps[0].Addr(), "n1", []byte("add 3"), reqTimeout); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return reps[1].Seq() == 1 && reps[2].Seq() == 1 })
	reps[0].Crash()
	waitFor(t, func() bool { return reps[1].Role() == RolePrimary })
	resp, err := Request(net, "c", reps[1].Addr(), "n2", []byte("read"), reqTimeout)
	if err != nil {
		t.Fatal(err)
	}
	var env struct {
		Inner []byte `json:"inner"`
	}
	if err := json.Unmarshal(resp.Body, &env); err != nil {
		t.Fatal(err)
	}
	if string(env.Inner) != "3" {
		t.Fatalf("nondet state lost: %s", env.Inner)
	}
}

func TestRequestToCrashedReplicaFails(t *testing.T) {
	net, reps := cluster(t, 3, func(int) service.Service { return service.NewKV() })
	reps[2].Crash()
	if _, err := Request(net, "c", reps[2].Addr(), "x", kvGet(t, "k"), 100*time.Millisecond); err == nil {
		t.Fatal("request to crashed replica succeeded")
	}
}

func TestStopIdempotent(t *testing.T) {
	_, reps := cluster(t, 2, func(int) service.Service { return service.NewKV() })
	reps[0].Stop()
	reps[0].Stop() // must not panic or deadlock
}

func TestRoleString(t *testing.T) {
	if RolePrimary.String() != "primary" || RoleBackup.String() != "backup" {
		t.Fatal("role strings wrong")
	}
	if Role(9).String() == "" {
		t.Fatal("unknown role empty")
	}
}

func TestPrimaryHeartbeatKeepsBackupsQuiet(t *testing.T) {
	_, reps := cluster(t, 3, func(int) service.Service { return service.NewKV() })
	time.Sleep(4 * hbTimeout)
	if reps[1].Role() != RoleBackup || reps[2].Role() != RoleBackup {
		t.Fatal("backup promoted despite live primary")
	}
	if reps[0].Role() != RolePrimary {
		t.Fatal("primary demoted itself")
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

func BenchmarkPrimaryRequest(b *testing.B) {
	net := netsim.NewNetwork()
	peers := map[int]string{0: "s0", 1: "s1", 2: "s2"}
	var reps []*Replica
	for i := 0; i < 3; i++ {
		keys, err := sig.NewKeyPair()
		if err != nil {
			b.Fatal(err)
		}
		r, err := New(Config{
			Index: i, Addr: peers[i], Peers: peers, InitialPrimary: 0,
			Service: service.NewKV(), Keys: keys, Net: net,
			HeartbeatInterval: 50 * time.Millisecond,
			HeartbeatTimeout:  500 * time.Millisecond,
		})
		if err != nil {
			b.Fatal(err)
		}
		reps = append(reps, r)
	}
	defer func() {
		for _, r := range reps {
			r.Stop()
		}
	}()
	conn, err := net.Dial("bench-client", "s0")
	if err != nil {
		b.Fatal(err)
	}
	defer conn.Close()
	body := []byte(`{"op":"put","key":"k","value":"v"}`)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RequestOn(conn, fmt.Sprintf("b%d", i), body, 5*time.Second); err != nil {
			b.Fatal(err)
		}
	}
}

// TestStopTerminatesWithIdleInboundConns pins the shutdown liveness fix:
// stopping replicas in index order must terminate promptly even while peers
// still hold open connections to the stopped node that will never carry
// another message — shutdown closes inbound connections instead of waiting
// for traffic to wake their serving goroutines.
func TestStopTerminatesWithIdleInboundConns(t *testing.T) {
	net, replicas := cluster(t, 3, func(int) service.Service { return service.NewKV() })
	if _, err := Request(net, "client", replicas[0].Addr(), "w1", kvPut(t, "k", "v"), reqTimeout); err != nil {
		t.Fatal(err)
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

// TestRestartAfterCrash is the restartable-serve-loop contract: a crashed
// replica re-registers its listener at the same address, serves again, and
// keeps its response cache and sequence number.
func TestRestartAfterCrash(t *testing.T) {
	net, rs := cluster(t, 1, func(int) service.Service { return service.NewKV() })
	orig, err := Request(net, "c", rs[0].Addr(), "w1", kvPut(t, "k", "v"), reqTimeout)
	if err != nil {
		t.Fatal(err)
	}
	seqBefore := rs[0].Seq()

	rs[0].Crash()
	if _, err := net.Dial("c", rs[0].Addr()); err == nil {
		t.Fatal("crashed replica accepted a dial")
	}
	if err := rs[0].Restart(); err != nil {
		t.Fatalf("restart: %v", err)
	}
	if rs[0].Seq() != seqBefore {
		t.Fatalf("seq %d after restart, want %d", rs[0].Seq(), seqBefore)
	}
	// The response cache survived: a duplicate of the pre-crash request is
	// answered from cache, and fresh requests execute against retained state.
	resp, err := Request(net, "c", rs[0].Addr(), "w1", nil, reqTimeout)
	if err != nil {
		t.Fatalf("cached request after restart: %v", err)
	}
	if string(resp.Body) != string(orig.Body) {
		t.Fatalf("cached response %q, want %q", resp.Body, orig.Body)
	}
	resp, err = Request(net, "c", rs[0].Addr(), "r1", kvGet(t, "k"), reqTimeout)
	if err != nil {
		t.Fatalf("fresh request after restart: %v", err)
	}
	var got service.KVResponse
	if err := json.Unmarshal(resp.Body, &got); err != nil {
		t.Fatal(err)
	}
	if !got.Found || got.Value != "v" {
		t.Fatalf("read %+v after restart, want value \"v\"", got)
	}
}

func TestRestartOfRunningReplicaErrors(t *testing.T) {
	_, rs := cluster(t, 1, func(int) service.Service { return service.NewKV() })
	if err := rs[0].Restart(); err == nil {
		t.Fatal("restart of a running replica accepted")
	}
}

// TestRestartRejoinsAsBackup checks a restarted non-initial-primary rejoins
// as a backup and resyncs from the primary's next update.
func TestRestartRejoinsAsBackup(t *testing.T) {
	net, rs := cluster(t, 2, func(int) service.Service { return service.NewKV() })
	if _, err := Request(net, "c", rs[0].Addr(), "w1", kvPut(t, "k", "v1"), reqTimeout); err != nil {
		t.Fatal(err)
	}
	rs[1].Crash()
	if err := rs[1].Restart(); err != nil {
		t.Fatal(err)
	}
	if rs[1].Role() != RoleBackup {
		t.Fatalf("restarted replica role %v, want backup", rs[1].Role())
	}
	if _, err := Request(net, "c", rs[0].Addr(), "w2", kvPut(t, "k", "v2"), reqTimeout); err != nil {
		t.Fatal(err)
	}
	// The update that carried w2 resynced the restarted backup.
	deadline := time.Now().Add(2 * time.Second)
	for rs[1].Seq() < rs[0].Seq() {
		if time.Now().After(deadline) {
			t.Fatalf("backup seq %d never caught primary seq %d", rs[1].Seq(), rs[0].Seq())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestDeltaCapableFastPathConverges pins the DeltaCapable hot path: a
// primary hosting a delta-reporting KV service splices its chain states
// from the reported edits (the fast counter moves) and backups still
// converge to byte-identical state through the same delta wire format —
// deletes, overwrites and reads included.
func TestDeltaCapableFastPathConverges(t *testing.T) {
	net := netsim.NewNetwork()
	reg := metrics.New()
	peers := map[int]string{0: "dc-0", 1: "dc-1"}
	replicas := make([]*Replica, len(peers))
	for i := range replicas {
		keys, err := sig.NewKeyPair()
		if err != nil {
			t.Fatal(err)
		}
		r, err := New(Config{
			Index: i, Addr: peers[i], Peers: peers, InitialPrimary: 0,
			Service: service.NewKV(), Keys: keys, Net: net,
			HeartbeatInterval: hbInterval, HeartbeatTimeout: hbTimeout,
			Metrics: reg,
		})
		if err != nil {
			t.Fatal(err)
		}
		replicas[i] = r
		t.Cleanup(r.Stop)
	}
	ops := []struct {
		id   string
		body []byte
	}{
		{"w1", kvPut(t, "k1", "v1")},
		{"w2", kvPut(t, "k0", "v0")}, // insert before k1
		{"w3", kvPut(t, "k1", "v1-longer-value")},
		{"r1", kvGet(t, "k0")}, // unchanged delta
		{"w4", []byte(`{"op":"delete","key":"k0"}`)},
		{"w5", kvPut(t, "k9", "tail")},
		{"w6", []byte(`{"op":"nope"}`)}, // request error, unchanged delta
	}
	// The first update anchors the fresh backup with a checkpoint; every
	// jump after that would mean a spliced delta diverged.
	if _, err := Request(net, "c", replicas[0].Addr(), ops[0].id, ops[0].body, reqTimeout); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return replicas[1].Seq() == 1 })
	anchors := replicas[1].CheckpointJumps()
	for _, op := range ops[1:] {
		if _, err := Request(net, "c", replicas[0].Addr(), op.id, op.body, reqTimeout); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, func() bool { return replicas[1].Seq() == replicas[0].Seq() })
	// Convergence must have come from the in-order delta chain alone: a
	// mis-spliced delta would diverge the backup and force a checkpoint
	// re-anchor.
	if jumps := replicas[1].CheckpointJumps(); jumps != anchors {
		t.Errorf("backup needed %d extra checkpoint re-anchors — spliced deltas diverged", jumps-anchors)
	}
	// Execute a read on the primary, then fetch it from the backup's
	// replicated cache: the backup co-signs the same state the primary saw.
	if _, err := Request(net, "c", replicas[0].Addr(), "r2", kvGet(t, "k9"), reqTimeout); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return replicas[1].Seq() == replicas[0].Seq() })
	resp, err := Request(net, "c", replicas[1].Addr(), "r2", kvGet(t, "k9"), reqTimeout)
	if err != nil {
		t.Fatal(err)
	}
	var got service.KVResponse
	if err := json.Unmarshal(resp.Body, &got); err != nil {
		t.Fatal(err)
	}
	if !got.Found || got.Value != "tail" {
		t.Fatalf("backup read %+v, want tail", got)
	}
	fast := reg.Snapshot().Timing[fmt.Sprintf("pb_updates_delta_fast_total{node=%q}", replicas[0].Addr())]
	if fast < 5 {
		t.Errorf("fast-path deltas = %d, want >= 5 (every post-checkpoint op should splice)", fast)
	}
}

// TestOutboxShedTriggersCheckpointResync pins the backpressure contract:
// with a tiny per-peer outbox bound, a resync burst wider than the bound
// sheds its oldest deltas — and the runtime's shed notification makes the
// primary anchor the backup with a full checkpoint on the next tick, so
// replication converges instead of wedging on the gap the shed opened.
func TestOutboxShedTriggersCheckpointResync(t *testing.T) {
	net := netsim.NewNetwork()
	peers := map[int]string{0: "shed-0", 1: "shed-1"}
	replicas := make([]*Replica, len(peers))
	for i := range replicas {
		keys, err := sig.NewKeyPair()
		if err != nil {
			t.Fatal(err)
		}
		r, err := New(Config{
			Index: i, Addr: peers[i], Peers: peers, InitialPrimary: 0,
			Service: service.NewKV(), Keys: keys, Net: net,
			HeartbeatInterval: hbInterval, HeartbeatTimeout: hbTimeout,
			OutboxLimit: 2,
		})
		if err != nil {
			t.Fatal(err)
		}
		replicas[i] = r
		t.Cleanup(r.Stop)
	}
	if _, err := Request(net, "c", replicas[0].Addr(), "w0", kvPut(t, "k", "v0"), reqTimeout); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return replicas[1].Seq() == 1 })

	// Open a gap far wider than the outbox bound while the backup is down:
	// the nack-driven delta retransmission can never fit through intact.
	replicas[1].Crash()
	for i := 1; i <= 8; i++ {
		id := fmt.Sprintf("w%d", i)
		if _, err := Request(net, "c", replicas[0].Addr(), id, kvPut(t, "k", "v"+id), reqTimeout); err != nil {
			t.Fatal(err)
		}
	}
	if err := replicas[1].Restart(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return replicas[1].Seq() == replicas[0].Seq() })
	if jumps := replicas[1].CheckpointJumps(); jumps == 0 {
		t.Error("backup converged without a checkpoint anchor — an 8-delta suffix cannot fit a 2-deep outbox")
	}
}

// TestRejoinResetsAckStallClock pins the restart half of the ack-stall
// detector: frontier observations from before a crash describe a link that
// no longer exists, so Rejoin must clear the stall clock (last-seen acks,
// consecutive stalled ticks, and the per-peer backoff wait). Before the
// fix, only a full rebuild via New reset them — an in-place Restart
// inherited pre-crash state and could fire a spurious or badly delayed
// stall resync on its first ticks back.
func TestRejoinResetsAckStallClock(t *testing.T) {
	_, rs := cluster(t, 3, func(int) service.Service { return service.NewKV() })
	r := rs[0]
	r.mu.Lock()
	r.ackSeen[1] = 7
	r.stallTicks[1] = 3
	r.stallWait[1] = 64
	r.mu.Unlock()
	r.Rejoin()
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.ackSeen) != 0 || len(r.stallTicks) != 0 || len(r.stallWait) != 0 {
		t.Errorf("stall clock survived Rejoin: ackSeen=%v stallTicks=%v stallWait=%v",
			r.ackSeen, r.stallTicks, r.stallWait)
	}
}

// TestRestartedInitialPrimaryDoesNotReclaimRole pins the failover-safety
// contract: after the cluster has failed over, a restarted initial primary
// rejoins as a backup and adopts the successor instead of usurping it with
// stale state.
func TestRestartedInitialPrimaryDoesNotReclaimRole(t *testing.T) {
	net, rs := cluster(t, 2, func(int) service.Service { return service.NewKV() })
	if _, err := Request(net, "c", rs[0].Addr(), "w1", kvPut(t, "k", "v1"), reqTimeout); err != nil {
		t.Fatal(err)
	}
	rs[0].Crash()
	deadline := time.Now().Add(2 * time.Second)
	for rs[1].Role() != RolePrimary {
		if time.Now().After(deadline) {
			t.Fatal("backup never promoted after primary crash")
		}
		time.Sleep(time.Millisecond)
	}
	if err := rs[0].Restart(); err != nil {
		t.Fatal(err)
	}
	if rs[0].Role() != RoleBackup {
		t.Fatalf("restarted initial primary rejoined as %v, want backup", rs[0].Role())
	}
	// Commit a write through the successor; the restarted node must adopt it
	// and resync rather than demote it.
	if _, err := Request(net, "c", rs[1].Addr(), "w2", kvPut(t, "k", "v2"), reqTimeout); err != nil {
		t.Fatal(err)
	}
	deadline = time.Now().Add(2 * time.Second)
	for rs[0].PrimaryIndex() != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("restarted node follows %d, want 1", rs[0].PrimaryIndex())
		}
		time.Sleep(time.Millisecond)
	}
	if rs[1].Role() != RolePrimary {
		t.Fatalf("successor demoted to %v by the restarted node", rs[1].Role())
	}
}
