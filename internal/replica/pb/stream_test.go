package pb

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"fortress/internal/netsim"
	"fortress/internal/service"
	"fortress/internal/sig"
	"fortress/internal/xrand"
)

// clusterWith mirrors cluster but lets the test pin the update-stream knobs
// (checkpoint cadence, retransmission window).
func clusterWith(t *testing.T, n int, mk func(i int) service.Service, mutate func(c *Config)) (*netsim.Network, []*Replica) {
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
		cfg := Config{
			Index:             i,
			Addr:              peers[i],
			Peers:             peers,
			InitialPrimary:    0,
			Service:           mk(i),
			Keys:              keys,
			Net:               net,
			HeartbeatInterval: hbInterval,
			HeartbeatTimeout:  hbTimeout,
		}
		if mutate != nil {
			mutate(&cfg)
		}
		r, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		replicas[i] = r
		t.Cleanup(r.Stop)
	}
	return net, replicas
}

// writeN drives n distinct puts through the primary, retrying like a real
// requester would: request IDs dedupe retries, so a send or response lost
// to a lossy link costs a round, never a double execution.
func writeN(t *testing.T, net *netsim.Network, primary *Replica, base, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("k%03d", (base+i)%16)
		body := kvPut(t, key, fmt.Sprintf("v%d", base+i))
		var err error
		for attempt := 0; attempt < 10; attempt++ {
			if _, err = Request(net, "c", primary.Addr(), fmt.Sprintf("w%d", base+i),
				body, 500*time.Millisecond); err == nil {
				break
			}
		}
		if err != nil {
			t.Fatal(err)
		}
	}
}

// waitConverged waits until every replica has applied the primary's
// frontier and holds byte-identical service state.
func waitConverged(t *testing.T, kvs []*service.KV, reps []*Replica) {
	t.Helper()
	waitFor(t, func() bool {
		want := reps[0].Seq()
		for _, r := range reps[1:] {
			if r.Seq() != want {
				return false
			}
		}
		ref, err := kvs[0].Snapshot()
		if err != nil {
			return false
		}
		for _, kv := range kvs[1:] {
			snap, err := kv.Snapshot()
			if err != nil || !bytes.Equal(snap, ref) {
				return false
			}
		}
		return true
	})
}

// TestDeltaStreamReplicatesAndTrimsOnAck is the happy path of the
// ack-windowed incremental stream: deltas (with periodic checkpoints) keep
// every backup in lockstep with the primary, the duplex links deliver the
// backups' cumulative acks to the primary's reader loops, and acked deltas
// are released from the retransmission window ahead of the capacity bound.
func TestDeltaStreamReplicatesAndTrimsOnAck(t *testing.T) {
	kvs := make([]*service.KV, 3)
	net, reps := clusterWith(t, 3, func(i int) service.Service {
		kvs[i] = service.NewKV()
		return kvs[i]
	}, func(c *Config) { c.CheckpointEvery = 4; c.UpdateWindow = 64 })

	const writes = 20
	writeN(t, net, reps[0], 0, writes)
	waitConverged(t, kvs, reps)

	// The acks flowed back over the update connections themselves.
	waitFor(t, func() bool {
		return reps[0].Acked(1) == uint64(writes) && reps[0].Acked(2) == uint64(writes)
	})
	reps[0].mu.Lock()
	retained := reps[0].window.Len()
	reps[0].mu.Unlock()
	if retained > 1 {
		t.Fatalf("window retains %d deltas after every backup acked the frontier", retained)
	}
}

// TestAckForAlreadyCheckpointedDelta pins the late-ack edge case: an ack
// for a delta the primary has already released (trimmed by newer acks or
// superseded by a checkpoint) must be absorbed without disturbing the
// window or the stream.
func TestAckForAlreadyCheckpointedDelta(t *testing.T) {
	kvs := make([]*service.KV, 3)
	net, reps := clusterWith(t, 3, func(i int) service.Service {
		kvs[i] = service.NewKV()
		return kvs[i]
	}, func(c *Config) { c.CheckpointEvery = 4; c.UpdateWindow = 2 })

	writeN(t, net, reps[0], 0, 10)
	waitConverged(t, kvs, reps)

	// Replay a long-stale cumulative ack straight at the primary, as a
	// delayed or duplicated reply would arrive.
	conn, err := net.Dial("late-acker", reps[0].Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := conn.Send(encode(wireMsg{Type: msgAck, Seq: 1, From: 1, Stream: 0})); err != nil {
		t.Fatal(err)
	}
	// An ack far beyond anything sent must be equally harmless.
	if err := conn.Send(encode(wireMsg{Type: msgAck, Seq: 1 << 40, From: 2, Stream: 0})); err != nil {
		t.Fatal(err)
	}

	writeN(t, net, reps[0], 10, 6)
	waitConverged(t, kvs, reps)
	if got := kvs[1].Len(); got == 0 {
		t.Fatal("backup lost state after stale acks")
	}
}

// TestBackupRestartMidWindowUnderLossy is the recovery scenario the
// ack-driven stream exists for, under the lossy preset's drop rate: a
// backup crashes mid-window, sleeps through updates, restarts with retained
// state, and must converge to the primary's exact state over the duplex
// link — nack-triggered retransmission when its gap fits the window,
// checkpoint fallback otherwise — with 2% of all messages (updates, acks,
// nacks, resyncs alike) dropped throughout.
func TestBackupRestartMidWindowUnderLossy(t *testing.T) {
	kvs := make([]*service.KV, 3)
	net, reps := clusterWith(t, 3, func(i int) service.Service {
		kvs[i] = service.NewKV()
		return kvs[i]
	}, func(c *Config) { c.CheckpointEvery = 8; c.UpdateWindow = 32 })
	net.SetDropRate(0.02, xrand.New(99)) // the lossy preset's rate

	writeN(t, net, reps[0], 0, 8)
	waitConverged(t, kvs, reps)

	reps[2].Crash()
	writeN(t, net, reps[0], 8, 12) // advances the window past the sleeper
	if err := reps[2].Restart(); err != nil {
		t.Fatal(err)
	}
	writeN(t, net, reps[0], 20, 4)
	waitConverged(t, kvs, reps)
}

// TestResyncRetransmitsDeltaSuffix forces the retransmission path: the
// checkpoint cadence is pushed out of reach and the window is large, so the
// only way a restarted backup can converge is by receiving the retained
// delta suffix from its nack frontier.
func TestResyncRetransmitsDeltaSuffix(t *testing.T) {
	kvs := make([]*service.KV, 2)
	net, reps := clusterWith(t, 2, func(i int) service.Service {
		kvs[i] = service.NewKV()
		return kvs[i]
	}, func(c *Config) { c.CheckpointEvery = 1 << 20; c.UpdateWindow = 128 })

	writeN(t, net, reps[0], 0, 4)
	waitConverged(t, kvs, reps)

	reps[1].Crash()
	writeN(t, net, reps[0], 4, 8)
	if err := reps[1].Restart(); err != nil {
		t.Fatal(err)
	}
	waitConverged(t, kvs, reps)
}

// TestResyncFallsBackToCheckpoint forces the other path: a window that
// retains nothing leaves the primary no delta suffix to replay, so the
// restarted backup must be re-anchored by a full checkpoint carrying the
// response cache.
func TestResyncFallsBackToCheckpoint(t *testing.T) {
	kvs := make([]*service.KV, 2)
	net, reps := clusterWith(t, 2, func(i int) service.Service {
		kvs[i] = service.NewKV()
		return kvs[i]
	}, func(c *Config) { c.CheckpointEvery = 1 << 20; c.UpdateWindow = -1 })

	writeN(t, net, reps[0], 0, 4)
	waitConverged(t, kvs, reps)

	reps[1].Crash()
	writeN(t, net, reps[0], 4, 8)
	if err := reps[1].Restart(); err != nil {
		t.Fatal(err)
	}
	waitConverged(t, kvs, reps)

	// The checkpoint carried the response cache: a duplicate of a request
	// the backup jumped over is answered from cache, not re-parked.
	resp, err := Request(net, "c", reps[1].Addr(), "w6", nil, reqTimeout)
	if err != nil {
		t.Fatalf("jumped-over request not answerable from cache: %v", err)
	}
	if len(resp.Body) == 0 {
		t.Fatal("cached response empty")
	}
}

// TestDivergedBackupResyncsViaCheckpoint pins the divergence path: a
// backup whose state has silently rotted fails the delta's
// base-hash check, drops off-stream, and must be re-anchored by a
// checkpoint — retransmitting the same delta could never succeed, so the
// nack must not steer the primary onto the retransmission path even though
// the window fully covers the gap.
func TestDivergedBackupResyncsViaCheckpoint(t *testing.T) {
	kvs := make([]*service.KV, 2)
	net, reps := clusterWith(t, 2, func(i int) service.Service {
		kvs[i] = service.NewKV()
		return kvs[i]
	}, func(c *Config) { c.CheckpointEvery = 1 << 20; c.UpdateWindow = 128 })

	writeN(t, net, reps[0], 0, 4)
	waitConverged(t, kvs, reps)

	// Rot the backup's state behind the protocol's back: its snapshot no
	// longer hashes to the base the primary's next delta names.
	reps[1].execMu.Lock()
	if _, err := kvs[1].Apply(kvPut(t, "rotten", "state")); err != nil {
		t.Fatal(err)
	}
	reps[1].execMu.Unlock()

	writeN(t, net, reps[0], 4, 4)
	waitConverged(t, kvs, reps)
}

// TestUpdateStreamStopCrashRace races live delta traffic (and the ack
// stream riding back over the duplex links) against backup crash/restart
// and primary shutdown — a race-detector companion to the core-level
// reader-shutdown test, through the full protocol stack.
func TestUpdateStreamStopCrashRace(t *testing.T) {
	kvs := make([]*service.KV, 3)
	net, reps := clusterWith(t, 3, func(i int) service.Service {
		kvs[i] = service.NewKV()
		return kvs[i]
	}, func(c *Config) { c.CheckpointEvery = 4; c.UpdateWindow = 8 })

	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 40; i++ {
			// Ignore errors: the primary may be mid-shutdown below.
			_, _ = Request(net, "c", reps[0].Addr(), fmt.Sprintf("race%d", i),
				kvPut(t, fmt.Sprintf("k%d", i%4), "v"), 200*time.Millisecond)
		}
	}()
	for i := 0; i < 4; i++ {
		time.Sleep(3 * time.Millisecond)
		reps[2].Crash()
		if err := reps[2].Restart(); err != nil {
			t.Fatal(err)
		}
	}
	<-done
	reps[0].Stop() // readers mid-ack-drain: must terminate
}
