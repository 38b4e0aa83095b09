package pb

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"fortress/internal/metrics"
	"fortress/internal/service"
)

// countingKV counts how a replica changes its state: whole-state Restores
// versus InstallDelta calls.
type countingKV struct {
	*service.KV
	restores, installs atomic.Uint64
}

func (c *countingKV) Restore(snapshot []byte) error {
	c.restores.Add(1)
	return c.KV.Restore(snapshot)
}

func (c *countingKV) InstallDelta(next []byte, d service.SnapshotDelta) error {
	c.installs.Add(1)
	return c.KV.InstallDelta(next, d)
}

// TestBackupsInstallDeltasWithoutRestore pins the install direction of the
// update stream over ~1 MiB of state: backups end byte-identical to the
// primary, call Restore only for checkpoints — never for a delta or an
// unchanged update — and a delta whose base hash was corrupted is still
// nacked as diverged and repaired by a checkpoint.
func TestBackupsInstallDeltasWithoutRestore(t *testing.T) {
	const keys, valueBytes = 256, 4000
	state := make(map[string]string, keys)
	for i := 0; i < keys; i++ {
		state[fmt.Sprintf("key-%03d", i)] = strings.Repeat(string(rune('a'+i%26)), valueBytes)
	}
	initial, err := json.Marshal(state)
	if err != nil {
		t.Fatal(err)
	}
	svcs := make([]*countingKV, 3)
	reg := metrics.New()
	net, reps := clusterWith(t, 3, func(i int) service.Service {
		svcs[i] = &countingKV{KV: service.NewKV()}
		if err := svcs[i].KV.Restore(initial); err != nil {
			t.Fatal(err)
		}
		return svcs[i]
	}, func(c *Config) {
		c.HeartbeatInterval, c.HeartbeatTimeout = 20*time.Millisecond, time.Second
		c.Metrics = reg
	})
	counter := func(name string, r *Replica) uint64 {
		return reg.Snapshot().Timing[fmt.Sprintf("%s{node=%q}", name, r.Addr())]
	}
	do := func(id string, body []byte) {
		t.Helper()
		if _, err := Request(net, "c", reps[0].Addr(), id, body, 10*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	converged := func() {
		t.Helper()
		waitFor(t, func() bool {
			want := snapOf(t, svcs[0])
			for i, r := range reps[1:] {
				if r.Seq() != reps[0].Seq() || !bytes.Equal(snapOf(t, svcs[i+1]), want) {
					return false
				}
			}
			return true
		})
	}

	// 100 puts overwriting 4 KB values, a get after every fifth.
	for i := 0; i < 100; i++ {
		do(fmt.Sprintf("w%d", i), kvPut(t, fmt.Sprintf("key-%03d", (i*37)%keys), strings.Repeat("v", valueBytes-i)))
		if i%5 == 4 {
			do(fmt.Sprintf("r%d", i), kvGet(t, fmt.Sprintf("key-%03d", i)))
		}
	}
	converged()
	if seq := reps[0].Seq(); seq < 3*defaultCheckpointEvery {
		t.Fatalf("primary seq %d spans fewer than 3 checkpoints", seq)
	}
	for _, r := range reps[1:] {
		svc := svcs[r.cfg.Index]
		ckpts, deltas := counter("pb_updates_checkpoint_total", r), counter("pb_updates_delta_total", r)
		if got := svc.restores.Load(); got != ckpts {
			t.Errorf("backup %d: %d Restore calls for %d checkpoints (%d deltas)", r.cfg.Index, got, ckpts, deltas)
		}
		if got := svc.installs.Load(); got != deltas {
			t.Errorf("backup %d: %d InstallDelta calls for %d deltas", r.cfg.Index, got, deltas)
		}
		if ckpts < 3 {
			t.Errorf("backup %d installed %d checkpoints, want >= 3", r.cfg.Index, ckpts)
		}
	}
	if fast := counter("pb_updates_delta_fast_total", reps[0]); fast != counter("pb_updates_delta_total", reps[0]) {
		t.Errorf("primary: %d of %d deltas took the fast path", fast, counter("pb_updates_delta_total", reps[0]))
	}

	// Corrupt the primary's chain base: the next delta carries a base hash
	// no backup holds. Keep clear of a checkpoint sequence, which would
	// ship the whole snapshot instead.
	for (reps[0].Seq()+1)%defaultCheckpointEvery == 0 {
		do(fmt.Sprintf("pad%d", reps[0].Seq()), kvGet(t, "key-000"))
	}
	converged()
	p := reps[0]
	p.execMu.Lock()
	p.mu.Lock()
	rotten := bytes.Clone(p.lastSnap)
	rotten[len(rotten)/2] ^= 1
	p.lastSnap = rotten
	p.mu.Unlock()
	p.execMu.Unlock()
	before := make([]uint64, len(reps))
	for i := range reps {
		before[i] = svcs[i].restores.Load()
	}
	do("after-rot", kvPut(t, "key-001", "repaired"))
	converged()
	for _, r := range reps[1:] {
		nacks := reg.Snapshot().Timing[fmt.Sprintf("pb_nack_cause_total{node=%q,cause=%q}", r.Addr(), "diverged")]
		if nacks < 1 {
			t.Errorf("backup %d: no diverged nack for the corrupted base hash", r.cfg.Index)
		}
		if svcs[r.cfg.Index].restores.Load() <= before[r.cfg.Index] {
			t.Errorf("backup %d was not repaired by a checkpoint", r.cfg.Index)
		}
	}
}

func snapOf(t *testing.T, svc service.Service) []byte {
	t.Helper()
	s, err := svc.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	return s
}
