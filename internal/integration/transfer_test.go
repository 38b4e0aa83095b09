package integration_test

import (
	"fmt"
	"path/filepath"
	"testing"
	"time"

	"fortress/internal/fortress"
	"fortress/internal/keyspace"
	"fortress/internal/proxy"
	"fortress/internal/replica"
	"fortress/internal/replica/pb"
	"fortress/internal/replica/store"
	"fortress/internal/service"
)

// TestReplyTableTransfer: wherever a rebuilt server gets its state from — a
// live donor's checkpoint or state transfer (mem), or its own disk after a
// blackout (wal) — the reply table comes with it, on both backends. After
// the rebuild a retry of an already-answered id gets the original bytes
// from the tier and executes nowhere, and the rebuilt servers answer an id
// from their own tables that only the shipped table could have told them.
func TestReplyTableTransfer(t *testing.T) {
	const (
		servers = 3
		k       = 6
		// The snapshot slot is rewritten at sequence 4 and the journal below
		// it dropped: old survives a blackout only inside the slot's exported
		// table, young also as a journal record.
		every = 4
		old   = "t2"
		young = "t5"
	)
	for _, backend := range []replica.Backend{replica.BackendPB, replica.BackendSMR} {
		for _, durable := range []bool{false, true} {
			name := backend.String() + "/mem"
			if durable {
				name = backend.String() + "/wal"
			}
			t.Run(name, func(t *testing.T) {
				space, err := keyspace.NewSpace(1 << 20)
				if err != nil {
					t.Fatal(err)
				}
				cfg := fortress.Config{
					Servers:           servers,
					Proxies:           2,
					Backend:           backend,
					Space:             space,
					Seed:              31,
					ServiceFactory:    func() service.Service { return service.NewCounter() },
					HeartbeatInterval: 10 * time.Millisecond,
					HeartbeatTimeout:  250 * time.Millisecond,
					ServerTimeout:     150 * time.Millisecond,
					CheckpointEvery:   every,
				}
				if durable {
					dir := t.TempDir()
					cfg.StoreFactory = func(server int) (store.Store, error) {
						return store.Open(store.WALConfig{
							Dir:          filepath.Join(dir, fmt.Sprintf("s%d", server)),
							SyncEvery:    1,
							DisableFsync: true,
						})
					}
				}
				sys, err := fortress.New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				defer sys.Stop()
				client, err := sys.Client("transfer-client", 2*time.Second)
				if err != nil {
					t.Fatal(err)
				}

				answers := make(map[string]string, k)
				for i := 0; i < k; i++ {
					id := fmt.Sprintf("t%d", i)
					answers[id] = string(invokeUntil(t, client, id, 10*time.Second))
				}
				waitAllExecuted(t, sys, k)

				// rebuilt lists the servers whose table must hold old by
				// transfer alone.
				var rebuilt []int
				if durable {
					// No donor survives a blackout: every server rebuilds
					// from its own snapshot slot and journal. A pb backup's
					// slot is the stream's checkpoint as received, which
					// carries no table (ROADMAP open items), so on pb only
					// the server that led, index 0, is held to old.
					rebuilt = []int{0, 1, 2}
					if backend == replica.BackendPB {
						rebuilt = []int{0}
					}
					if err := sys.Crash(fortress.All); err != nil {
						t.Fatal(err)
					}
					if err := sys.Restart(fortress.All); err != nil {
						t.Fatal(err)
					}
				} else {
					// Index 0 leads both backends from the start; the last
					// server is rebuilt empty and seeded by the live group.
					rebuilt = []int{servers - 1}
					if err := sys.Crash(fortress.Server(servers - 1)); err != nil {
						t.Fatal(err)
					}
					if err := sys.Restart(fortress.Server(servers - 1)); err != nil {
						t.Fatal(err)
					}
				}
				waitAllExecuted(t, sys, k)

				if got := string(invokeUntil(t, client, young, 10*time.Second)); got != answers[young] {
					t.Fatalf("retry through the tier = %q, first answer was %q", got, answers[young])
				}
				// The tier's answer may be any one server's: ask the rebuilt
				// ones for their own.
				for _, i := range rebuilt {
					resp, err := pb.Request(sys.Net(), "transfer-probe", fortress.ServerAddr(i), old, []byte("inc"), 2*time.Second)
					if err != nil {
						t.Fatalf("server %d does not answer %s from its table: %v", i, old, err)
					}
					if string(resp.Body) != answers[old] {
						t.Fatalf("server %d answers %s with %q, first answer was %q", i, old, resp.Body, answers[old])
					}
				}
				// A re-execution anywhere would reach the others as an
				// update or an order within a few heartbeats.
				time.Sleep(5 * cfg.HeartbeatInterval)
				for i, srv := range sys.Servers() {
					if got := srv.Executed(); got != k {
						t.Fatalf("server %d executed %d after the retry, want %d", i, got, k)
					}
				}
			})
		}
	}
}

// invokeUntil drives one request to success, retrying under the same id
// through failover and resync windows.
func invokeUntil(t *testing.T, client *proxy.Client, id string, patience time.Duration) []byte {
	t.Helper()
	deadline := time.Now().Add(patience)
	for {
		out, err := client.Invoke(id, []byte("inc"))
		if err == nil {
			return out
		}
		if time.Now().After(deadline) {
			t.Fatalf("invoke %s never succeeded: %v", id, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// waitAllExecuted blocks until every server's executed frontier is want.
func waitAllExecuted(t *testing.T, sys *fortress.System, want uint64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		var frontiers []uint64
		agreed := true
		for _, srv := range sys.Servers() {
			frontiers = append(frontiers, srv.Executed())
			agreed = agreed && srv.Executed() == want
		}
		if agreed {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("servers never converged to %d: frontiers %v", want, frontiers)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
