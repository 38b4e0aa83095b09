package fortress

import (
	"fmt"
	"testing"
	"time"

	"fortress/internal/replica"
	"fortress/internal/sig"
)

// TestCryptoBudgetPerRequest pins what a fault-free request costs on the
// 3-server/3-proxy deployment: every server signs its reply once however
// many proxies ask, every proxy verifies one reply and over-signs it, and
// the client verifies the two signatures of one reply: 6 signatures and 5
// verifies, where signing per asker and verifying every reply cost 12 and 15.
func TestCryptoBudgetPerRequest(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mutate func(*Config)
	}{
		{"pb", nil},
		{"smr-leases", func(c *Config) { c.Backend = replica.BackendSMR; c.Leases = true }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sys := build(t, 1<<16, tc.mutate)
			client, err := sys.Client("budget", srvTimeout)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := client.Invoke("warm", []byte(`{"op":"put","key":"k","value":"v"}`)); err != nil {
				t.Fatal(err)
			}
			if sys.cfg.Leases {
				waitLeases(t, sys)
			}
			settle(t)

			const n = 200
			signs, verifies := sig.Signs(), sig.Verifies()
			for i := 0; i < n; i++ {
				// Writes and reads alternate; with leases on, the reads take
				// the lease path. They read a key the writes leave alone: the
				// client moves on at the first good reply, so a slower
				// proxy's copy of a read can reach a server after the next
				// write, and a different answer is a different message to sign.
				if i%2 == 0 {
					_, err = client.Invoke(fmt.Sprintf("w%d", i), []byte(fmt.Sprintf(`{"op":"put","key":"w","value":"%d"}`, i)))
				} else {
					_, err = client.InvokeRead(fmt.Sprintf("r%d", i), []byte(`{"op":"get","key":"k"}`))
				}
				if err != nil {
					t.Fatal(err)
				}
			}
			settle(t)
			if got := sig.Verifies() - verifies; got != 5*n {
				t.Errorf("%d requests cost %d verifies, want exactly %d (3 proxies × 1 + client × 2 each)", n, got, 5*n)
			}
			if got := sig.Signs() - signs; got < 6*n || float64(got) > 6.6*n {
				t.Errorf("%d requests cost %d signatures, want %d (3 servers + 3 proxies each) to %d", n, got, 6*n, int(6.6*n))
			}
		})
	}
}

func waitLeases(t *testing.T, sys *System) {
	t.Helper()
	deadline := time.Now().Add(srvTimeout)
	for _, s := range sys.Servers() {
		lr, ok := s.(replica.LeaseReader)
		if !ok {
			t.Fatalf("server %T cannot report its lease", s)
		}
		for !lr.LeaseValid() {
			if time.Now().After(deadline) {
				t.Fatal("replicas never all held a lease")
			}
			time.Sleep(time.Millisecond)
		}
	}
}

// settle waits until the process-wide signature counters stop moving: the
// client returns at the first good reply, while the slower proxies are
// still finishing the same request.
func settle(t *testing.T) {
	t.Helper()
	deadline := time.Now().Add(srvTimeout)
	for {
		s, v := sig.Signs(), sig.Verifies()
		time.Sleep(20 * time.Millisecond)
		if s == sig.Signs() && v == sig.Verifies() {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("signature counters never settled")
		}
	}
}
