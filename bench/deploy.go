package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"fortress/internal/fortress"
	"fortress/internal/keyspace"
	"fortress/internal/metrics"
	"fortress/internal/proxy"
	"fortress/internal/replica"
	"fortress/internal/replica/pb"
	"fortress/internal/replica/smr"
	"fortress/internal/replica/store"
	"fortress/internal/service"
)

// deployOpts are the ways a deployment departs from the workload's common
// one: the traced run adds a registry and loads through one client, the
// single-node baseline shrinks both tiers to one node.
type deployOpts struct {
	nodes   int // servers, and proxies
	clients int
	metrics *metrics.Registry
}

// deployment is one live system plus the clients that load it.
type deployment struct {
	w       workload
	sys     *fortress.System
	clients []*client
	walDir  string // parent of the per-server WAL directories; empty without a WAL
	setup   time.Duration
}

// deploy stands the workload's system up, preloads every key and, with
// leases on, waits until every replica holds one. The deployment's setup
// field times all of that; the workload's link delay starts after it.
func deploy(w workload, run options, o deployOpts) (*deployment, error) {
	start := time.Now()
	space, err := keyspace.NewSpace(24)
	if err != nil {
		return nil, err
	}
	cfg := fortress.Config{
		Servers:           o.nodes,
		Proxies:           o.nodes,
		Backend:           w.backend,
		Space:             space,
		Seed:              run.seed,
		ServiceFactory:    func() service.Service { return service.NewKV() },
		HeartbeatInterval: 5 * time.Millisecond,
		HeartbeatTimeout:  400 * time.Millisecond,
		ServerTimeout:     2 * time.Second,
		Leases:            w.leases,
		Metrics:           o.metrics,
	}
	d := &deployment{w: w}
	if w.wal {
		if err := os.MkdirAll(run.tmp, 0o755); err != nil {
			return nil, err
		}
		if d.walDir, err = os.MkdirTemp(run.tmp, "wal-"); err != nil {
			return nil, err
		}
		cfg.StoreFactory = func(i int) (store.Store, error) {
			return store.Open(walConfig(filepath.Join(d.walDir, fmt.Sprint(i)), o.metrics))
		}
	}
	if d.sys, err = fortress.New(cfg); err != nil {
		d.stop()
		return nil, err
	}
	if err := d.preload(run.seed, o.clients); err != nil {
		d.stop()
		return nil, err
	}
	d.setup = time.Since(start)
	d.sys.Net().SetLinkDelay(w.linkDelay)
	return d, nil
}

func (d *deployment) preload(seed uint64, clients int) error {
	var wg sync.WaitGroup
	errs := make([]error, clients)
	for c := 0; c < clients; c++ {
		cl, err := d.sys.Client(fmt.Sprintf("bench-c%d", c), d.w.clientTimeout)
		if err != nil {
			return err
		}
		d.clients = append(d.clients, &client{cl: cl, state: make(map[int]*keyState)})
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for _, rq := range preloadInputs(d.w, seed, c, clients) {
				if !d.clients[c].do(rq) {
					errs[c] = fmt.Errorf("preload: %w", d.clients[c].lastErr)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return err
	}
	if !d.w.leases {
		return nil
	}
	return waitFor(5*time.Second, "every replica to hold a lease", func() bool {
		for _, s := range d.sys.Servers() {
			if lr, ok := s.(replica.LeaseReader); !ok || !lr.LeaseValid() {
				return false
			}
		}
		return true
	})
}

// walConfig is the WAL configuration of the pb_wal_fsync workload, shared
// by the servers' stores and the bench-owned WAL the traced run appends to.
func walConfig(dir string, reg *metrics.Registry) store.WALConfig {
	return store.WALConfig{Dir: dir, SyncEvery: 1, Metrics: reg}
}

func (d *deployment) stop() {
	if d.sys != nil {
		d.sys.Stop()
	}
	if d.walDir != "" {
		os.RemoveAll(d.walDir)
	}
}

// errIf is the error the format describes when cond holds, and nil otherwise.
func errIf(cond bool, format string, args ...any) error {
	if !cond {
		return nil
	}
	return fmt.Errorf(format, args...)
}

// waitFor polls cond every millisecond until it holds or limit passes.
func waitFor(limit time.Duration, what string, cond func() bool) error {
	deadline := time.Now().Add(limit)
	for !cond() {
		if time.Now().After(deadline) {
			return fmt.Errorf("timed out after %v waiting for %s", limit, what)
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

// leader returns the index of the live server that executes requests
// first: the PB primary or the SMR sequencer. down lists servers the
// caller has crashed, whose last role must not be believed.
func (d *deployment) leader(down map[int]bool) (int, bool) {
	for i, s := range d.sys.Servers() {
		if down[i] {
			continue
		}
		switch r := s.(type) {
		case *pb.Replica:
			if r.Role() == pb.RolePrimary {
				return i, true
			}
		case *smr.Replica:
			if r.IsLeader() {
				return i, true
			}
		}
	}
	return 0, false
}

// keyState is what the owning client knows about one key: the last value
// the system acknowledged, and the values of puts issued since whose
// outcome the client never learned. A correct read returns one of them.
type keyState struct {
	acked string
	maybe []string
}

func (k *keyState) allows(v string) bool {
	if v == k.acked {
		return true
	}
	for _, m := range k.maybe {
		if v == m {
			return true
		}
	}
	return false
}

// client is one load-generating client, used by one goroutine at a time.
type client struct {
	cl    *proxy.Client
	state map[int]*keyState
	// wrong counts responses that contradict the client's own writes;
	// lastErr is the most recent failure of either kind.
	wrong   int
	lastErr error
}

// do sends one request and checks the response against the client's own
// writes. It reports whether the request completed with a correct answer.
func (c *client) do(rq request) bool {
	ks := c.state[rq.key]
	if ks == nil {
		ks = &keyState{}
		c.state[rq.key] = ks
	}
	var raw []byte
	var err error
	if rq.read {
		raw, err = c.cl.InvokeRead(rq.id, rq.body)
	} else {
		raw, err = c.cl.Invoke(rq.id, rq.body)
	}
	if err != nil {
		if !rq.read {
			ks.maybe = append(ks.maybe, rq.value)
		}
		c.lastErr = err
		return false
	}
	var resp service.KVResponse
	switch err := json.Unmarshal(raw, &resp); {
	case err != nil:
		c.lastErr = fmt.Errorf("%s: undecodable response %q", rq.id, raw)
	case rq.read && (!resp.Found || !ks.allows(resp.Value)):
		c.lastErr = fmt.Errorf("%s: read of %s returned a value its only writer never left there", rq.id, keyName(rq.key))
	case !rq.read && resp.Value != rq.value:
		c.lastErr = fmt.Errorf("%s: put acknowledged with another value", rq.id)
	default:
		if !rq.read {
			ks.acked, ks.maybe = rq.value, nil
		}
		return true
	}
	c.wrong++
	return false
}
