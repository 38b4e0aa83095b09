package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"fortress/internal/fortress"
	"fortress/internal/keyspace"
	"fortress/internal/metrics"
	"fortress/internal/replica"
	"fortress/internal/service"
)

// runServe deploys a live in-process FORTRESS system, drives a light
// background client workload through it, and exposes its metrics registry
// over HTTP: a plain-text dashboard on /, a JSON status document on
// /status.json and the Prometheus text exposition format on /metrics. It
// serves until SIGINT/SIGTERM, then shuts the HTTP server and the system
// down cleanly.
//
// With -groups N > 1 the keyspace is consistent-hash sharded across N
// independent replica groups and the dashboard grows per-group series:
//
//	proxy_shard_requests_total{node=...,group="g"}  keyed requests each
//	                                                proxy routed to group g
//	campaign_shard_probes_total{group="g"}          per-shard campaign
//	campaign_shard_available_steps_total{group="g"} probe outcomes (sweeps)
//
// Alongside them rides pb_updates_delta_fast_total{node=...}: primary
// executes that took the service's own delta instead of
// Snapshot+DiffSnapshot.
func runServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:8080", "HTTP listen address for the status endpoints")
	servers := fs.Int("servers", 3, "per-group server count n_s")
	proxies := fs.Int("proxies", 3, "proxy count n_p")
	groups := fs.Int("groups", 1,
		"replica-group count: consistent-hash the request keyspace across this many independent replica groups behind the shared proxy tier (1 = classic single-group fortress)")
	backendName := fs.String("backend", "pb", "server-tier replication backend (pb, smr)")
	chi := fs.Uint64("chi", 1<<16, "key space size χ")
	seed := fs.Uint64("seed", uint64(time.Now().UnixNano()), "deployment seed")
	leases := fs.Bool("leases", false,
		"deploy the server tier with heartbeat-bounded read leases (smr backend only; pb ignores it)")
	workload := fs.Duration("workload-every", 25*time.Millisecond,
		"background client workload cadence: alternating keyed writes and lease-aware reads through the doubly-signed path (0 = no workload)")
	rerand := fs.Duration("rerandomize-every", 0,
		"proactive re-randomization cadence: rotate every key assignment this often (0 = never)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *servers <= 0 || *proxies <= 0 {
		return errors.New("-servers and -proxies must be at least 1")
	}
	if *groups < 1 {
		return fmt.Errorf("-groups must be at least 1, got %d", *groups)
	}
	backend, err := replica.ParseBackend(*backendName)
	if err != nil {
		return fmt.Errorf("-backend: %w", err)
	}
	space, err := keyspace.NewSpace(*chi)
	if err != nil {
		return err
	}

	reg := metrics.New()
	sys, err := fortress.New(fortress.Config{
		Servers:           *servers,
		Proxies:           *proxies,
		Groups:            *groups,
		Backend:           backend,
		Space:             space,
		Seed:              *seed,
		ServiceFactory:    func() service.Service { return service.NewKV() },
		HeartbeatInterval: 10 * time.Millisecond,
		HeartbeatTimeout:  100 * time.Millisecond,
		ServerTimeout:     2 * time.Second,
		Leases:            *leases,
		Metrics:           reg,
	})
	if err != nil {
		return err
	}
	defer sys.Stop()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *workload > 0 {
		go serveWorkload(ctx, sys, *workload)
	}
	if *rerand > 0 {
		go serveRerandomize(ctx, sys, *rerand)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: newServeMux(sys)}
	fmt.Printf("fortress serve: %d group(s) × %d %s servers, %d proxies, χ=%d — dashboard http://%s/ metrics http://%s/metrics\n",
		*groups, *servers, backend, *proxies, *chi, ln.Addr(), ln.Addr())
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case <-ctx.Done():
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		_ = srv.Shutdown(shutdownCtx)
		fmt.Println("fortress serve: shutting down")
		return nil
	case err := <-errc:
		if errors.Is(err, http.ErrServerClosed) {
			return nil
		}
		return err
	}
}

// serveWorkload issues one client request per tick — alternating keyed
// writes and reads over a small key set — so a served system has live
// traffic behind its dashboard. Clients are re-resolved every request to
// track re-randomization epochs; individual request failures (mid-epoch
// races, crashed nodes) are expected and skipped.
func serveWorkload(ctx context.Context, sys *fortress.System, every time.Duration) {
	t := time.NewTicker(every)
	defer t.Stop()
	for i := uint64(0); ; i++ {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
		client, err := sys.Client(fmt.Sprintf("serve-client-%d", i%4), time.Second)
		if err != nil {
			continue
		}
		key := fmt.Sprintf("k%d", i%16)
		if i%2 == 0 {
			_, _ = client.Invoke(fmt.Sprintf("w%d", i),
				[]byte(fmt.Sprintf(`{"op":"put","key":%q,"value":"v%d"}`, key, i)))
		} else {
			_, _ = client.InvokeRead(fmt.Sprintf("r%d", i),
				[]byte(fmt.Sprintf(`{"op":"get","key":%q}`, key)))
		}
	}
}

// serveRerandomize rotates the deployment's key assignments on a timer —
// the proactive-obfuscation regime, observable live through the
// fortress_rerandomize_total counter and per-node trace rings.
func serveRerandomize(ctx context.Context, sys *fortress.System, every time.Duration) {
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			_ = sys.Rerandomize()
		}
	}
}

// serveStatus is the JSON document /status.json serves.
type serveStatus struct {
	Status  fortress.Status  `json:"status"`
	Metrics metrics.Snapshot `json:"metrics"`
}

// newServeMux builds the serve subcommand's HTTP handler against a live
// system: "/" renders the plain-text dashboard, "/status.json" the JSON
// status document, "/metrics" the Prometheus text exposition.
func newServeMux(sys *fortress.System) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		st := sys.Status()
		fmt.Fprintf(w, "fortress status — epoch %d\n", st.Epoch)
		if st.Groups > 1 {
			fmt.Fprintf(w, "replica groups: %d (consistent-hash sharded keyspace)\n", st.Groups)
		}
		fmt.Fprintf(w, "servers: %d compromised, %d crashed, %d down\n",
			st.ServersCompromised, st.ServersCrashed, st.ServersDown)
		fmt.Fprintf(w, "proxies: %d compromised, %d crashed, %d down\n",
			st.ProxiesCompromised, st.ProxiesCrashed, st.ProxiesDown)
		fmt.Fprintf(w, "compromised: %v\n\n", st.Compromised)
		sys.Metrics().Snapshot().WriteDashboard(w)
	})
	mux.HandleFunc("/status.json", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(serveStatus{Status: sys.Status(), Metrics: sys.Metrics().Snapshot()})
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		sys.Metrics().Snapshot().WritePrometheus(w)
	})
	return mux
}
