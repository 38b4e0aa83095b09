// Liveops: attach a runtime-metrics registry to a FORTRESS deployment,
// expose it over HTTP the way `fortress serve` does, and scrape it — the
// whole ops surface (Prometheus text, plain-text dashboard, trace rings)
// against a live system that just survived a crash/restart cycle.
//
// The production equivalent is the CLI:
//
//	fortress serve -addr 127.0.0.1:8080 &
//	curl http://127.0.0.1:8080/metrics      # Prometheus text exposition
//	curl http://127.0.0.1:8080/status.json  # JSON status + full snapshot
//	curl http://127.0.0.1:8080/             # plain-text dashboard
package main

import (
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"strings"
	"time"

	"fortress/internal/fortress"
	"fortress/internal/keyspace"
	"fortress/internal/metrics"
	"fortress/internal/service"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	space, err := keyspace.NewSpace(1 << 16)
	if err != nil {
		return err
	}

	// One registry observes the whole stack: pass it in Config and every
	// layer — replication core, PB/SMR engine, stores, proxies, the
	// simulated network — registers its instruments against it. Metrics
	// are observational only; the deployment behaves identically without
	// them.
	reg := metrics.New()
	sys, err := fortress.New(fortress.Config{
		Servers:           3,
		Proxies:           3,
		Space:             space,
		Seed:              42,
		ServiceFactory:    func() service.Service { return service.NewKV() },
		HeartbeatInterval: 10 * time.Millisecond,
		HeartbeatTimeout:  100 * time.Millisecond,
		ServerTimeout:     2 * time.Second,
		Metrics:           reg,
	})
	if err != nil {
		return err
	}
	defer sys.Stop()

	// Generate some traffic and some trouble so the instruments move:
	// writes and reads through the doubly-signed path, then a backup
	// crash/restart (catch-up shows up in the trace rings).
	client, err := sys.Client("liveops-client", 2*time.Second)
	if err != nil {
		return err
	}
	for i := 0; i < 8; i++ {
		if _, err := client.Invoke(fmt.Sprintf("w%d", i),
			[]byte(fmt.Sprintf(`{"op":"put","key":"k%d","value":"v%d"}`, i, i))); err != nil {
			return err
		}
	}
	if err := sys.Crash(fortress.Server(2)); err != nil {
		return err
	}
	if _, err := client.Invoke("w-during-outage",
		[]byte(`{"op":"put","key":"k0","value":"rewritten"}`)); err != nil {
		return err
	}
	if err := sys.Restart(fortress.Server(2)); err != nil {
		return err
	}
	time.Sleep(100 * time.Millisecond) // let the restarted backup resync

	// Serve the registry exactly like `fortress serve`: Prometheus text on
	// /metrics, the aligned dashboard on /.
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		reg.Snapshot().WritePrometheus(w)
	})
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		reg.Snapshot().WriteDashboard(w)
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer ln.Close()
	go func() { _ = http.Serve(ln, mux) }()

	// Scrape it back, as a Prometheus server (or curl) would.
	resp, err := http.Get("http://" + ln.Addr().String() + "/metrics")
	if err != nil {
		return err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	fmt.Println("scraped /metrics; a few families:")
	for _, line := range strings.Split(string(body), "\n") {
		if strings.HasPrefix(line, "proxy_requests_total") ||
			strings.HasPrefix(line, "fortress_server_fault_") ||
			strings.HasPrefix(line, "pb_updates_checkpoint_total") {
			fmt.Println(" ", line)
		}
	}

	// The dashboard's trace tails show the crash/restart/resync story the
	// counters only summarize.
	fmt.Println("\ndashboard:")
	reg.Snapshot().WriteDashboard(os.Stdout)
	return nil
}
