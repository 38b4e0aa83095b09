package fortress

import (
	"slices"
	"testing"

	"fortress/internal/metrics"
	"fortress/internal/replica"
)

// lifecycleCounters are the six fortress-layer counters, all Stable class.
var lifecycleCounters = []string{
	"fortress_server_fault_crashes_total",
	"fortress_server_fault_restarts_total",
	"fortress_proxy_fault_crashes_total",
	"fortress_proxy_fault_restarts_total",
	"fortress_power_failures_total",
	"fortress_rerandomize_total",
}

// lifecycleKinds returns the node-lifecycle trace kinds recorded on node's
// ring, oldest first; engine events sharing the ring are skipped.
func lifecycleKinds(reg *metrics.Registry, node string) []string {
	var out []string
	for _, e := range reg.Snapshot().Traces[node] {
		switch e.Kind {
		case metrics.KindCrash, metrics.KindRestart, metrics.KindPowerFail:
			out = append(out, e.Kind)
		}
	}
	return out
}

// TestLifecycleContract pins what a fault crash and restart do for each
// target: the six lifecycle counters, the trace kind each node's ring
// records, that restarting a live node leaves it in place, and the errors
// for a missing index and for a stopped system.
func TestLifecycleContract(t *testing.T) {
	const servers, proxies = 3, 2 // metricsTestSystem's shape
	var all []string
	for i := 0; i < servers; i++ {
		all = append(all, ServerAddr(i))
	}
	for i := 0; i < proxies; i++ {
		all = append(all, ProxyAddr(i))
	}
	cases := []struct {
		name           string
		crash, restart func(*System) error
		// outOfRange crashes and restarts indices the tier does not have.
		outOfRange []func(*System) error
		// nodes are the addresses whose rings record the lifecycle, each
		// first with kind, then with a restart.
		nodes                    []string
		kind                     string
		afterCrash, afterRestart map[string]uint64
	}{
		{
			name:    "server",
			crash:   func(s *System) error { return s.Crash(Server(1)) },
			restart: func(s *System) error { return s.Restart(Server(1)) },
			outOfRange: []func(*System) error{
				func(s *System) error { return s.Crash(Server(servers)) },
				func(s *System) error { return s.Crash(Server(-1)) },
				func(s *System) error { return s.Restart(Server(servers)) },
				func(s *System) error { return s.Restart(Server(-1)) },
			},
			nodes:      []string{ServerAddr(1)},
			kind:       metrics.KindCrash,
			afterCrash: map[string]uint64{"fortress_server_fault_crashes_total": 1},
			afterRestart: map[string]uint64{
				"fortress_server_fault_crashes_total":  1,
				"fortress_server_fault_restarts_total": 1,
			},
		},
		{
			name:    "proxy",
			crash:   func(s *System) error { return s.Crash(Proxy(1)) },
			restart: func(s *System) error { return s.Restart(Proxy(1)) },
			outOfRange: []func(*System) error{
				func(s *System) error { return s.Crash(Proxy(proxies)) },
				func(s *System) error { return s.Crash(Proxy(-1)) },
				func(s *System) error { return s.Restart(Proxy(proxies)) },
				func(s *System) error { return s.Restart(Proxy(-1)) },
			},
			nodes:      []string{ProxyAddr(1)},
			kind:       metrics.KindCrash,
			afterCrash: map[string]uint64{"fortress_proxy_fault_crashes_total": 1},
			afterRestart: map[string]uint64{
				"fortress_proxy_fault_crashes_total":  1,
				"fortress_proxy_fault_restarts_total": 1,
			},
		},
		{
			name:    "all",
			crash:   func(s *System) error { return s.Crash(All) },
			restart: func(s *System) error { return s.Restart(All) },
			nodes:   all,
			kind:    metrics.KindPowerFail,
			afterCrash: map[string]uint64{
				"fortress_server_fault_crashes_total": servers,
				"fortress_proxy_fault_crashes_total":  proxies,
				"fortress_power_failures_total":       1,
			},
			afterRestart: map[string]uint64{
				"fortress_server_fault_crashes_total":  servers,
				"fortress_proxy_fault_crashes_total":   proxies,
				"fortress_power_failures_total":        1,
				"fortress_server_fault_restarts_total": servers,
				"fortress_proxy_fault_restarts_total":  proxies,
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			reg := metrics.New()
			sys := metricsTestSystem(t, replica.BackendPB, reg, "")

			counters := func(stage string, want map[string]uint64) {
				t.Helper()
				got := reg.Snapshot().Counters
				for _, name := range lifecycleCounters {
					if got[name] != want[name] {
						t.Errorf("%s: %s = %d, want %d", stage, name, got[name], want[name])
					}
				}
			}
			traces := func(stage string, want ...string) {
				t.Helper()
				for _, node := range all {
					var w []string
					if slices.Contains(tc.nodes, node) {
						w = want
					}
					if got := lifecycleKinds(reg, node); !slices.Equal(got, w) {
						t.Errorf("%s: %s ring records %v, want %v", stage, node, got, w)
					}
				}
			}
			// restartIsNoop restarts with nothing down: no error, no counter,
			// no trace, and every node is still the same object.
			restartIsNoop := func(stage string, want map[string]uint64, kinds ...string) {
				t.Helper()
				before, beforeProxies := sys.Servers(), sys.Proxies()
				if err := tc.restart(sys); err != nil {
					t.Fatalf("%s: restart of a live node: %v", stage, err)
				}
				if !slices.Equal(sys.Servers(), before) || !slices.Equal(sys.Proxies(), beforeProxies) {
					t.Errorf("%s: restart of a live node replaced it", stage)
				}
				counters(stage, want)
				traces(stage, kinds...)
			}

			restartIsNoop("restart before any crash", nil)

			if err := tc.crash(sys); err != nil {
				t.Fatal(err)
			}
			counters("after crash", tc.afterCrash)
			traces("after crash", tc.kind)

			if err := tc.restart(sys); err != nil {
				t.Fatal(err)
			}
			counters("after restart", tc.afterRestart)
			traces("after restart", tc.kind, metrics.KindRestart)
			if st := sys.Status(); st.ServersDown != 0 || st.ProxiesDown != 0 {
				t.Errorf("after restart: %d servers and %d proxies still down", st.ServersDown, st.ProxiesDown)
			}

			restartIsNoop("second restart", tc.afterRestart, tc.kind, metrics.KindRestart)

			for i, call := range tc.outOfRange {
				if err := call(sys); err == nil {
					t.Errorf("out-of-range call %d accepted", i)
				}
			}
			counters("after out-of-range calls", tc.afterRestart)

			sys.Stop()
			if err := tc.crash(sys); err == nil {
				t.Error("crash on a stopped system accepted")
			}
			if err := tc.restart(sys); err == nil {
				t.Error("restart on a stopped system accepted")
			}
			counters("after stop", tc.afterRestart)
		})
	}
}
