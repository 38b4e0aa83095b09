// Package main_test holds the benchmark harness: one testing.B benchmark
// per evaluation artifact of the paper (see DESIGN.md §2 for the experiment
// index). Each benchmark regenerates its artifact end-to-end — workload,
// sweep, baselines — so `go test -bench .` reproduces every figure's data.
//
// Reported metrics: ns/op for the full artifact regeneration, plus custom
// ReportMetric series for the headline lifetimes so shapes are visible in
// bench output.
package main_test

import (
	"fmt"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fortress/internal/attack"
	"fortress/internal/experiments"
	"fortress/internal/faults"
	"fortress/internal/fortress"
	"fortress/internal/keyspace"
	"fortress/internal/memlayout"
	"fortress/internal/model"
	"fortress/internal/netsim"
	"fortress/internal/proxy"
	"fortress/internal/replica"
	"fortress/internal/replica/core"
	"fortress/internal/replica/pb"
	"fortress/internal/replica/smr"
	"fortress/internal/replica/store"
	"fortress/internal/service"
	"fortress/internal/sig"
	"fortress/internal/sim"
	"fortress/internal/workload"
	"fortress/internal/xrand"
)

// benchTrials keeps Monte-Carlo budgets benchmark-sized; the CLI uses
// larger defaults for publication-quality confidence intervals.
const benchTrials = 20000

// workerVariants pairs each Monte-Carlo benchmark with a serial and a
// parallel sub-benchmark so the speedup of the sharded engine is a tracked
// metric (see scripts/bench.sh, which records serial/parallel ratios). The
// engine guarantees both variants produce bit-identical estimates.
var workerVariants = []struct {
	name    string
	workers int
}{
	{"serial", 1},
	{"parallel", runtime.GOMAXPROCS(0)},
}

func benchConfig(workers int) experiments.Config {
	return experiments.Config{Trials: benchTrials, Seed: 1, LaunchPadFraction: -1, Workers: workers}
}

// BenchmarkFigure1 regenerates E1: the Figure 1 EL-vs-α comparison of
// S0SO, S1SO, S1PO, S2PO and S0PO (analytic + Monte-Carlo cross-check).
func BenchmarkFigure1(b *testing.B) {
	for _, v := range workerVariants {
		b.Run(v.name, func(b *testing.B) {
			cfg := benchConfig(v.workers)
			var results []experiments.Result
			for i := 0; i < b.N; i++ {
				var err error
				results, err = experiments.Figure1(cfg, nil)
				if err != nil {
					b.Fatal(err)
				}
			}
			// Surface the α=0.001 column as metrics.
			for _, r := range results {
				if r.Alpha == 0.001 {
					b.ReportMetric(r.EL(), "EL("+r.System+")@a=1e-3")
				}
			}
		})
	}
}

// BenchmarkFigure2 regenerates E2: EL of S2PO as κ varies.
func BenchmarkFigure2(b *testing.B) {
	for _, v := range workerVariants {
		b.Run(v.name, func(b *testing.B) {
			cfg := benchConfig(v.workers)
			var results []experiments.Result
			for i := 0; i < b.N; i++ {
				var err error
				results, err = experiments.Figure2(cfg, []float64{0.001}, nil)
				if err != nil {
					b.Fatal(err)
				}
			}
			for _, r := range results {
				switch r.Kappa {
				case 0, 0.5, 1:
					b.ReportMetric(r.EL(), fmt.Sprintf("EL(S2PO)@k=%g", r.Kappa))
				}
			}
		})
	}
}

// BenchmarkOrderingChain regenerates E3: the §6 summary ordering
// S0PO → S2PO → S1PO → S1SO → S0SO.
func BenchmarkOrderingChain(b *testing.B) {
	for _, v := range workerVariants {
		b.Run(v.name, func(b *testing.B) {
			cfg := benchConfig(v.workers)
			var rep experiments.OrderingReport
			for i := 0; i < b.N; i++ {
				var err error
				rep, err = experiments.OrderingChain(cfg, 0.001, 0.5)
				if err != nil {
					b.Fatal(err)
				}
				if !rep.Holds {
					b.Fatalf("ordering chain broken: %s", rep.Detail)
				}
			}
			for i, name := range rep.Order {
				b.ReportMetric(rep.ELs[i], "EL("+name+")")
			}
		})
	}
}

// BenchmarkFortify regenerates E4: fortified PB under SO vs proactively
// recovered SMR, the background [7] claim the paper builds on.
func BenchmarkFortify(b *testing.B) {
	for _, v := range workerVariants {
		b.Run(v.name, func(b *testing.B) {
			cfg := benchConfig(v.workers)
			var rows []experiments.FortifyComparison
			for i := 0; i < b.N; i++ {
				var err error
				rows, err = experiments.Fortify(cfg, 0.001, []float64{0, 0.5, 1})
				if err != nil {
					b.Fatal(err)
				}
			}
			for _, r := range rows {
				b.ReportMetric(r.S2SO, fmt.Sprintf("EL(S2SO)@k=%g", r.Kappa))
			}
			b.ReportMetric(rows[0].S0SO, "EL(S0SO)")
		})
	}
}

// BenchmarkEstimateSOParallel isolates the engine itself (no sweep logic):
// one 200k-trial S2SO estimate, serial vs sharded-parallel.
func BenchmarkEstimateSOParallel(b *testing.B) {
	sys := model.S2SO{P: model.DefaultParams(0.001, 0.5)}
	for _, v := range workerVariants {
		b.Run(v.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				est, err := sim.EstimateSO(sys, 200000, xrand.New(9), sim.Config{Workers: v.workers})
				if err != nil {
					b.Fatal(err)
				}
				if est.Trials != 200000 {
					b.Fatalf("trials = %d", est.Trials)
				}
			}
		})
	}
}

// BenchmarkDerandomization regenerates E5: phase-1 probe cost of the
// [10, 12] de-randomization attack against a directly exposed forking
// server — the baseline FORTRESS removes.
func BenchmarkDerandomization(b *testing.B) {
	space, err := keyspace.NewSpace(1 << 12)
	if err != nil {
		b.Fatal(err)
	}
	rng := xrand.New(1)
	var totalProbes uint64
	for i := 0; i < b.N; i++ {
		daemon := memlayout.NewForkingDaemon(space, rng.Split())
		res, err := attack.Derandomize(space, daemon, rng.Split())
		if err != nil {
			b.Fatal(err)
		}
		if !res.Compromised {
			b.Fatal("attack failed")
		}
		totalProbes += res.ProbesUsed
	}
	b.ReportMetric(float64(totalProbes)/float64(b.N), "probes/compromise")
}

// BenchmarkCampaignSOvsPO regenerates the executable-stack half of E5: a
// full campaign against a live FORTRESS deployment, once per obfuscation
// regime, on a small key space.
func BenchmarkCampaignSOvsPO(b *testing.B) {
	for _, po := range []bool{false, true} {
		name := "SO"
		if po {
			name = "PO"
		}
		b.Run(name, func(b *testing.B) {
			var totalSteps uint64
			for i := 0; i < b.N; i++ {
				space, err := keyspace.NewSpace(24)
				if err != nil {
					b.Fatal(err)
				}
				sys, err := fortress.New(fortress.Config{
					Servers:           3,
					Proxies:           3,
					Space:             space,
					Seed:              uint64(i) + 1,
					ServiceFactory:    func() service.Service { return service.NewKV() },
					HeartbeatInterval: 5 * time.Millisecond,
					HeartbeatTimeout:  50 * time.Millisecond,
					ServerTimeout:     time.Second,
				})
				if err != nil {
					b.Fatal(err)
				}
				res, err := attack.Campaign(sys, space, attack.CampaignConfig{
					OmegaDirect:   2,
					OmegaIndirect: 1,
					MaxSteps:      60,
					Rerandomize:   po,
				}, xrand.New(uint64(i)+100))
				sys.Stop()
				if err != nil {
					b.Fatal(err)
				}
				totalSteps += res.StepsElapsed
			}
			b.ReportMetric(float64(totalSteps)/float64(b.N), "lifetime-steps")
		})
	}
}

// campaignVariants pairs the campaign-series benchmark with a serial and a
// parallel sub-benchmark, like workerVariants does for the Monte-Carlo
// sweeps — scripts/bench.sh records the serial/parallel ratio. Unlike the
// CPU-bound trial shards, campaign repetitions are latency-bound (heartbeat,
// recovery and teardown waits inside each live deployment), so the parallel
// variant uses a fixed worker count above GOMAXPROCS: overlapping those
// waits shows a real speedup even on a single-core machine.
var campaignVariants = []struct {
	name    string
	workers int
}{
	{"serial", 1},
	{"parallel", 4},
}

// BenchmarkCampaignSeries measures live-campaign throughput end-to-end: a
// series of full de-randomization campaigns, each against its own FORTRESS
// deployment on its own simulated network, sharded across workers. Both
// variants produce bit-identical merged results (see
// attack.TestCampaignSeriesBitIdenticalAcrossWorkers).
func BenchmarkCampaignSeries(b *testing.B) {
	for _, v := range campaignVariants {
		b.Run(v.name, func(b *testing.B) {
			var series attack.SeriesResult
			for i := 0; i < b.N; i++ {
				space, err := keyspace.NewSpace(24)
				if err != nil {
					b.Fatal(err)
				}
				tmpl := fortress.Config{
					Servers:           3,
					Proxies:           3,
					ServiceFactory:    func() service.Service { return service.NewKV() },
					HeartbeatInterval: 5 * time.Millisecond,
					HeartbeatTimeout:  50 * time.Millisecond,
					ServerTimeout:     time.Second,
				}
				// Fixed seed: both variants run the identical repetition
				// set (and, per the determinism contract, produce the
				// identical merged result), so the serial/parallel ratio
				// in BENCH_<date>.json compares equal work.
				series, err = attack.CampaignSeries(tmpl, space, attack.SeriesConfig{
					Campaign: attack.CampaignConfig{
						OmegaDirect:   2,
						OmegaIndirect: 1,
						MaxSteps:      60,
					},
					Workers: v.workers,
				}, 4, xrand.New(100))
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(series.Lifetime.Mean, "lifetime-steps")
			b.ReportMetric(float64(series.Compromised)/float64(series.Reps), "compromise-rate")
		})
	}
}

// BenchmarkFaultCampaignSeries measures live-campaign throughput under an
// active fault schedule: the rolling-partition preset replayed by a
// per-repetition injector, with per-step availability measurement on — the
// degraded-network counterpart of BenchmarkCampaignSeries. The benchmark
// runs once per replication backend, so BENCH_<date>.json tracks PB-vs-SMR
// fault-campaign cost and availability side by side. All variants produce
// bit-identical merged results per backend (see
// attack.TestCampaignSeriesWithInjectorBitIdentical and
// experiments.TestFaultSweepSMRBitIdenticalAcrossWorkers).
func BenchmarkFaultCampaignSeries(b *testing.B) {
	preset, err := faults.PresetByName("rolling-partition")
	if err != nil {
		b.Fatal(err)
	}
	const (
		servers  = 3
		proxies  = 3
		maxSteps = 30
	)
	sched := preset.Build(faults.Shape{Servers: servers, Proxies: proxies}, maxSteps)
	for _, backend := range []replica.Backend{replica.BackendPB, replica.BackendSMR} {
		for _, v := range campaignVariants {
			b.Run(backend.String()+"/"+v.name, func(b *testing.B) {
				var series attack.SeriesResult
				for i := 0; i < b.N; i++ {
					space, err := keyspace.NewSpace(24)
					if err != nil {
						b.Fatal(err)
					}
					tmpl := fortress.Config{
						Servers:           servers,
						Proxies:           proxies,
						Backend:           backend,
						ServiceFactory:    func() service.Service { return service.NewKV() },
						HeartbeatInterval: 5 * time.Millisecond,
						HeartbeatTimeout:  400 * time.Millisecond,
						ServerTimeout:     150 * time.Millisecond,
					}
					series, err = attack.CampaignSeries(tmpl, space, attack.SeriesConfig{
						Campaign: attack.CampaignConfig{
							OmegaDirect:         2,
							OmegaIndirect:       1,
							MaxSteps:            maxSteps,
							MeasureAvailability: true,
							HealthTimeout:       600 * time.Millisecond,
							ProbeTimeout:        2 * time.Second,
						},
						Workers: v.workers,
						MakeInjector: func(rep int, sys *fortress.System, rng *xrand.RNG) attack.StepInjector {
							inj, err := faults.NewInjector(sched, sys, rng)
							if err != nil {
								b.Fatal(err)
							}
							return inj
						},
					}, 4, xrand.New(100))
					if err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(series.Lifetime.Mean, "lifetime-steps")
				b.ReportMetric(series.Availability.Mean, "availability")
			})
		}
	}
}

// BenchmarkFaultCampaignPersistence prices durability under the headline
// blackout scenario: the whole-cluster power-loss preset replayed against
// the in-memory store (data gone, zero write cost) and against per-server
// WALs at two fsync cadences (real fsyncs — the cadence is the durability
// knob a power failure, Crash(fortress.All), makes measurable). ns/op
// tracks what the persistent write path adds to a live campaign; the
// campaign-measured availability rides along per variant. The recovery
// semantics themselves — WAL tiers reconverging with pre-blackout data,
// the in-memory tier re-forming empty — are pinned by the blackout tests
// in internal/faults.
func BenchmarkFaultCampaignPersistence(b *testing.B) {
	preset, err := faults.PresetByName("blackout")
	if err != nil {
		b.Fatal(err)
	}
	const (
		servers  = 3
		proxies  = 3
		maxSteps = 20
		reps     = 2
	)
	sched := preset.Build(faults.Shape{Servers: servers, Proxies: proxies}, maxSteps)
	for _, v := range []struct {
		name      string
		wal       bool
		syncEvery int
	}{
		{"mem", false, 0},
		{"wal-fsync-1", true, 1},
		{"wal-fsync-64", true, 64},
	} {
		b.Run(v.name, func(b *testing.B) {
			var series attack.SeriesResult
			for i := 0; i < b.N; i++ {
				space, err := keyspace.NewSpace(24)
				if err != nil {
					b.Fatal(err)
				}
				tmpl := fortress.Config{
					Servers:           servers,
					Proxies:           proxies,
					ServiceFactory:    func() service.Service { return service.NewKV() },
					HeartbeatInterval: 5 * time.Millisecond,
					HeartbeatTimeout:  400 * time.Millisecond,
					ServerTimeout:     150 * time.Millisecond,
				}
				var customize func(rep int, fc *fortress.Config)
				if v.wal {
					root := b.TempDir()
					syncEvery := v.syncEvery
					customize = func(rep int, fc *fortress.Config) {
						fc.StoreFactory = func(server int) (store.Store, error) {
							return store.Open(store.WALConfig{
								Dir:       filepath.Join(root, fmt.Sprintf("r%d", rep), fmt.Sprintf("s%d", server)),
								SyncEvery: syncEvery,
							})
						}
					}
				}
				series, err = attack.CampaignSeries(tmpl, space, attack.SeriesConfig{
					Campaign: attack.CampaignConfig{
						OmegaDirect:         2,
						OmegaIndirect:       1,
						MaxSteps:            maxSteps,
						MeasureAvailability: true,
						HealthTimeout:       600 * time.Millisecond,
						ProbeTimeout:        2 * time.Second,
					},
					Workers:   runtime.GOMAXPROCS(0),
					Customize: customize,
					MakeInjector: func(rep int, sys *fortress.System, rng *xrand.RNG) attack.StepInjector {
						inj, err := faults.NewInjector(sched, sys, rng)
						if err != nil {
							b.Fatal(err)
						}
						return inj
					},
				}, reps, xrand.New(100))
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(series.Availability.Mean, "availability")
		})
	}
}

// fanoutHandler is the no-op protocol for BenchmarkUpdateFanout receivers.
type fanoutHandler struct{}

func (fanoutHandler) HandleMessage(conn *netsim.Conn, raw []byte, replies [][]byte) [][]byte {
	return replies
}
func (fanoutHandler) HandlePeerReply(peer int, raw []byte) {}
func (fanoutHandler) Tick()                                {}
func (fanoutHandler) Rejoin()                              {}

// BenchmarkUpdateFanout measures the primary's per-request fan-out cost
// through the shared node runtime, along two axes.
//
// Flush shape (fixed 256-byte payload): per-message (one flush per staged
// update — one SendBatch of one message per backup, the old
// broadcastToBackups shape) versus batched (a whole drained batch's updates
// staged per backup, shipped with a single SendBatch flush).
//
// Payload shape (batched flushes, payloads derived from a live KV service):
// snapshot (every update carries the full state encoding, the pre-delta PB
// stream) versus delta (each update carries the pb prefix/suffix diff of
// consecutive snapshots, the incremental stream the PB primary now ships).
// With a 256-key store and single-key writes, delta B/op tracks the state
// actually touched per request while snapshot B/op tracks total state size.
func BenchmarkUpdateFanout(b *testing.B) {
	const (
		backups     = 3
		perBatch    = 32  // updates executed per drained inbound batch
		payloadSize = 256 // roughly a small KV snapshot update
	)
	payload := make([]byte, payloadSize)
	for i := range payload {
		payload[i] = byte(i)
	}
	const rounds = 16 // fan-out bursts per op, so a 1x run still averages
	setup := func(b *testing.B, warm []byte) *core.Node {
		b.Helper()
		net := netsim.NewNetwork()
		peers := make(map[int]string, backups+1)
		for i := 0; i <= backups; i++ {
			peers[i] = fmt.Sprintf("fanout-%d", i)
		}
		var nodes []*core.Node
		for i := 0; i <= backups; i++ {
			n, err := core.NewNode(core.Config{
				Index: i, Addr: peers[i], Peers: peers, Net: net,
				TickInterval: time.Hour, // timers out of the measurement
			}, fanoutHandler{})
			if err != nil {
				b.Fatal(err)
			}
			if err := n.Start(); err != nil {
				b.Fatal(err)
			}
			nodes = append(nodes, n)
		}
		b.Cleanup(func() {
			for _, n := range nodes {
				n.Stop()
			}
		})
		// Warm the peer-connection cache and the outbox/payload pools, so
		// the measurement is steady-state fan-out, not dial setup.
		nodes[0].Broadcast(warm)
		nodes[0].Flush()
		return nodes[0]
	}
	b.Run("per-message", func(b *testing.B) {
		primary := setup(b, payload)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for r := 0; r < rounds; r++ {
				for m := 0; m < perBatch; m++ {
					primary.Broadcast(payload)
					primary.Flush()
				}
			}
		}
	})
	b.Run("batched", func(b *testing.B) {
		primary := setup(b, payload)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for r := 0; r < rounds; r++ {
				for m := 0; m < perBatch; m++ {
					primary.Broadcast(payload)
				}
				primary.Flush()
			}
		}
	})

	// The payload-shape variants replay the same perBatch single-key writes
	// against a 256-key KV store and precompute both encodings of each
	// executed update: the full snapshot and the pb snapshot delta.
	kv := service.NewKV()
	for i := 0; i < 256; i++ {
		if _, err := kv.Apply([]byte(fmt.Sprintf(`{"op":"put","key":"key-%03d","value":"v-%03d-0000"}`, i, i))); err != nil {
			b.Fatal(err)
		}
	}
	prev, err := kv.Snapshot()
	if err != nil {
		b.Fatal(err)
	}
	snapshots := make([][]byte, perBatch)
	deltas := make([][]byte, perBatch)
	for m := 0; m < perBatch; m++ {
		if _, err := kv.Apply([]byte(fmt.Sprintf(`{"op":"put","key":"key-%03d","value":"v-%03d-%04d"}`, m*7%256, m*7%256, m+1))); err != nil {
			b.Fatal(err)
		}
		snap, err := kv.Snapshot()
		if err != nil {
			b.Fatal(err)
		}
		prefix, patch, suffix := pb.DiffSnapshot(prev, snap)
		deltas[m] = append([]byte(fmt.Sprintf("delta:%d:%d:", prefix, suffix)), patch...)
		snapshots[m] = snap
		prev = snap
	}
	for _, v := range []struct {
		name     string
		payloads [][]byte
	}{{"snapshot", snapshots}, {"delta", deltas}} {
		b.Run(v.name, func(b *testing.B) {
			primary := setup(b, v.payloads[0])
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for r := 0; r < rounds; r++ {
					for m := 0; m < perBatch; m++ {
						primary.Broadcast(v.payloads[m])
					}
					primary.Flush()
				}
			}
		})
	}
}

// BenchmarkReadScaling regenerates the read-scalability artifact of the
// lease tier: a read-mostly workload (read fraction 0.95) against direct
// SMR clusters of 3, 5 and 7 replicas, leases off versus on. With leases
// on, each read is a single round trip to a single replica, rotated across
// the group, so concurrent readers spread over the whole cluster and
// aggregate throughput grows with replica count. With leases off every
// read falls back to the fan-out-and-vote ordered path through the leader,
// so adding replicas adds fan-out cost instead of read capacity — the flat
// baseline the lease tier is measured against.
func BenchmarkReadScaling(b *testing.B) {
	const readEvery = 20 // one write per 20 requests: read fraction 0.95
	for _, n := range []int{3, 5, 7} {
		for _, leases := range []bool{false, true} {
			b.Run(fmt.Sprintf("replicas=%d/leases=%t", n, leases), func(b *testing.B) {
				net := netsim.NewNetwork()
				peers := make(map[int]string, n)
				for i := 0; i < n; i++ {
					peers[i] = fmt.Sprintf("smr-%d", i)
				}
				replicas := make([]*smr.Replica, n)
				pubKeys := make(map[int][]byte, n)
				for i := 0; i < n; i++ {
					keys, err := sig.NewKeyPair()
					if err != nil {
						b.Fatal(err)
					}
					r, err := smr.New(smr.Config{
						Index: i, Addr: peers[i], Peers: peers,
						Service: service.NewKV(), Keys: keys, Net: net,
						HeartbeatInterval: 2 * time.Millisecond,
						HeartbeatTimeout:  50 * time.Millisecond,
						Leases:            leases,
					})
					if err != nil {
						b.Fatal(err)
					}
					replicas[i] = r
					pubKeys[i] = r.PublicKey()
					b.Cleanup(r.Stop)
				}
				f := (n - 1) / 3
				if f < 1 {
					f = 1
				}
				client, err := smr.NewClient(net, "bench", peers, pubKeys, f, 2*time.Second)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := client.Invoke("seed", []byte(`{"op":"put","key":"k","value":"v"}`)); err != nil {
					b.Fatal(err)
				}
				if leases {
					// Measure the steady state: every replica holds a lease.
					deadline := time.Now().Add(5 * time.Second)
					for _, r := range replicas {
						for !r.LeaseValid() {
							if time.Now().After(deadline) {
								b.Fatal("leases never settled")
							}
							time.Sleep(time.Millisecond)
						}
					}
				}
				read := []byte(`{"op":"get","key":"k"}`)
				write := []byte(`{"op":"put","key":"k","value":"w"}`)
				var ops atomic.Uint64
				// The scaling axis is concurrent readers spread across
				// replicas, so overlap round trips beyond GOMAXPROCS — the
				// reads are latency-bound, not CPU-bound.
				b.SetParallelism(4)
				b.ResetTimer()
				b.RunParallel(func(tpb *testing.PB) {
					for tpb.Next() {
						i := ops.Add(1)
						var err error
						if i%readEvery == 0 {
							_, err = client.Invoke(fmt.Sprintf("w-%d", i), write)
						} else {
							_, err = client.InvokeRead(fmt.Sprintf("r-%d", i), read)
						}
						if err != nil {
							b.Error(err)
							return
						}
					}
				})
			})
		}
	}
}

// BenchmarkShardScaling regenerates the sharding throughput artifact: a
// write-heavy keyed workload (9 puts per get) driven through the full
// doubly-signed proxy path against deployments of 1, 2, 4 and 8
// consistent-hash replica groups, per replication backend. The network
// carries a simulated link delay, so a request's latency is dominated by
// its round trips — as on any real network — and each shard runs one
// closed-loop client (a fixed per-shard population, the standard
// partitioned-store methodology): a single group is then bounded by one
// ordering pipeline's round-trip cadence, while M groups overlap M
// independent pipelines, so aggregate ops/s (the inverse of ns/op) grows
// near-linearly with the group count until the simulation host's CPU
// saturates on signature verification. Keys come from the deployment's
// own ring, an equal share per group.
func BenchmarkShardScaling(b *testing.B) {
	const (
		servers      = 3
		proxies      = 3
		keysPerGroup = 8
		linkDelay    = 2 * time.Millisecond
	)
	for _, backend := range []replica.Backend{replica.BackendPB, replica.BackendSMR} {
		for _, groups := range []int{1, 2, 4, 8} {
			b.Run(fmt.Sprintf("%s/groups=%d", backend, groups), func(b *testing.B) {
				space, err := keyspace.NewSpace(24)
				if err != nil {
					b.Fatal(err)
				}
				sys, err := fortress.New(fortress.Config{
					Servers:           servers,
					Proxies:           proxies,
					Groups:            groups,
					Backend:           backend,
					Space:             space,
					Seed:              7,
					ServiceFactory:    func() service.Service { return service.NewKV() },
					HeartbeatInterval: 5 * time.Millisecond,
					HeartbeatTimeout:  400 * time.Millisecond,
					ServerTimeout:     2 * time.Second,
				})
				if err != nil {
					b.Fatal(err)
				}
				b.Cleanup(sys.Stop)
				ring := sys.Ring()
				byGroup := make([][]string, groups)
				for g := 0; g < groups; g++ {
					for n := 0; len(byGroup[g]) < keysPerGroup; n++ {
						k := fmt.Sprintf("bench-%d-%d", g, n)
						if ring.Owner(k) == g {
							byGroup[g] = append(byGroup[g], k)
						}
					}
				}
				// One closed-loop client per shard; warm each shard's
				// pipeline (connection caches, first checkpoint) before
				// the measurement, then turn the link delay on.
				clients := make([]*proxy.Client, groups)
				for g := range clients {
					cl, err := sys.Client(fmt.Sprintf("bench-shard-c%d", g), 5*time.Second)
					if err != nil {
						b.Fatal(err)
					}
					body := fmt.Sprintf(`{"op":"put","key":%q,"value":"seed"}`, byGroup[g][0])
					if _, err := cl.Invoke(fmt.Sprintf("warm-%d", g), []byte(body)); err != nil {
						b.Fatal(err)
					}
					clients[g] = cl
				}
				sys.Net().SetLinkDelay(linkDelay)
				// Each iteration spends a fixed total budget of opsPerIter
				// requests, split across the shards (Σ_g (K+g)/groups ==
				// K), so ns/op is the wall time of the same workload at
				// every group count — the 1-group/M-group ratio IS the
				// aggregate throughput scaling, even at -benchtime 1x.
				const opsPerIter = 64
				errs := make([]error, groups)
				b.ResetTimer()
				for iter := 0; iter < b.N; iter++ {
					var wg sync.WaitGroup
					for g := 0; g < groups; g++ {
						wg.Add(1)
						go func(iter, g int) {
							defer wg.Done()
							cl, keys := clients[g], byGroup[g]
							for i := 0; i < (opsPerIter+g)/groups; i++ {
								key := keys[i%len(keys)]
								id := fmt.Sprintf("%d-%d-%d", iter, g, i)
								var err error
								if i%10 == 9 {
									body := fmt.Sprintf(`{"op":"get","key":%q}`, key)
									_, err = cl.InvokeRead("r-"+id, []byte(body))
								} else {
									body := fmt.Sprintf(`{"op":"put","key":%q,"value":"v"}`, key)
									_, err = cl.Invoke("w-"+id, []byte(body))
								}
								if err != nil {
									errs[g] = err
									return
								}
							}
						}(iter, g)
					}
					wg.Wait()
				}
				b.StopTimer()
				b.ReportMetric(float64(opsPerIter)*float64(b.N)/b.Elapsed().Seconds(), "ops/s")
				sys.Net().SetLinkDelay(0)
				for _, err := range errs {
					if err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkLaunchPadAblation quantifies the λ design knob from DESIGN.md
// §5: how the same-step launch-pad fraction moves EL(S2PO).
func BenchmarkLaunchPadAblation(b *testing.B) {
	for _, lp := range []float64{0, 0.5, 1} {
		b.Run(fmt.Sprintf("lambda=%g", lp), func(b *testing.B) {
			var el float64
			for i := 0; i < b.N; i++ {
				p := model.DefaultParams(0.01, 0.2)
				p.LaunchPadFraction = lp
				var err error
				el, err = model.S2PO{P: p}.AnalyticEL()
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(el, "EL(S2PO)")
		})
	}
}

// BenchmarkChiSweep regenerates E7 (extension): EL sensitivity to key
// entropy, 12..20 bits, for the two headline PO systems. The paper fixes
// χ = 2¹⁶; this sweep shows the shape is entropy-scaled, not entropy-bound.
func BenchmarkChiSweep(b *testing.B) {
	for _, bits := range []uint{12, 16, 20} {
		b.Run(fmt.Sprintf("chi=2^%d", bits), func(b *testing.B) {
			var s1, s2 float64
			for i := 0; i < b.N; i++ {
				p := model.DefaultParams(0.001, 0.5)
				p.Chi = 1 << bits
				var err error
				s1, err = (model.S1PO{P: p}).AnalyticEL()
				if err != nil {
					b.Fatal(err)
				}
				s2, err = (model.S2PO{P: p}).AnalyticEL()
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(s1, "EL(S1PO)")
			b.ReportMetric(s2, "EL(S2PO)")
		})
	}
}

// BenchmarkStaggeredObfuscation quantifies the §2.3 extension: how much
// lifetime Roeder–Schneider-style batched re-randomization costs S0
// relative to the paper's idealized instantaneous re-randomization.
func BenchmarkStaggeredObfuscation(b *testing.B) {
	p := model.DefaultParams(0.01, 0)
	rng := xrand.New(7)
	var stag model.Estimate
	for i := 0; i < b.N; i++ {
		var err error
		stag, err = model.EstimateSO(model.S0Staggered{P: p}, benchTrials, rng.Split())
		if err != nil {
			b.Fatal(err)
		}
	}
	ideal, err := (model.S0PO{P: p}).AnalyticEL()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(stag.EL, "EL(staggered)")
	b.ReportMetric(ideal, "EL(ideal-PO)")
	b.ReportMetric(ideal/stag.EL, "ideal/staggered")
}

// BenchmarkAlphaGrowth regenerates E6: the SO-vs-PO per-step success
// probability table.
func BenchmarkAlphaGrowth(b *testing.B) {
	var rows []experiments.AlphaGrowthRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.AlphaGrowth(0.001, 500)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rows[len(rows)-1].AlphaSO/rows[0].AlphaPO, "alpha500/alpha1")
}

// BenchmarkWorkloadGen pins the workload engine's two headline claims: the
// arrival stream is cheap to draw (arrivals/s) and generator state is
// O(active requests), never O(clients) — the bytes/client metric, the heap
// held by a warm generator divided by its simulated population, must stay
// roughly flat from 10⁴ to 10⁶ clients because cohort superposition caps
// the per-client state at zero and only the per-step arrival buffer (rate ×
// clients requests) scales.
func BenchmarkWorkloadGen(b *testing.B) {
	spec, err := workload.PresetByName("zipf-poisson")
	if err != nil {
		b.Fatal(err)
	}
	for _, clients := range []int{10_000, 1_000_000} {
		b.Run(fmt.Sprintf("clients-%d", clients), func(b *testing.B) {
			s := spec
			s.Clients = clients
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			g, err := workload.NewGen(s, xrand.New(1))
			if err != nil {
				b.Fatal(err)
			}
			buf := g.Arrivals(0, nil) // warm the arrival buffer to steady state
			runtime.GC()
			runtime.ReadMemStats(&after)
			perClient := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / float64(clients)
			var arrivals uint64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf = g.Arrivals(uint64(i)+1, buf[:0])
				arrivals += uint64(len(buf))
			}
			b.StopTimer()
			if arrivals == 0 {
				b.Fatal("no arrivals generated")
			}
			b.ReportMetric(float64(arrivals)/b.Elapsed().Seconds(), "arrivals/s")
			b.ReportMetric(perClient, "bytes/client")
		})
	}
}
