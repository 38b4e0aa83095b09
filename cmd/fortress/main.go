// Command fortress regenerates the paper's evaluation artifacts and runs
// the executable FORTRESS demos.
//
// Usage:
//
//	fortress fig1 [-trials N] [-seed S] [-workers W]     Figure 1: EL vs α
//	fortress fig2 [-trials N] [-seed S] [-workers W]     Figure 2: EL of S2PO vs κ
//	fortress ordering [-alpha A] [-kappa K] [-workers W] §6 resilience chain check
//	fortress fortify [-alpha A] [-trials N] [-workers W] E4: S2SO vs S0SO across κ
//	fortress alphas [-alpha A] [-steps N]                E6: αᵢ growth, SO vs PO
//	fortress demo                                        end-to-end FORTRESS service
//	fortress attack [-chi N] [-steps N] [-po]            one campaign vs one live deployment
//	fortress campaign [-reps N] [-workers W] [-po]       live-campaign sweep: (backend ×
//	                                                     proxies × detector × pacing) grid,
//	                                                     N campaign repetitions per cell
//	fortress faults [-preset P[,P...]] [-reps N]         degraded-network sweep: (backend ×
//	                                                     fault schedule × drop rate ×
//	                                                     proxies × persistence × jitter ×
//	                                                     read mix × leases) grid with
//	                                                     per-step availability
//	fortress serve [-addr HOST:PORT] [-backend B]        live system with an HTTP ops
//	                                                     surface: plain-text dashboard on /,
//	                                                     JSON status on /status.json,
//	                                                     Prometheus text on /metrics
//
// The campaign and faults sweeps take -metrics-out FILE to dump each grid
// cell's merged runtime-metrics snapshot (per-repetition counters, timing,
// gauges, histograms and trace rings) as a JSON array next to the CSV. The
// metrics are observational only — collection never changes sweep results —
// and the deterministic "counters" section is identical at any -workers
// value for a given seed.
//
// The campaign and faults sweeps also take -checkpoint-every and
// -update-window, the server tier's resync knobs: the PB primary ships
// ack-windowed incremental state deltas with a full snapshot checkpoint
// every k-th update, and both engines bound the history they retain for
// resyncing a lagging replica (PB delta retransmission, SMR catch-up).
//
// Both sweeps share the measurement-workload axes -workload, -read-frac and
// -leases. -workload names open-loop workload presets from
// internal/workload — closed (the legacy one-probe-per-step health check),
// uniform-closed, uniform-poisson, zipf-poisson, zipf-bursty and
// diurnal-ramp — and every measured cell reports availability plus virtual
// request latency as p50ms/p99ms/p999ms columns (failed requests charged
// the spec's deadline; sharded cells add per-shard p99). Generation is
// O(active requests) with no per-client goroutines, so a million-client
// Poisson preset costs the same handful of cohort streams as ten thousand,
// and the sampled stream is bit-identical at any -workers value.
// -read-frac overrides each preset's read share (reads ride the
// lease-aware path, the rest are keyed writes) and -leases deploys the
// server tier with heartbeat-bounded SMR read leases, so lease holders
// answer reads locally and only writes enter the order protocol (the PB
// backend ignores it). On the faults sweep all three are grid axes:
// `-backend smr -workload zipf-poisson -leases both` compares lease-on vs
// lease-off latency under every selected fault schedule at a skewed
// read-mostly mix. The campaign sweep defaults to no measurement workload
// (its historical behaviour); naming a -workload or -read-frac turns
// measurement on.
//
// Both sweeps take -groups, the sharding axis: each cell deploys that many
// independent replica groups behind the shared proxy tier and
// consistent-hashes the request keyspace across them, so aggregate write
// throughput scales with the group count while each key keeps single-group
// consistency. Sharded fault-sweep cells report per-shard availability next
// to the aggregate; `-preset shard-cut -groups 4` darkens exactly one shard
// and shows the other three holding availability 1.0.
//
// The faults sweep additionally takes the durability axes -persist (mem,
// wal), -fsync-every (WAL sync cadence) and -jitter (per-repetition fault
// timing perturbation): `-preset blackout -persist mem,wal` reproduces the
// headline whole-cluster power-loss comparison, where WAL-backed tiers
// recover their replica state from disk and return to full availability
// while the in-memory default restarts empty.
//
// Every Monte-Carlo subcommand takes -workers (default: runtime.GOMAXPROCS,
// i.e. all cores): experiment cells and the trial shards within each cell
// run on that many workers through the deterministic engine in internal/sim,
// so the output for a given -seed and -trials is bit-identical at any
// -workers value — including -workers 1. Use -workers to bound CPU usage,
// never to pin results. The campaign sweep follows the same contract — its
// repetitions run whole live deployments, sharded across workers with
// pre-split random streams — and, being latency-bound rather than CPU-bound,
// profits from -workers above the core count.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"

	"fortress/internal/attack"
	"fortress/internal/experiments"
	"fortress/internal/faults"
	"fortress/internal/fortress"
	"fortress/internal/keyspace"
	"fortress/internal/replica"
	"fortress/internal/service"
	"fortress/internal/workload"
	"fortress/internal/xrand"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "fortress:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("missing subcommand; one of fig1, fig2, ordering, fortify, alphas, demo, attack, campaign, faults, serve")
	}
	switch args[0] {
	case "fig1":
		return runFig1(args[1:])
	case "fig2":
		return runFig2(args[1:])
	case "ordering":
		return runOrdering(args[1:])
	case "fortify":
		return runFortify(args[1:])
	case "alphas":
		return runAlphas(args[1:])
	case "demo":
		return runDemo(args[1:])
	case "attack":
		return runAttack(args[1:])
	case "campaign":
		return runCampaign(args[1:])
	case "faults":
		return runFaults(args[1:])
	case "serve":
		return runServe(args[1:])
	default:
		return fmt.Errorf("unknown subcommand %q", args[0])
	}
}

func commonFlags(fs *flag.FlagSet) (trials, seed *uint64, workers *int) {
	trials = fs.Uint64("trials", 100000, "Monte-Carlo trials per cell (0 = analytic only)")
	seed = fs.Uint64("seed", 1, "simulation seed")
	workers = fs.Int("workers", runtime.GOMAXPROCS(0),
		"concurrent workers for cells and trial shards (results are identical at any value)")
	return trials, seed, workers
}

func runFig1(args []string) error {
	fs := flag.NewFlagSet("fig1", flag.ContinueOnError)
	trials, seed, workers := commonFlags(fs)
	csvPath := fs.String("csv", "", "also write the series to this CSV file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg := experiments.Config{Trials: *trials, Seed: *seed, LaunchPadFraction: -1, Workers: *workers}
	results, err := experiments.Figure1(cfg, nil)
	if err != nil {
		return err
	}
	fmt.Println("# Figure 1 — expected lifetime comparison (κ =", experiments.Figure1Kappa, "for S2PO)")
	fmt.Print(experiments.FormatResults(results))
	return writeCSVFile(*csvPath, func(w io.Writer) error { return experiments.WriteCSV(w, results) })
}

func runFig2(args []string) error {
	fs := flag.NewFlagSet("fig2", flag.ContinueOnError)
	trials, seed, workers := commonFlags(fs)
	csvPath := fs.String("csv", "", "also write the series to this CSV file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg := experiments.Config{Trials: *trials, Seed: *seed, LaunchPadFraction: -1, Workers: *workers}
	results, err := experiments.Figure2(cfg, nil, nil)
	if err != nil {
		return err
	}
	fmt.Println("# Figure 2 — EL of S2PO as κ varies (plot on a log scale)")
	fmt.Print(experiments.FormatResults(results))
	return writeCSVFile(*csvPath, func(w io.Writer) error { return experiments.WriteCSV(w, results) })
}

// writeCSVFile writes a CSV file through write, or does nothing for an
// empty path.
func writeCSVFile(path string, write func(io.Writer) error) error {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("create %s: %w", path, err)
	}
	if err := write(f); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("close %s: %w", path, err)
	}
	fmt.Println("# CSV written to", path)
	return nil
}

func runOrdering(args []string) error {
	fs := flag.NewFlagSet("ordering", flag.ContinueOnError)
	alpha := fs.Float64("alpha", 0.001, "per-step direct-attack success probability α")
	kappa := fs.Float64("kappa", 0.5, "indirect attack coefficient κ")
	trials, seed, workers := commonFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg := experiments.Config{Trials: *trials, Seed: *seed, LaunchPadFraction: -1, Workers: *workers}
	rep, err := experiments.OrderingChain(cfg, *alpha, *kappa)
	if err != nil {
		return err
	}
	fmt.Printf("# §6 ordering chain at α=%g κ=%g\n", rep.Alpha, rep.Kappa)
	for i, name := range rep.Order {
		fmt.Printf("%d. %-5s EL=%.6g\n", i+1, name, rep.ELs[i])
	}
	fmt.Println(rep.Detail)
	return nil
}

func runFortify(args []string) error {
	fs := flag.NewFlagSet("fortify", flag.ContinueOnError)
	alpha := fs.Float64("alpha", 0.001, "per-step direct-attack success probability α")
	trials, seed, workers := commonFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg := experiments.Config{Trials: *trials, Seed: *seed, LaunchPadFraction: -1, Workers: *workers}
	rows, err := experiments.Fortify(cfg, *alpha, nil)
	if err != nil {
		return err
	}
	fmt.Printf("# E4 — fortified PB (S2SO) vs proactively recovered SMR (S0SO) at α=%g\n", *alpha)
	fmt.Printf("%-6s %-14s %-10s %-14s %s\n", "kappa", "EL(S2SO)", "±", "EL(S0SO)", "S2SO outlives?")
	for _, r := range rows {
		fmt.Printf("%-6g %-14.6g %-10.3g %-14.6g %v\n", r.Kappa, r.S2SO, r.S2SOCI, r.S0SO, r.Outlive)
	}
	return nil
}

func runAlphas(args []string) error {
	fs := flag.NewFlagSet("alphas", flag.ContinueOnError)
	alpha := fs.Float64("alpha", 0.001, "initial per-step success probability α₁")
	steps := fs.Int("steps", 20, "steps to tabulate")
	if err := fs.Parse(args); err != nil {
		return err
	}
	rows, err := experiments.AlphaGrowth(*alpha, *steps)
	if err != nil {
		return err
	}
	fmt.Println("# E6 — per-step success probability: SO grows (sampling without")
	fmt.Println("# replacement), PO is flat (sampling with replacement)")
	fmt.Printf("%-6s %-14s %-14s\n", "step", "alpha_SO", "alpha_PO")
	for _, r := range rows {
		fmt.Printf("%-6d %-14.8f %-14.8f\n", r.Step, r.AlphaSO, r.AlphaPO)
	}
	return nil
}

func runDemo(args []string) error {
	fs := flag.NewFlagSet("demo", flag.ContinueOnError)
	if err := fs.Parse(args); err != nil {
		return err
	}
	space, err := keyspace.NewSpace(1 << 16)
	if err != nil {
		return err
	}
	sys, err := fortress.New(fortress.Config{
		Servers:           3,
		Proxies:           3,
		Space:             space,
		Seed:              uint64(time.Now().UnixNano()),
		ServiceFactory:    func() service.Service { return service.NewKV() },
		HeartbeatInterval: 10 * time.Millisecond,
		HeartbeatTimeout:  100 * time.Millisecond,
		ServerTimeout:     2 * time.Second,
		DetectorWindow:    time.Minute,
		DetectorThreshold: 10,
	})
	if err != nil {
		return err
	}
	defer sys.Stop()

	client, err := sys.Client("demo-client", 2*time.Second)
	if err != nil {
		return err
	}
	fmt.Println("FORTRESS up: 3 PB servers (shared key), 3 proxies (distinct keys), trusted NS")
	if _, err := client.Invoke("w1", []byte(`{"op":"put","key":"motto","value":"fortify, then randomize"}`)); err != nil {
		return err
	}
	got, err := client.Invoke("r1", []byte(`{"op":"get","key":"motto"}`))
	if err != nil {
		return err
	}
	fmt.Printf("write+read through doubly-signed path: %s\n", got)

	fmt.Println("re-randomizing (proactive obfuscation epoch)...")
	if err := sys.Rerandomize(); err != nil {
		return err
	}
	client2, err := sys.Client("demo-client-2", 2*time.Second)
	if err != nil {
		return err
	}
	got, err = client2.Invoke("r2", []byte(`{"op":"get","key":"motto"}`))
	if err != nil {
		return err
	}
	fmt.Printf("state preserved across epoch %d: %s\n", sys.Epoch(), got)
	return nil
}

// listFlag is a comma-separated grid flag, parsed entry by entry into
// *dst; an empty value leaves the grid empty.
type listFlag[T any] struct {
	dst   *[]T
	parse func(string) (T, error)
}

func list[T any](dst *[]T, parse func(string) (T, error)) listFlag[T] { return listFlag[T]{dst, parse} }

func (l listFlag[T]) String() string {
	if l.dst == nil {
		return ""
	}
	parts := make([]string, len(*l.dst))
	for i, v := range *l.dst {
		parts[i] = fmt.Sprint(v)
	}
	return strings.Join(parts, ",")
}

func (l listFlag[T]) Set(s string) error {
	*l.dst = nil
	if s == "" {
		return nil
	}
	for _, p := range strings.Split(s, ",") {
		v, err := l.parse(strings.TrimSpace(p))
		if err != nil {
			return err
		}
		*l.dst = append(*l.dst, v)
	}
	return nil
}

// entry parses one list entry with parse and accepts it only if ok.
func entry[T any](parse func(string) (T, error), ok func(T) bool) func(string) (T, error) {
	return func(s string) (T, error) {
		v, err := parse(s)
		if err != nil || !ok(v) {
			return v, fmt.Errorf("invalid list entry %q", s)
		}
		return v, nil
	}
}

// oneOf accepts the entries that name one of names.
func oneOf(names []string) func(string) (string, error) {
	return func(s string) (string, error) {
		if !slices.Contains(names, s) {
			return "", fmt.Errorf("unknown %q (available: %s)", s, strings.Join(names, ", "))
		}
		return s, nil
	}
}

func atoi(s string) (int, error) {
	v, err := strconv.ParseInt(s, 10, 31)
	return int(v), err
}

func parseUint(s string) (uint64, error) { return strconv.ParseUint(s, 10, 64) }

func parseFloat(s string) (float64, error) { return strconv.ParseFloat(s, 64) }

// The entry parsers of the grid flags.
var (
	counts     = entry(atoi, func(v int) bool { return v >= 0 })
	groups     = entry(atoi, func(v int) bool { return v >= 1 })
	uints      = entry(parseUint, func(uint64) bool { return true })
	rates      = entry(parseFloat, func(v float64) bool { return v >= 0 })
	fractions  = entry(parseFloat, func(v float64) bool { return v >= 0 && v <= 1 })
	onOffGrids = map[string][]bool{"off": {false}, "on": {true}, "both": {false, true}}
)

// onOff is an off/on/both grid flag over *dst.
type onOff struct{ dst *[]bool }

func (g onOff) String() string {
	for name, grid := range onOffGrids {
		if g.dst != nil && slices.Equal(grid, *g.dst) {
			return name
		}
	}
	return ""
}

func (g onOff) Set(s string) error {
	grid, ok := onOffGrids[s]
	if !ok {
		return fmt.Errorf("must be off, on or both, got %q", s)
	}
	*g.dst = grid
	return nil
}

// sweepOut holds the output paths both sweeps take.
type sweepOut struct{ csv, metrics string }

// sweepFlags registers the flags campaign and faults share. Each writes
// into cfg and takes cfg's value as its default, so a subcommand's
// defaults are those of its default SweepConfig.
func sweepFlags(name string, cfg *experiments.SweepConfig, workloadHelp string) (*flag.FlagSet, *sweepOut) {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	out := &sweepOut{}
	fs.IntVar(&cfg.Reps, "reps", cfg.Reps, "campaign repetitions per grid cell")
	fs.IntVar(&cfg.Workers, "workers", runtime.GOMAXPROCS(0),
		"concurrent repetitions/cells (results are identical at any value; repetitions are latency-bound, so values above the core count help)")
	fs.Uint64Var(&cfg.Chi, "chi", cfg.Chi, "key space size χ (small so live campaigns terminate)")
	fs.Uint64Var(&cfg.MaxSteps, "steps", cfg.MaxSteps, "campaign horizon in unit time-steps (fault presets scale to it)")
	fs.BoolVar(&cfg.Rerandomize, "po", cfg.Rerandomize, "re-randomize every step (proactive obfuscation)")
	fs.Uint64Var(&cfg.OmegaDirect, "omega-direct", cfg.OmegaDirect, "direct probes per step")
	fs.IntVar(&cfg.Servers, "servers", cfg.Servers, "per-group server count n_s")
	fs.Var(list(&cfg.Backends, oneOf(replica.BackendNames())), "backend",
		"comma-separated server-tier replication backends (pb, smr); smr cells replay the same campaigns and fault schedules against a state-machine-replicated tier whose restarted replicas catch up from the leader")
	fs.Var(list(&cfg.ProxyCounts, counts), "proxies", "comma-separated proxy-count grid")
	fs.Var(list(&cfg.Groups, groups), "groups",
		"comma-separated replica-group-count grid: each cell consistent-hashes the request keyspace across this many independent replica groups behind the shared proxy tier, reporting per-shard availability next to the aggregate (1 = classic single-group fortress; pair with -preset shard-cut to dark one shard)")
	fs.Var(list(&cfg.Workloads, oneOf(workload.PresetNames())), "workload", workloadFlagHelp()+workloadHelp)
	fs.Var(list(&cfg.ReadFracs, fractions), "read-frac",
		"comma-separated read-share grid overriding each workload preset's own mix ([0,1]; 0 = all writes); empty keeps every preset's mix")
	fs.Var(onOff{&cfg.Leases}, "leases",
		"read-lease grid: off, on, or both — on deploys the server tier with heartbeat-bounded read leases (smr backend only; pb ignores it) so lease holders answer reads locally instead of ordering them")
	fs.IntVar(&cfg.CheckpointEvery, "checkpoint-every", cfg.CheckpointEvery,
		"PB update-stream checkpoint cadence: every k-th update ships a full snapshot instead of a delta (0 = engine default 32, 1 = classic full-snapshot-per-update stream)")
	fs.IntVar(&cfg.UpdateWindow, "update-window", cfg.UpdateWindow,
		"retained resync history: the PB primary's unacked deltas and the SMR leader's catch-up log suffix (0 = engine defaults 256/512, negative = retain nothing, forcing checkpoint/snapshot resyncs)")
	fs.Uint64Var(&cfg.Seed, "seed", cfg.Seed, "simulation seed")
	fs.StringVar(&out.csv, "csv", "", "also write the sweep to this CSV file")
	fs.StringVar(&out.metrics, "metrics-out", "",
		"also write each cell's merged runtime-metrics snapshot (JSON array; observational only, the counters section is deterministic at any -workers) to this file")
	return fs, out
}

// workloadFlagHelp documents the named workload presets behind -workload.
func workloadFlagHelp() string {
	var b strings.Builder
	b.WriteString("comma-separated measurement-workload presets (each cell reports availability plus virtual-latency p50/p99/p999 columns); available:")
	for _, p := range workload.Presets() {
		fmt.Fprintf(&b, "\n  %-16s %s", p.Spec.Name, p.Description)
	}
	return b.String()
}

func runCampaign(args []string) error {
	cfg := experiments.DefaultCampaignSweep()
	fs, out := sweepFlags("campaign", &cfg,
		"\nempty = no measurement workload at all (the historical sweep); naming presets (or setting -read-frac) turns availability + latency measurement on")
	fs.Var(list(&cfg.Pacings, uints), "pacing", "comma-separated indirect-probe (κ·ω) grid")
	fs.Var(onOff{&cfg.Detectors}, "detector", "detector grid: off, on, or both")
	fs.IntVar(&cfg.DetectorThreshold, "detector-threshold", cfg.DetectorThreshold, "invalid requests before a probe source is flagged")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if cfg.DetectorThreshold <= 0 {
		return fmt.Errorf("-detector-threshold must be at least 1, got %d", cfg.DetectorThreshold)
	}
	return runSweep(cfg, out, "live-campaign sweep", fmt.Sprintf("ω_direct=%d", cfg.OmegaDirect))
}

func runFaults(args []string) error {
	cfg := experiments.DefaultFaultSweep()
	fs, out := sweepFlags("faults", &cfg, "")
	var presetHelp strings.Builder
	presetHelp.WriteString("comma-separated fault-schedule presets; available:")
	for _, p := range faults.Presets() {
		fmt.Fprintf(&presetHelp, "\n  %-18s %s", p.Name, p.Description)
	}
	fs.Var(list(&cfg.Presets, oneOf(faults.PresetNames())), "preset", presetHelp.String())
	omegaI := fs.Uint64("omega-indirect", cfg.Pacings[0], "indirect probes per step")
	fs.Var(list(&cfg.DropRates, rates), "drops",
		"comma-separated drop-rate grid (per-directed-pair drop streams keep positive-rate cells bitwise reproducible at any -workers)")
	fs.Var(list(&cfg.Persist, oneOf([]string{"mem", "wal"})), "persist",
		"comma-separated persistence grid (mem, wal); mem is the zero-allocation in-memory default that a blackout wipes, wal gives every server a write-ahead log plus snapshot recovered from disk on restart — mem,wal turns the sweep into a durability comparison")
	fs.Var(list(&cfg.FsyncEvery, counts), "fsync-every",
		"comma-separated WAL sync-cadence grid: every n-th append fsyncs, so a power failure loses at most n-1 records; only wal cells fan out over it")
	fs.Var(list(&cfg.Jitters, uints), "jitter",
		"comma-separated schedule-jitter grid: max forward delay, in steps, applied per fault event from each repetition's own stream (0 = replay presets exactly)")
	fs.StringVar(&cfg.PersistRoot, "persist-root", cfg.PersistRoot,
		"root directory for wal cell stores, kept for inspection (default: a temporary directory removed after the sweep)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if len(cfg.Presets) == 0 {
		return errors.New("-preset must name at least one preset")
	}
	if len(cfg.Workloads) == 0 {
		return errors.New("-workload must name at least one preset")
	}
	cfg.Pacings = []uint64{*omegaI}
	return runSweep(cfg, out, "fault sweep", fmt.Sprintf("ω_direct=%d, ω_indirect=%d", cfg.OmegaDirect, *omegaI))
}

// runSweep runs a parsed campaign or faults sweep and prints its table,
// then writes the CSV and metrics files it was asked for.
func runSweep(cfg experiments.SweepConfig, out *sweepOut, title, budget string) error {
	// The sweep treats zero fields as "use the default", so explicit zeros
	// on the command line are rejected here, not silently rewritten, except
	// -omega-direct, where zero is a real (indirect-only) configuration.
	switch {
	case cfg.CheckpointEvery < 0:
		return fmt.Errorf("-checkpoint-every must be non-negative, got %d", cfg.CheckpointEvery)
	case cfg.Reps <= 0:
		return fmt.Errorf("-reps must be at least 1, got %d", cfg.Reps)
	case cfg.Chi == 0:
		return errors.New("-chi must be at least 1")
	case cfg.MaxSteps == 0:
		return errors.New("-steps must be at least 1")
	case cfg.Servers <= 0:
		return fmt.Errorf("-servers must be at least 1, got %d", cfg.Servers)
	case len(cfg.Backends) == 0:
		return errors.New("-backend must name at least one backend")
	}
	cfg.CollectMetrics = out.metrics != ""
	rows, err := experiments.Sweep(cfg)
	if err != nil {
		return err
	}
	mode := "SO (start-up-only randomization)"
	if cfg.Rerandomize {
		mode = "PO (re-randomize every step)"
	}
	fmt.Printf("# %s: χ=%d, %d reps/cell, horizon %d steps, %s, %s\n", title, cfg.Chi, cfg.Reps, cfg.MaxSteps, budget, mode)
	cols := cfg.Columns()
	fmt.Print(cols.Format(rows))
	if err := writeCSVFile(out.csv, func(w io.Writer) error { return cols.WriteCSV(w, rows) }); err != nil {
		return err
	}
	if out.metrics != "" {
		if err := experiments.WriteCellMetricsJSON(out.metrics, cols.CellMetrics(rows)); err != nil {
			return err
		}
		fmt.Println("# metrics written to", out.metrics)
	}
	return nil
}

func runAttack(args []string) error {
	fs := flag.NewFlagSet("attack", flag.ContinueOnError)
	chi := fs.Uint64("chi", 64, "key space size χ (small so the demo terminates)")
	steps := fs.Uint64("steps", 200, "campaign horizon in unit time-steps")
	po := fs.Bool("po", false, "re-randomize every step (proactive obfuscation)")
	omegaD := fs.Uint64("omega-direct", 2, "direct probes per step")
	omegaI := fs.Uint64("omega-indirect", 1, "indirect probes per step")
	seed := fs.Uint64("seed", uint64(time.Now().UnixNano()), "seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	space, err := keyspace.NewSpace(*chi)
	if err != nil {
		return err
	}
	sys, err := fortress.New(fortress.Config{
		Servers:           3,
		Proxies:           3,
		Space:             space,
		Seed:              *seed,
		ServiceFactory:    func() service.Service { return service.NewKV() },
		HeartbeatInterval: 5 * time.Millisecond,
		HeartbeatTimeout:  50 * time.Millisecond,
		ServerTimeout:     2 * time.Second,
	})
	if err != nil {
		return err
	}
	defer sys.Stop()

	mode := "SO (start-up-only randomization)"
	if *po {
		mode = "PO (re-randomize every step)"
	}
	fmt.Printf("campaign vs live FORTRESS: χ=%d, ω_direct=%d, ω_indirect=%d, %s\n",
		*chi, *omegaD, *omegaI, mode)
	res, err := attack.Campaign(sys, space, attack.CampaignConfig{
		OmegaDirect:   *omegaD,
		OmegaIndirect: *omegaI,
		MaxSteps:      *steps,
		Rerandomize:   *po,
	}, xrand.New(*seed))
	if err != nil {
		return err
	}
	if res.Compromised {
		fmt.Printf("system COMPROMISED after %d whole steps via route %q\n", res.StepsElapsed, res.Route)
	} else {
		fmt.Printf("system SURVIVED the full %d-step horizon\n", res.StepsElapsed)
	}
	report := []string{
		fmt.Sprintf("epochs completed: %d", sys.Epoch()),
		fmt.Sprintf("final status: %+v", sys.Status()),
	}
	fmt.Println(strings.Join(report, "\n"))
	return nil
}
