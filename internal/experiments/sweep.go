package experiments

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"fortress/internal/attack"
	"fortress/internal/faults"
	"fortress/internal/fortress"
	"fortress/internal/keyspace"
	"fortress/internal/metrics"
	"fortress/internal/replica"
	"fortress/internal/replica/store"
	"fortress/internal/service"
	"fortress/internal/sim"
	"fortress/internal/workload"
	"fortress/internal/xrand"
)

// SweepConfig tunes the live campaign sweep: a grid of cells, each
// evaluated by Reps independent de-randomization campaigns against real
// FORTRESS deployments (attack.CampaignSeries). Cells fan out, outermost
// first, over backend × fault preset × drop rate × proxy count × group
// count × detector × pacing × persistence (with its fsync cadence) ×
// jitter × workload × read fraction × leases.
//
// Whether the grid has a fault-preset axis selects the sweep's profile. A
// campaign grid (no Presets) varies the paper's axes on a reliable network
// and measures nothing unless a workload or read fraction is named. A fault
// grid replays each preset against every repetition's own deployment
// through a fault injector, and every cell measures. Zero-valued fields
// select the profile's defaults (DefaultCampaignSweep, DefaultFaultSweep),
// except Seed and OmegaDirect, for which zero is itself meaningful.
type SweepConfig struct {
	// Chi is the randomization key-space size χ. Live campaigns drive every
	// probe through the executable stack, so χ stays small by design: the
	// sweep is about shapes, not about the χ = 2¹⁶ the analytic models
	// evaluate.
	Chi uint64
	// Reps is the number of campaign repetitions per cell.
	Reps int
	// Seed makes the sweep reproducible; 0 is itself a valid seed.
	Seed uint64
	// Workers bounds the sweep's total concurrency, split across the cell
	// fan-out and each cell's repetition series; it never affects results.
	// Repetitions are latency-bound, so values above the core count help.
	Workers int
	// MaxSteps is the per-repetition campaign horizon, and the horizon the
	// fault presets scale their schedules to.
	MaxSteps uint64
	// Rerandomize selects PO (re-randomize each step) when true, SO
	// otherwise.
	Rerandomize bool
	// OmegaDirect is the direct probe budget per step. Zero means no direct
	// probes at all (an indirect-only sweep) and is never rewritten, so a
	// printed header reflects the budget that ran; cells whose pacing is
	// also zero fail validation with "needs a probe budget".
	OmegaDirect uint64
	// Servers is the server count n_s per replica group.
	Servers int
	// Backends is the replication-engine grid, by name ("pb", "smr").
	Backends []string
	// Presets is the fault-schedule grid, by preset name (faults.Presets).
	// Setting it, even to {"none"}, selects the fault profile.
	Presets []string
	// DropRates is the lossy-link grid: the injector installs each rate at
	// step 0 on top of the preset's schedule, so a positive rate needs
	// Presets. Drop sampling draws from per-directed-pair streams seeded off
	// each repetition's own generator, so these cells reproduce bitwise at
	// any Workers value too.
	DropRates []float64
	// ProxyCounts is the n_p grid.
	ProxyCounts []int
	// Groups is the replica-group-count grid: each value deploys that many
	// independent replica groups (fortress.Config.Groups) behind the proxy
	// tier, with the keyspace consistent-hash-partitioned across them.
	// Sharded cells report per-shard availability and p99 next to the
	// aggregate.
	Groups []int
	// Detectors is the detector on/off grid.
	Detectors []bool
	// Pacings is the OmegaIndirect (κ·ω) grid: indirect server probes per
	// step the attacker risks against the detector.
	Pacings []uint64
	// DetectorThreshold flags a probe source after this many invalid
	// requests when the detector is on.
	DetectorThreshold int
	// Persist is the persistence grid: "mem" (a power failure loses all
	// replica state) and/or "wal" (a CRC-framed write-ahead log plus
	// snapshot per server, recovered from disk on restart).
	Persist []string
	// FsyncEvery is the WAL sync-cadence grid: every n-th append syncs, so
	// a power failure loses at most n-1 records. Only "wal" cells fan out
	// over it; values <= 0 select the store default (sync every append).
	FsyncEvery []int
	// Jitters is the schedule-jitter grid: the maximum forward delay, in
	// steps, applied per schedule event (faults.Jitter), drawn from each
	// repetition's own stream. A positive jitter needs Presets.
	Jitters []uint64
	// Workloads is the measurement-workload grid, by preset name
	// (workload.PresetNames). Every measured cell reports availability and
	// virtual latency under its preset. Empty defaults to {"closed"}, the
	// one-probe-per-step health check, except on a campaign grid with no
	// ReadFracs, which measures nothing.
	Workloads []string
	// ReadFracs overrides each workload preset's read share, one cell per
	// value in [0, 1] (0 is all writes). Empty keeps each preset's mix.
	ReadFracs []float64
	// Leases is the read-lease grid: true deploys the server tier with
	// heartbeat-bounded read leases (SMR only; PB ignores the flag).
	Leases []bool
	// CheckpointEvery and UpdateWindow tune the server tier's resync
	// machinery (the PB delta stream's checkpoint cadence, and the
	// PB-retransmission/SMR-catch-up history bound). Zero selects the
	// engine defaults.
	CheckpointEvery int
	UpdateWindow    int
	// PersistRoot, when non-empty, roots every "wal" cell's store
	// directories (one per cell, repetition and server) and is left in
	// place for inspection. When empty, a temporary root is created and
	// removed when the sweep returns.
	PersistRoot string
	// CollectMetrics attaches a private metrics registry to every
	// repetition and merges the per-repetition snapshots into each row's
	// Metrics, in repetition order (trace rings prefixed "repN/").
	// Collection never changes results, and the merged Counters section is
	// deterministic at any Workers value.
	CollectMetrics bool
}

// DefaultCampaignSweep is the campaign grid: the paper's axes (proxies ×
// detector × pacing) on a reliable network, with no measurement workload.
func DefaultCampaignSweep() SweepConfig {
	return SweepConfig{
		Chi:               24,
		Reps:              8,
		Seed:              1,
		MaxSteps:          40,
		OmegaDirect:       2,
		Servers:           3,
		Backends:          []string{"pb"},
		DropRates:         []float64{0},
		ProxyCounts:       []int{2, 3, 4},
		Groups:            []int{1},
		Detectors:         []bool{false, true},
		Pacings:           []uint64{0, 1, 2},
		DetectorThreshold: 8,
		Persist:           []string{"mem"},
		FsyncEvery:        []int{1},
		Jitters:           []uint64{0},
		Leases:            []bool{false},
	}
}

// DefaultFaultSweep is the fault grid: the pristine baseline plus the three
// deterministic degraded scenarios, each measured by the closed-loop health
// check.
func DefaultFaultSweep() SweepConfig {
	c := DefaultCampaignSweep()
	c.Reps, c.MaxSteps = 4, 24
	c.Presets = []string{"none", "rolling-partition", "quorum-partition", "proxy-outage"}
	c.ProxyCounts, c.Detectors, c.Pacings = []int{3}, []bool{false}, []uint64{1}
	c.Workloads = []string{"closed"}
	return c
}

// profile is what the fault-preset axis switches besides the grid itself.
type profile struct {
	salt                            uint64 // offset of the sweep's stream from Seed
	heartbeatTimeout, serverTimeout time.Duration
	healthTimeout, probeTimeout     time.Duration // zero: the attack defaults
	injector                        bool
	defaults                        func() SweepConfig
	cols                            Columns
}

var (
	// Generous relative timings: a campaign grid measures probe economics,
	// not timeout behaviour.
	campaignProfile = profile{
		salt:             6,
		heartbeatTimeout: 200 * time.Millisecond,
		serverTimeout:    5 * time.Second,
		defaults:         DefaultCampaignSweep,
		cols:             campaignColumns,
	}
	// ServerTimeout is deliberately shorter than HeartbeatTimeout, so that a
	// request parked on a backup behind a severed primary fails at the proxy
	// before any failover timer can fire: unavailability under a quorum cut
	// is then a function of the schedule, not of scheduler load.
	faultProfile = profile{
		salt:             7,
		heartbeatTimeout: 250 * time.Millisecond,
		serverTimeout:    150 * time.Millisecond,
		healthTimeout:    600 * time.Millisecond,
		probeTimeout:     2 * time.Second,
		injector:         true,
		defaults:         DefaultFaultSweep,
		cols:             faultColumns,
	}
)

func (c SweepConfig) profile() profile {
	if len(c.Presets) > 0 {
		return faultProfile
	}
	return campaignProfile
}

// Columns is the rendering that matches the config's profile.
func (c SweepConfig) Columns() Columns { return c.profile().cols }

// withDefaults fills zero-valued fields from the profile's defaults. Seed
// and OmegaDirect are exempt, and so are ReadFracs and, on a campaign grid,
// Workloads, whose emptiness means something.
func (c SweepConfig) withDefaults() SweepConfig {
	d := c.profile().defaults()
	orDefault(&c.Chi, d.Chi)
	orDefault(&c.Reps, d.Reps)
	orDefault(&c.MaxSteps, d.MaxSteps)
	orDefault(&c.Servers, d.Servers)
	orDefault(&c.DetectorThreshold, d.DetectorThreshold)
	orDefaults(&c.Backends, d.Backends)
	orDefaults(&c.DropRates, d.DropRates)
	orDefaults(&c.ProxyCounts, d.ProxyCounts)
	orDefaults(&c.Groups, d.Groups)
	orDefaults(&c.Detectors, d.Detectors)
	orDefaults(&c.Pacings, d.Pacings)
	orDefaults(&c.Persist, d.Persist)
	orDefaults(&c.FsyncEvery, d.FsyncEvery)
	orDefaults(&c.Jitters, d.Jitters)
	orDefaults(&c.Workloads, d.Workloads)
	orDefaults(&c.Leases, d.Leases)
	return c
}

func orDefault[T comparable](v *T, d T) {
	var zero T
	if *v == zero {
		*v = d
	}
}

func orDefaults[T any](v *[]T, d []T) {
	if len(*v) == 0 {
		*v = d
	}
}

// SweepRow is one sweep cell: its grid coordinates and its aggregated
// campaign-series outcome. Axes the sweep did not vary hold their single
// value (Preset is empty on a campaign grid).
type SweepRow struct {
	Backend       string
	Preset        string
	DropRate      float64
	Proxies       int
	Groups        int
	Detector      bool
	OmegaIndirect uint64
	// Persist is the persistence mode; FsyncEvery is the WAL sync cadence,
	// 0 on "mem" cells.
	Persist    string
	FsyncEvery int
	Jitter     uint64
	// Workload names the measurement-workload preset ("-" when the cell
	// measured nothing); ReadFrac is its effective read share (NaN when the
	// cell measured nothing).
	Workload    string
	ReadFrac    float64
	Leases      bool
	Reps        uint64
	Compromised uint64
	// MeanLifetime and CI95 summarize the empirical lifetimes (whole steps
	// survived) across the cell's repetitions.
	MeanLifetime float64
	CI95         float64
	// Availability and AvailabilityCI95 summarize the per-repetition
	// fraction of workload probes that got a doubly-signed (or valid
	// lease-read) answer; on sharded cells a step counts only when every
	// group answered. Zero when the cell measured nothing.
	Availability     float64
	AvailabilityCI95 float64
	// ShardAvailability is the mean availability per replica group, nil
	// unless the cell ran sharded and measured. A fault that cuts one group
	// shows as that entry collapsing while the others hold at 1.
	ShardAvailability []float64
	// P50/P99/P999 are virtual-latency percentiles in milliseconds over the
	// merged repetition histograms (the service-time sample when the owning
	// shard answered, the workload deadline when it did not); NaN when the
	// cell observed no requests. ShardP99 is the per-group p99, nil on
	// single-group cells.
	P50      float64
	P99      float64
	P999     float64
	ShardP99 []float64
	// Routes histograms how the compromised repetitions fell.
	Routes map[string]uint64
	// Metrics is the cell's merged metrics snapshot; nil unless the sweep
	// ran with CollectMetrics.
	Metrics *metrics.Snapshot
}

// gridCell is one grid point: the row's coordinates plus what a cell
// needs to run that the row only names.
type gridCell struct {
	row     SweepRow
	backend replica.Backend
	preset  faults.Preset
	spec    workload.Spec // zero: no measurement
}

// Sweep runs every cell of the grid through attack.CampaignSeries and
// returns the rows in grid order.
//
// Determinism matches the Monte-Carlo sweeps: per-cell streams are
// pre-split in grid order and per-repetition streams (injector included)
// in repetition order, so the sweep reproduces bit-identically from (Seed,
// Reps) alone at any Workers value, as long as no wall-clock timeout
// decides a cell.
func Sweep(cfg SweepConfig) ([]SweepRow, error) {
	cfg = cfg.withDefaults()
	if cfg.Reps < 0 {
		return nil, errors.New("experiments: sweep needs a positive repetition count")
	}
	space, err := keyspace.NewSpace(cfg.Chi)
	if err != nil {
		return nil, err
	}
	cells, err := cfg.cells()
	if err != nil {
		return nil, err
	}
	p := cfg.profile()
	persistRoot := cfg.PersistRoot
	for _, persist := range cfg.Persist {
		if persist == "wal" && persistRoot == "" {
			root, err := os.MkdirTemp("", "fortress-sweep-")
			if err != nil {
				return nil, fmt.Errorf("experiments: sweep persist root: %w", err)
			}
			defer os.RemoveAll(root)
			persistRoot = root
			break
		}
	}
	rngs := sim.SplitRNGs(xrand.New(cfg.Seed+p.salt), len(cells))
	inner := innerWorkers(cfg.Workers, len(cells))
	rows := make([]SweepRow, len(cells))
	err = sim.ForEach(len(cells), cfg.Workers, func(i int) error {
		c := cells[i]
		tmpl := fortress.Config{
			Servers:           cfg.Servers,
			Proxies:           c.row.Proxies,
			Groups:            c.row.Groups,
			Backend:           c.backend,
			ServiceFactory:    func() service.Service { return service.NewKV() },
			HeartbeatInterval: 10 * time.Millisecond,
			HeartbeatTimeout:  p.heartbeatTimeout,
			ServerTimeout:     p.serverTimeout,
			CheckpointEvery:   cfg.CheckpointEvery,
			UpdateWindow:      cfg.UpdateWindow,
			Leases:            c.row.Leases,
		}
		if c.row.Detector {
			// An effectively unbounded window keeps flagging a pure
			// function of probe counts, never of wall-clock timing.
			tmpl.DetectorWindow = time.Hour
			tmpl.DetectorThreshold = cfg.DetectorThreshold
		}
		var regs []*metrics.Registry
		if cfg.CollectMetrics {
			regs = seriesRegistries(cfg.Reps)
		}
		sc := attack.SeriesConfig{
			Campaign: attack.CampaignConfig{
				OmegaDirect:   cfg.OmegaDirect,
				OmegaIndirect: c.row.OmegaIndirect,
				MaxSteps:      cfg.MaxSteps,
				Rerandomize:   cfg.Rerandomize,
				HealthTimeout: p.healthTimeout,
				ProbeTimeout:  p.probeTimeout,
				Workload:      c.spec,
			},
			Workers:   inner,
			Customize: c.customize(regs, filepath.Join(persistRoot, fmt.Sprintf("cell%03d", i))),
		}
		if p.injector {
			sc.MakeInjector = c.injector(cfg)
		}
		series, err := attack.CampaignSeries(tmpl, space, sc, cfg.Reps, rngs[i])
		if err != nil {
			return fmt.Errorf("experiments: cell (%s): %w", p.cols.label(c.row), err)
		}
		r := c.row
		r.Reps, r.Compromised, r.Routes = series.Reps, series.Compromised, series.Routes
		r.MeanLifetime, r.CI95 = series.Lifetime.Mean, series.Lifetime.CI95
		r.Availability, r.AvailabilityCI95 = series.Availability.Mean, series.Availability.CI95
		for _, s := range series.ShardAvailability {
			r.ShardAvailability = append(r.ShardAvailability, s.Mean)
		}
		r.P50 = latencyMillis(series.Latency, 0.50)
		r.P99 = latencyMillis(series.Latency, 0.99)
		r.P999 = latencyMillis(series.Latency, 0.999)
		for _, h := range series.ShardLatency {
			r.ShardP99 = append(r.ShardP99, latencyMillis(h, 0.99))
		}
		if regs != nil {
			snap := mergeRegistries(regs)
			r.Metrics = &snap
		}
		rows[i] = r
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// cells resolves the grid into cells, outermost axis first.
func (cfg SweepConfig) cells() ([]gridCell, error) {
	backends := make([]replica.Backend, len(cfg.Backends))
	for i, name := range cfg.Backends {
		b, err := replica.ParseBackend(name)
		if err != nil {
			return nil, fmt.Errorf("experiments: %w", err)
		}
		backends[i] = b
	}
	presets := []faults.Preset{{}} // a campaign grid's one fault-free cell
	if len(cfg.Presets) > 0 {
		presets = make([]faults.Preset, len(cfg.Presets))
		for i, name := range cfg.Presets {
			p, err := faults.PresetByName(name)
			if err != nil {
				return nil, fmt.Errorf("experiments: %w", err)
			}
			presets[i] = p
		}
	} else if len(cfg.DropRates) != 1 || cfg.DropRates[0] != 0 || len(cfg.Jitters) != 1 || cfg.Jitters[0] != 0 {
		return nil, errors.New("experiments: drop-rate and jitter axes need a fault-preset axis")
	}
	for _, g := range cfg.Groups {
		if g < 1 {
			return nil, fmt.Errorf("experiments: group count %d must be at least 1", g)
		}
	}
	// The fsync axis only distinguishes "wal" cells; "mem" collapses it, so
	// the grid carries no duplicate in-memory rows.
	type storage struct {
		persist string
		fsync   int
	}
	var storages []storage
	for _, persist := range cfg.Persist {
		switch persist {
		case "mem":
			storages = append(storages, storage{persist, 0})
		case "wal":
			for _, f := range cfg.FsyncEvery {
				storages = append(storages, storage{persist, f})
			}
		default:
			return nil, fmt.Errorf("experiments: unknown persistence mode %q (want \"mem\" or \"wal\")", persist)
		}
	}
	workloads, err := cfg.workloadCells()
	if err != nil {
		return nil, err
	}

	cells := []gridCell{{}}
	cells = fan(cells, backends, func(c *gridCell, b replica.Backend) { c.backend, c.row.Backend = b, b.String() })
	cells = fan(cells, presets, func(c *gridCell, p faults.Preset) { c.preset, c.row.Preset = p, p.Name })
	cells = fan(cells, cfg.DropRates, func(c *gridCell, d float64) { c.row.DropRate = d })
	cells = fan(cells, cfg.ProxyCounts, func(c *gridCell, n int) { c.row.Proxies = n })
	cells = fan(cells, cfg.Groups, func(c *gridCell, g int) { c.row.Groups = g })
	cells = fan(cells, cfg.Detectors, func(c *gridCell, d bool) { c.row.Detector = d })
	cells = fan(cells, cfg.Pacings, func(c *gridCell, p uint64) { c.row.OmegaIndirect = p })
	cells = fan(cells, storages, func(c *gridCell, s storage) { c.row.Persist, c.row.FsyncEvery = s.persist, s.fsync })
	cells = fan(cells, cfg.Jitters, func(c *gridCell, j uint64) { c.row.Jitter = j })
	cells = fan(cells, workloads, func(c *gridCell, w gridCell) {
		c.spec, c.row.Workload, c.row.ReadFrac, c.row.Leases = w.spec, w.row.Workload, w.row.ReadFrac, w.row.Leases
	})
	return cells, nil
}

// fan replaces every cell by one copy per value, in value order.
func fan[T any](cells []gridCell, vals []T, set func(*gridCell, T)) []gridCell {
	out := make([]gridCell, 0, len(cells)*len(vals))
	for _, c := range cells {
		for _, v := range vals {
			set(&c, v)
			out = append(out, c)
		}
	}
	return out
}

// workloadCells resolves the workload × read fraction × leases axes. With
// neither workloads nor read fractions named, every cell measures nothing.
func (cfg SweepConfig) workloadCells() ([]gridCell, error) {
	names, rfs := cfg.Workloads, cfg.ReadFracs
	off := len(names) == 0 && len(rfs) == 0
	if len(names) == 0 {
		names = []string{"closed"}
	}
	if len(rfs) == 0 {
		rfs = []float64{math.NaN()} // NaN: keep the preset's own mix
	}
	var cells []gridCell
	for _, name := range names {
		preset, err := workload.PresetByName(name)
		if err != nil {
			return nil, fmt.Errorf("experiments: %w", err)
		}
		for _, rf := range rfs {
			spec := preset
			if !math.IsNaN(rf) {
				if rf < 0 || rf > 1 {
					return nil, fmt.Errorf("experiments: read fraction %g outside [0,1]", rf)
				}
				spec.ReadFraction = rf
			}
			for _, l := range cfg.Leases {
				c := gridCell{spec: spec, row: SweepRow{Workload: name, ReadFrac: spec.ReadFraction, Leases: l}}
				if off {
					c.spec, c.row.Workload, c.row.ReadFrac = workload.Spec{}, "-", math.NaN()
				}
				cells = append(cells, c)
			}
		}
	}
	return cells, nil
}

// customize installs a cell's per-repetition resources: a private metrics
// registry, and on "wal" cells one store per server under dir.
func (c gridCell) customize(regs []*metrics.Registry, dir string) func(rep int, fc *fortress.Config) {
	wal := c.row.Persist == "wal"
	if !wal && regs == nil {
		return nil
	}
	return func(rep int, fc *fortress.Config) {
		var reg *metrics.Registry
		if regs != nil {
			reg = regs[rep]
			fc.Metrics = reg
		}
		if wal {
			fc.StoreFactory = func(server int) (store.Store, error) {
				return store.Open(store.WALConfig{
					Dir:       filepath.Join(dir, fmt.Sprintf("r%03d", rep), fmt.Sprintf("s%d", server)),
					SyncEvery: c.row.FsyncEvery,
					Metrics:   reg,
					Node:      fortress.ServerAddr(server),
				})
			}
		}
	}
}

// injector replays the cell's preset, plus its drop rate installed at step
// 0, against each repetition's own deployment, from that repetition's own
// stream.
func (c gridCell) injector(cfg SweepConfig) func(int, *fortress.System, *xrand.RNG) attack.StepInjector {
	sched := c.preset.Build(faults.Shape{Groups: c.row.Groups, Servers: cfg.Servers, Proxies: c.row.Proxies}, cfg.MaxSteps)
	if c.row.DropRate > 0 {
		sched = faults.Schedule{Events: append([]faults.Event{faults.DropRate(0, c.row.DropRate)}, sched.Events...)}
	}
	return func(rep int, sys *fortress.System, rng *xrand.RNG) attack.StepInjector {
		repSched := sched
		if c.row.Jitter > 0 {
			// Every repetition replays its own realization of the schedule,
			// still bitwise reproducible at any Workers value.
			repSched = faults.Jitter(sched, c.row.Jitter, rng)
		}
		inj, err := faults.NewInjector(repSched, sys, rng)
		if err != nil {
			// Unreachable: construction fails only on a nil system or a
			// drop-rate event without an rng, and both are supplied.
			panic(fmt.Sprintf("experiments: fault injector: %v", err))
		}
		return inj
	}
}

// latencyMillis converts a histogram quantile to milliseconds, NaN when the
// histogram is empty.
func latencyMillis(h workload.Hist, q float64) float64 {
	if h.Count == 0 {
		return math.NaN()
	}
	return float64(h.Quantile(q)) / 1e6
}
