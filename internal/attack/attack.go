// Package attack implements the attacker machinery of §2.1 and §4.2
// against the executable stack: the classic two-phase de-randomization
// attack over a direct connection (as in [10, 12]), and the full campaign
// against a FORTRESS deployment combining direct proxy probes, paced
// indirect server probes, and the captured-proxy launch pad.
package attack

import (
	"errors"
	"fmt"
	"math"
	"time"

	"fortress/internal/exploit"
	"fortress/internal/fortress"
	"fortress/internal/keyspace"
	"fortress/internal/memlayout"
	"fortress/internal/metrics"
	"fortress/internal/netsim"
	"fortress/internal/proxy"
	"fortress/internal/workload"
	"fortress/internal/xrand"
)

// DirectResult reports a completed two-phase de-randomization attack
// against a directly accessible forking server.
type DirectResult struct {
	// ProbesUsed counts phase-1 probes (each one crashed a child).
	ProbesUsed uint64
	// Compromised reports phase-2 success.
	Compromised bool
}

// Derandomize runs the [10, 12] attack against a forking daemon the
// attacker can reach directly: probe candidate keys one by one — each
// wrong guess crashes a child, observably, and the daemon forks a fresh
// one — until a guess compromises the child.
func Derandomize(space *keyspace.Space, daemon *memlayout.ForkingDaemon, rng *xrand.RNG) (DirectResult, error) {
	guesser, err := keyspace.NewGuesser(space, rng)
	if err != nil {
		return DirectResult{}, fmt.Errorf("attack: %w", err)
	}
	var res DirectResult
	for {
		guess, ok := guesser.NextCandidate()
		if !ok {
			return res, errors.New("attack: key space exhausted without compromise")
		}
		outcome, err := daemon.DeliverExploit(guess)
		if err != nil {
			return res, fmt.Errorf("attack: deliver: %w", err)
		}
		if outcome == memlayout.ProbeCompromised {
			res.Compromised = true
			return res, nil
		}
		// ProbeCrashed: candidate eliminated, daemon forks a new child.
		res.ProbesUsed++
	}
}

// DerandomizeOverNetwork runs the same attack with the crash oracle
// realized over the network: the attacker dials the victim, delivers one
// probe, and watches whether its connection closes (victim crashed → wrong
// guess) or a reply arrives (right guess → compromised).
//
// deliver sends one exploit payload on the connection; it is the transport
// glue the caller provides (e.g. wrapping the payload in the victim's
// request format).
func DerandomizeOverNetwork(
	space *keyspace.Space,
	net *netsim.Network,
	attackerAddr, victimAddr string,
	deliver func(conn *netsim.Conn, probe []byte) error,
	rng *xrand.RNG,
) (DirectResult, error) {
	guesser, err := keyspace.NewGuesser(space, rng)
	if err != nil {
		return DirectResult{}, fmt.Errorf("attack: %w", err)
	}
	var res DirectResult
	for {
		guess, ok := guesser.NextCandidate()
		if !ok {
			return res, errors.New("attack: key space exhausted without compromise")
		}
		conn, err := dialWithRetry(net, attackerAddr, victimAddr)
		if err != nil {
			return res, fmt.Errorf("attack: dial victim: %w", err)
		}
		if err := deliver(conn, exploit.NewPayload(exploit.TierServer, guess)); err != nil {
			conn.Close()
			return res, fmt.Errorf("attack: deliver: %w", err)
		}
		// The crash oracle: victim death closes the connection before any
		// reply; survival produces a reply.
		reply, recvErr := conn.Recv()
		if recvErr == nil {
			netsim.Release(reply)
		}
		conn.Close()
		if recvErr == nil {
			res.Compromised = true
			return res, nil
		}
		res.ProbesUsed++
	}
}

// dialWithRetry dials the victim, retrying briefly: right after a crash the
// forking daemon needs a moment to bring the service back, and a real
// attacker simply reconnects until it does.
func dialWithRetry(net *netsim.Network, from, to string) (*netsim.Conn, error) {
	const (
		attempts = 500
		backoff  = time.Millisecond
	)
	var lastErr error
	for i := 0; i < attempts; i++ {
		conn, err := net.Dial(from, to)
		if err == nil {
			return conn, nil
		}
		lastErr = err
		time.Sleep(backoff)
	}
	return nil, lastErr
}

// --- FORTRESS campaign --------------------------------------------------

// StepInjector advances a fault-injection plan against the campaign's
// virtual clock. Campaign calls Advance(step) at the top of every unit
// time-step, before that step's probes, so an event scheduled at step t is
// in force for all of step t's traffic. faults.Injector implements it.
type StepInjector interface {
	Advance(step uint64) error
}

// CampaignConfig tunes a full attack on a FORTRESS deployment.
type CampaignConfig struct {
	// OmegaDirect is the probe budget per unit time-step for direct proxy
	// attacks (and for launch-pad server attacks once a proxy falls).
	OmegaDirect uint64
	// OmegaIndirect is the paced budget for server probes through proxies
	// (κ·ω in the model; the attacker throttles it to stay under the
	// detector threshold).
	OmegaIndirect uint64
	// MaxSteps bounds the campaign.
	MaxSteps uint64
	// Rerandomize re-randomizes the target after every step (PO) when
	// true; otherwise the system keeps its start-up keys (SO).
	Rerandomize bool
	// Injector, when non-nil, is advanced once per step with the step
	// number — the hook a fault schedule drives the network through.
	Injector StepInjector
	// MeasureAvailability makes the campaign issue one client health-check
	// request per step (before the step's probes) and count the steps in
	// which the service answered — the availability the paper's claims are
	// about, measured while the attack and any fault schedule run.
	MeasureAvailability bool
	// Workload declares the measurement workload (see internal/workload).
	// A non-zero Spec switches availability measurement on implicitly and
	// drives it: closed-loop specs issue one health-check probe per step at
	// the spec's read mix, open-loop specs probe each (shard, read/write
	// class) once per step and resolve every generated arrival — 10⁴–10⁶
	// simulated clients' worth — against those outcomes, charging each
	// request a virtual latency (its seeded service-time sample on success,
	// the spec's Deadline on failure) into Latency. With MeasureAvailability
	// set and the Spec zero, the campaign runs the "closed" preset: one
	// all-read probe per step.
	Workload workload.Spec
	// HealthTimeout bounds each availability health check. Zero selects a
	// default generous enough that only genuine unavailability (a severed
	// quorum, a dead proxy tier) fails the check.
	HealthTimeout time.Duration
	// ProbeTimeout bounds how long the attacker waits for each probe's
	// outcome. Zero waits indefinitely — fine on a reliable network, but a
	// lossy link can swallow a probe or its reply, so campaigns under a
	// drop-rate schedule must set it.
	ProbeTimeout time.Duration
}

func (c CampaignConfig) validate() error {
	if c.MaxSteps == 0 {
		return errors.New("attack: campaign needs MaxSteps")
	}
	if c.OmegaDirect == 0 && c.OmegaIndirect == 0 {
		return errors.New("attack: campaign needs a probe budget")
	}
	return nil
}

// healthTimeout returns the configured health-check bound or its default.
func (c CampaignConfig) healthTimeout() time.Duration {
	if c.HealthTimeout > 0 {
		return c.HealthTimeout
	}
	return 2 * time.Second
}

// workloadSpec resolves the measurement workload: the configured Spec, or
// the "closed" preset when none is set.
func (c CampaignConfig) workloadSpec() workload.Spec {
	if !c.Workload.IsZero() {
		return c.Workload
	}
	spec, _ := workload.PresetByName("closed") // in the catalog, cannot fail
	return spec
}

// measures reports whether the campaign runs a measurement workload.
func (c CampaignConfig) measures() bool {
	return c.MeasureAvailability || !c.Workload.IsZero()
}

// CampaignResult reports a campaign outcome.
type CampaignResult struct {
	// StepsElapsed is the number of whole unit time-steps completed before
	// compromise — the empirical lifetime (Definition 7).
	StepsElapsed uint64
	// Compromised reports whether the system fell within MaxSteps.
	Compromised bool
	// Route records how it fell: "server-indirect", "server-launchpad" or
	// "all-proxies".
	Route string
	// ProbedSteps and AvailableSteps report the availability measurement
	// (MeasureAvailability): of ProbedSteps health checks, AvailableSteps
	// got a doubly-signed answer. Both zero when measurement is off.
	ProbedSteps    uint64
	AvailableSteps uint64
	// ReadProbes counts how many of ProbedSteps were issued as reads; the
	// rest were writes. The realized read/write mix of the workload axis.
	ReadProbes uint64
	// ShardProbedSteps and ShardAvailableSteps break the availability
	// measurement down per replica group on a sharded deployment: each
	// step probes one ring-owned key per group (same read/write decision
	// for all of them), and a step counts toward AvailableSteps only when
	// every group answered. Nil on single-group deployments, where the
	// aggregate fields carry the whole story.
	ShardProbedSteps    []uint64
	ShardAvailableSteps []uint64
	// Requests counts the workload arrivals resolved against the step
	// probes: closed-loop resolves its one request per step against each
	// group it probed, open-loop resolves every generated arrival against
	// its owning group only. RequestsOK met their probe; ReadRequests were
	// read-class. Latency.Count always equals Requests.
	Requests     uint64
	RequestsOK   uint64
	ReadRequests uint64
	// Latency is the virtual-latency histogram over all resolved requests:
	// each sample is the request's seeded service-time draw when its
	// group's probe answered, or the workload's per-request Deadline when
	// it did not — a pure function of the seeded streams, never wall
	// clock, so it stays bit-identical at any worker count.
	Latency workload.Hist
	// ShardLatency breaks Latency down per replica group. Nil on
	// single-group deployments.
	ShardLatency []workload.Hist
}

// Availability returns AvailableSteps/ProbedSteps, or NaN when no health
// checks ran.
func (r CampaignResult) Availability() float64 {
	if r.ProbedSteps == 0 {
		return math.NaN()
	}
	return float64(r.AvailableSteps) / float64(r.ProbedSteps)
}

// ShardAvailabilities returns the per-replica-group availability fractions,
// or nil on a single-group deployment (or when measurement was off).
func (r CampaignResult) ShardAvailabilities() []float64 {
	if len(r.ShardProbedSteps) == 0 {
		return nil
	}
	out := make([]float64, len(r.ShardProbedSteps))
	for g := range out {
		if r.ShardProbedSteps[g] == 0 {
			out[g] = math.NaN()
			continue
		}
		out[g] = float64(r.ShardAvailableSteps[g]) / float64(r.ShardProbedSteps[g])
	}
	return out
}

// Campaign drives a de-randomization campaign against a live FORTRESS
// system. Each unit time-step the attacker:
//
//  1. sends OmegaDirect proxy-targeted probes (request fan-out means one
//     guess tests every live proxy's key);
//  2. sends OmegaIndirect server-targeted probes through a surviving proxy;
//  3. uses any captured proxy as a launch pad for unscreened direct server
//     probes with the full direct budget.
//
// Per-tier guessers carry eliminated-candidate knowledge across steps and
// are reset whenever the system re-randomizes — the with/without
// replacement distinction of §4.1, enacted.
func Campaign(sys *fortress.System, space *keyspace.Space, cfg CampaignConfig, rng *xrand.RNG) (CampaignResult, error) {
	if err := cfg.validate(); err != nil {
		return CampaignResult{}, err
	}
	var res CampaignResult
	// Record once, from the final result: CampaignResult is a pure function
	// of the seeded request/fault stream (the determinism suite pins it), so
	// these counters land in the registry's Stable section.
	defer func() { recordCampaign(sys.Metrics(), &res) }()
	proxyGuesser, err := keyspace.NewGuesser(space, rng.Split())
	if err != nil {
		return CampaignResult{}, err
	}
	serverGuesser, err := keyspace.NewGuesser(space, rng.Split())
	if err != nil {
		return CampaignResult{}, err
	}
	var meas *measurer
	if cfg.measures() {
		// The workload generator splits its streams from rng AFTER the two
		// guessers, and rng is never read again, so the guesser streams —
		// and with them every pre-workload result — are undisturbed.
		meas, err = newMeasurer(sys, cfg, &res, rng.Split())
		if err != nil {
			return CampaignResult{}, err
		}
	}

	for step := uint64(0); step < cfg.MaxSteps; step++ {
		// Faults first: an event scheduled at this step governs the whole
		// step, health check included.
		if cfg.Injector != nil {
			if err := cfg.Injector.Advance(step); err != nil {
				return res, err
			}
		}
		if meas != nil {
			meas.step(step)
		}
		route, err := campaignStep(sys, cfg, step, proxyGuesser, serverGuesser)
		if err != nil {
			return res, err
		}
		if route != "" {
			res.Compromised = true
			res.Route = route
			res.StepsElapsed = step
			return res, nil
		}
		// Period boundary: PO re-randomizes (attacker knowledge dies with
		// the keys); SO merely recovers crashed nodes with unchanged keys
		// (§4.1) — knowledge persists.
		if cfg.Rerandomize {
			if err := sys.Rerandomize(); err != nil {
				return res, err
			}
			proxyGuesser.Reset()
			serverGuesser.Reset()
		} else if err := sys.Recover(); err != nil {
			return res, err
		}
	}
	res.StepsElapsed = cfg.MaxSteps
	return res, nil
}

// measurer drives the campaign's measurement workload: the generator, the
// per-step health/class probes, and the virtual-latency accounting that
// turns probe outcomes into CampaignResult latency histograms.
type measurer struct {
	health    *proxy.Client
	gen       *workload.Gen
	spec      workload.Spec
	closed    bool
	res       *CampaignResult
	shardKeys []string // ring probe key per group; nil single-group
	owners    []int    // workload key ID -> owning group; nil single-group or closed
	readOK    []bool   // per-group probe outcomes for the current step
	writeOK   []bool
	buf       []workload.Request
}

func newMeasurer(sys *fortress.System, cfg CampaignConfig, res *CampaignResult, rng *xrand.RNG) (*measurer, error) {
	gen, err := workload.NewGen(cfg.workloadSpec(), rng)
	if err != nil {
		return nil, fmt.Errorf("attack: workload: %w", err)
	}
	health, err := sys.Client("health-probe", cfg.healthTimeout())
	if err != nil {
		return nil, fmt.Errorf("attack: health client: %w", err)
	}
	spec := gen.Spec()
	m := &measurer{
		health: health,
		gen:    gen,
		spec:   spec,
		closed: spec.Arrival == workload.ClosedLoop,
		res:    res,
	}
	if groups := sys.Groups(); groups > 1 {
		// One deterministic ring-owned key per replica group: the same
		// probe keys every repetition, so sharded availability stays a
		// pure function of the seeded streams.
		ring := sys.Ring()
		m.shardKeys = make([]string, groups)
		for g := range m.shardKeys {
			m.shardKeys[g] = ring.ProbeKey(g)
		}
		res.ShardProbedSteps = make([]uint64, groups)
		res.ShardAvailableSteps = make([]uint64, groups)
		res.ShardLatency = make([]workload.Hist, groups)
		if !m.closed {
			// Precompute each workload key's owning group once; arrivals
			// then resolve by table lookup instead of hashing per request.
			m.owners = make([]int, spec.Keys)
			for k := range m.owners {
				m.owners[k] = ring.Owner(fmt.Sprintf("wlk-%d", k))
			}
		}
	}
	if !m.closed {
		groups := max(sys.Groups(), 1)
		m.readOK = make([]bool, groups)
		m.writeOK = make([]bool, groups)
	}
	return m, nil
}

// step runs one time-step of the measurement workload against the live
// system: probe, then resolve that step's arrivals against the outcomes.
func (m *measurer) step(step uint64) {
	if m.closed {
		m.closedStep(step)
		return
	}
	m.openStep(step)
}

// closedStep is the legacy one-probe-per-step health check, byte-for-byte:
// same probe ids, same request bodies, same deterministic read/write
// threshold (the generator reproduces it), same availability accounting —
// plus the latency observation layered on top.
func (m *measurer) closedStep(step uint64) {
	m.buf = m.gen.Arrivals(step, m.buf[:0])
	req := m.buf[0]
	m.res.ProbedSteps++
	if req.Read {
		m.res.ReadProbes++
	}
	if m.shardKeys == nil {
		ok := checkHealth(m.health, step, req.Read)
		if ok {
			m.res.AvailableSteps++
		}
		m.observe(req, ok, -1)
		return
	}
	// Probe every shard with its own key; the step counts as available
	// only when every group answers, while the per-group tallies localize
	// any outage to its shard.
	allUp := true
	for g, key := range m.shardKeys {
		m.res.ShardProbedSteps[g]++
		ok := checkShardHealth(m.health, step, g, key, req.Read)
		if ok {
			m.res.ShardAvailableSteps[g]++
		} else {
			allUp = false
		}
		m.observe(req, ok, g)
	}
	if allUp {
		m.res.AvailableSteps++
	}
}

// openStep measures an open-loop workload. Real traffic stays bounded — at
// most one probe per (group, read/write class) per step, whatever the
// simulated client count — and every generated arrival resolves against its
// owning group's class outcome: service-time sample if the probe answered,
// the spec Deadline if not. Service samples were already drawn at
// generation time, so the RNG streams never depend on probe outcomes.
func (m *measurer) openStep(step uint64) {
	needRead := m.spec.ReadFraction > 0
	needWrite := m.spec.ReadFraction < 1
	m.res.ProbedSteps++
	if needRead {
		m.res.ReadProbes++
	}
	allUp := true
	for g := range m.readOK {
		key := "health"
		if m.shardKeys != nil {
			key = m.shardKeys[g]
			m.res.ShardProbedSteps[g]++
		}
		up := true
		if needRead {
			m.readOK[g] = probeClass(m.health, fmt.Sprintf("wl-%d-g%d-r", step, g), key, true, step)
			up = up && m.readOK[g]
		}
		if needWrite {
			m.writeOK[g] = probeClass(m.health, fmt.Sprintf("wl-%d-g%d-w", step, g), key, false, step)
			up = up && m.writeOK[g]
		}
		if m.shardKeys != nil && up {
			m.res.ShardAvailableSteps[g]++
		}
		allUp = allUp && up
	}
	if allUp {
		m.res.AvailableSteps++
	}
	m.buf = m.gen.Arrivals(step, m.buf[:0])
	for _, req := range m.buf {
		g := 0
		if m.owners != nil {
			g = m.owners[int(req.Key)%len(m.owners)]
		}
		ok := m.writeOK[g]
		if req.Read {
			ok = m.readOK[g]
		}
		shard := -1
		if m.shardKeys != nil {
			shard = g
		}
		m.observe(req, ok, shard)
	}
}

// observe charges one resolved request its virtual latency: the seeded
// service-time sample when its probe answered, the workload deadline when
// it did not.
func (m *measurer) observe(req workload.Request, ok bool, shard int) {
	m.res.Requests++
	lat := m.spec.Deadline
	if ok {
		m.res.RequestsOK++
		lat = req.Service
	}
	if req.Read {
		m.res.ReadRequests++
	}
	m.res.Latency.Observe(lat)
	if shard >= 0 {
		m.res.ShardLatency[shard].Observe(lat)
	}
}

// probeClass issues one open-loop class probe: a keyed get through the
// lease-aware read path, or a keyed put through the ordered write path.
func probeClass(c *proxy.Client, id, key string, read bool, step uint64) bool {
	var err error
	if read {
		_, err = c.InvokeRead(id, []byte(fmt.Sprintf(`{"op":"get","key":%q}`, key)))
	} else {
		_, err = c.Invoke(id, []byte(fmt.Sprintf(`{"op":"put","key":%q,"value":"step-%d"}`, key, step)))
	}
	return err == nil
}

// recordCampaign publishes one finished campaign's result into the system's
// registry as Stable-class counters: each value is derived from the
// CampaignResult the determinism suite already pins byte-identical across
// worker counts, so per-repetition snapshots compare equal at any -workers.
func recordCampaign(reg *metrics.Registry, res *CampaignResult) {
	if reg == nil {
		return
	}
	reg.Counter("campaign_runs_total", metrics.Stable).Inc()
	reg.Counter("campaign_steps_total", metrics.Stable).Add(res.StepsElapsed)
	reg.Counter("campaign_health_probes_total", metrics.Stable).Add(res.ProbedSteps)
	reg.Counter("campaign_read_probes_total", metrics.Stable).Add(res.ReadProbes)
	reg.Counter("campaign_write_probes_total", metrics.Stable).Add(res.ProbedSteps - res.ReadProbes)
	reg.Counter("campaign_available_steps_total", metrics.Stable).Add(res.AvailableSteps)
	for g := range res.ShardProbedSteps {
		reg.Counter(fmt.Sprintf("campaign_shard_probes_total{group=\"%d\"}", g),
			metrics.Stable).Add(res.ShardProbedSteps[g])
		reg.Counter(fmt.Sprintf("campaign_shard_available_steps_total{group=\"%d\"}", g),
			metrics.Stable).Add(res.ShardAvailableSteps[g])
	}
	if res.Requests > 0 {
		reg.Counter("workload_requests_total", metrics.Stable).Add(res.Requests)
		reg.Counter("workload_requests_ok_total", metrics.Stable).Add(res.RequestsOK)
		reg.Counter("workload_read_requests_total", metrics.Stable).Add(res.ReadRequests)
	}
	if res.Compromised {
		reg.Counter("campaign_compromises_total", metrics.Stable).Inc()
	}
}

// checkHealth issues one availability probe. Reads go through the
// lease-aware InvokeRead path (a lease-holding replica answers locally;
// without a valid lease the request falls back to the ordered path), writes
// are keyed puts through the full doubly-signed path. Any verified response —
// including a service-level "no such key" error body — counts as available;
// only transport failure (no reachable proxy, no committable server
// response) does not.
func checkHealth(c *proxy.Client, step uint64, read bool) bool {
	id := fmt.Sprintf("health-%d", step)
	var err error
	if read {
		_, err = c.InvokeRead(id, []byte(`{"op":"get","key":"health"}`))
	} else {
		_, err = c.Invoke(id, []byte(fmt.Sprintf(`{"op":"put","key":"health","value":"step-%d"}`, step)))
	}
	return err == nil
}

// checkShardHealth is checkHealth aimed at one replica group of a sharded
// deployment: the probe body carries a key the routing ring assigns to
// that group, so the proxies forward it to exactly the shard under test.
func checkShardHealth(c *proxy.Client, step uint64, group int, key string, read bool) bool {
	id := fmt.Sprintf("health-%d-g%d", step, group)
	var err error
	if read {
		_, err = c.InvokeRead(id, []byte(fmt.Sprintf(`{"op":"get","key":%q}`, key)))
	} else {
		_, err = c.Invoke(id, []byte(fmt.Sprintf(`{"op":"put","key":%q,"value":"step-%d"}`, key, step)))
	}
	return err == nil
}

// campaignStep runs one unit time-step and returns the compromise route,
// or "" if the system survived. After every crash-inducing probe the
// target's forking daemons respawn the dead process (sys.Recover), which is
// what lets an attacker sustain ω probes per step (§2.1).
//
// Every probe carries its own request id — probe-<step>-<i> through a
// proxy, lp-<step>-<i> from the launch pad — a pure function of its place
// in the campaign. A reused id would be answered from a server's reply
// table instead of reaching the exploit guard, and which probes that
// swallowed would depend on how the previous forward raced the next probe.
func campaignStep(sys *fortress.System, cfg CampaignConfig, step uint64, proxyGuesser, serverGuesser *keyspace.Guesser) (string, error) {
	probes := 0
	probeID := func() string {
		probes++
		return fmt.Sprintf("probe-%d-%d", step, probes-1)
	}
	// Stage 1: direct probes at the proxy tier. Request fan-out: each
	// guess is delivered to every live proxy.
	for i := uint64(0); i < cfg.OmegaDirect; i++ {
		guess, ok := proxyGuesser.NextCandidate()
		if !ok {
			break
		}
		for _, p := range sys.Proxies() {
			if p.Crashed() || p.Compromised() {
				continue
			}
			deliverProbe(sys, p, probeID(), exploit.NewPayload(exploit.TierProxy, guess), cfg.ProbeTimeout)
		}
		if err := sys.Recover(); err != nil {
			return "", err
		}
	}
	if st := sys.Status(); st.ProxiesCompromised > 0 && st.Compromised {
		return "all-proxies", nil
	}

	// Stage 2: paced indirect probes at the server tier.
	for i := uint64(0); i < cfg.OmegaIndirect; i++ {
		guess, ok := serverGuesser.NextCandidate()
		if !ok {
			break
		}
		deliverIndirectProbe(sys, probeID(), exploit.NewPayload(exploit.TierServer, guess), cfg.ProbeTimeout)
		if err := sys.Recover(); err != nil {
			return "", err
		}
		if sys.Status().ServersCompromised > 0 {
			return "server-indirect", nil
		}
	}

	// Stage 3: launch pad through the first captured proxy.
	for _, p := range sys.Proxies() {
		if !p.Compromised() {
			continue
		}
		for i := uint64(0); i < cfg.OmegaDirect; i++ {
			guess, ok := serverGuesser.NextCandidate()
			if !ok {
				break
			}
			_, _ = p.RawForward(0, fmt.Sprintf("lp-%d-%d", step, i), exploit.NewPayload(exploit.TierServer, guess))
			if err := sys.Recover(); err != nil {
				return "", err
			}
			if sys.Status().ServersCompromised > 0 {
				return "server-launchpad", nil
			}
		}
		break // one launch pad suffices
	}

	if st := sys.Status(); st.Compromised {
		if st.ServersCompromised > 0 {
			return "server-indirect", nil
		}
		return "all-proxies", nil
	}
	return "", nil
}

// deliverProbe sends one exploit request directly to a proxy and waits for
// the outcome (reply, block or crash-closure). A positive timeout bounds
// the wait — without one, a probe whose request or reply a lossy link
// swallowed would park the campaign forever.
func deliverProbe(sys *fortress.System, p *proxy.Proxy, id string, payload []byte, timeout time.Duration) {
	conn, err := sys.Net().Dial("attacker", p.Addr())
	if err != nil {
		return
	}
	defer conn.Close()
	if err := conn.Send(proxy.EncodeRequest(id, payload)); err != nil {
		return
	}
	// Reply, error, closure or timeout — the outcome state is read elsewhere.
	var reply []byte
	if timeout > 0 {
		reply, err = conn.RecvTimeout(timeout)
	} else {
		reply, err = conn.Recv()
	}
	if err == nil {
		netsim.Release(reply)
	}
}

// deliverIndirectProbe sends one server-targeted exploit request through
// the first live proxy.
func deliverIndirectProbe(sys *fortress.System, id string, payload []byte, timeout time.Duration) {
	for _, p := range sys.Proxies() {
		if p.Crashed() {
			continue
		}
		deliverProbe(sys, p, id, payload, timeout)
		return
	}
}
