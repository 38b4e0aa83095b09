// Package fortress assembles the complete FORTRESS system (§3): a
// primary-backup server tier fortified by a redundant proxy tier behind a
// trusted name server, with the proactive-obfuscation scheduler that
// re-randomizes every node at each period boundary.
//
// The paper's prescriptions implemented here:
//
//   - n_s servers and n_p proxies; clients talk only to proxies.
//   - Servers are randomized identically (one shared key), so
//     primary-to-backup state transfer needs no marshalling layer; proxies
//     are randomized with n_p distinct keys. (n_p + 1) keys are in use at
//     any time.
//   - Clients learn proxy addresses/keys and server indices/keys from the
//     read-only name server; server addresses stay hidden.
//   - Responses reach clients doubly signed: by a server (with its index)
//     and over-signed by a proxy.
//   - Rerandomize reboots every node with fresh keys: executables change,
//     attacker knowledge evaporates, service state survives via the
//     primary-backup snapshot chain.
package fortress

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"fortress/internal/exploit"
	"fortress/internal/keyspace"
	"fortress/internal/memlayout"
	"fortress/internal/metrics"
	"fortress/internal/nameserver"
	"fortress/internal/netsim"
	"fortress/internal/proxy"
	"fortress/internal/replica"
	"fortress/internal/replica/pb"
	"fortress/internal/replica/smr"
	"fortress/internal/replica/store"
	"fortress/internal/service"
	"fortress/internal/shard"
	"fortress/internal/sig"
	"fortress/internal/xrand"
)

// Config describes a FORTRESS deployment.
type Config struct {
	// Servers is n_s, the server count (paper: 3). With Groups > 1 it is
	// the per-group count: the deployment boots Groups×Servers servers in
	// one global index space, group g owning indices [g·Servers,
	// (g+1)·Servers).
	Servers int
	// Proxies is n_p, the proxy count (paper: 3).
	Proxies int
	// Groups is the number of independent replica groups the service
	// keyspace is partitioned across (0 or 1 = the classic single-group
	// deployment). Each group runs its own instance of the Backend
	// protocol over its own slice of the server index space; the proxy
	// tier routes each request to the owning group via a deterministic
	// consistent-hash ring seeded from Seed, so aggregate ordering
	// throughput scales with Groups instead of capping at one
	// sequencer/primary.
	Groups int
	// Backend selects the server tier's replication engine: primary-backup
	// (the paper's fortified tier, the zero value) or state machine
	// replication. Everything else — proxies, name server, randomization,
	// fault schedules — is backend-agnostic, so sweeps can compare
	// replication styles under identical attack and failure loads.
	Backend replica.Backend
	// Space is the randomization key space (χ).
	Space *keyspace.Space
	// Seed drives all randomization draws.
	Seed uint64
	// ServiceFactory builds one fresh service instance per server per
	// epoch; state carries over via snapshots.
	ServiceFactory func() service.Service
	// DetectorWindow and DetectorThreshold configure probe-source
	// detection at the proxies; a zero window disables detection.
	DetectorWindow    time.Duration
	DetectorThreshold int
	// HeartbeatInterval/Timeout tune the PB failure detector.
	HeartbeatInterval time.Duration
	HeartbeatTimeout  time.Duration
	// CheckpointEvery is the PB update stream's full-snapshot cadence: every
	// k-th update ships a checkpoint instead of a delta. Zero selects the
	// engine default (32); one restores the classic full-snapshot-per-update
	// stream. Ignored by the SMR backend, whose orders are always deltas by
	// construction.
	CheckpointEvery int
	// UpdateWindow bounds the per-replica resync history: the PB primary's
	// retained unacknowledged deltas and the SMR leader's catch-up log
	// suffix. Zero selects the engine defaults (256 and 512 respectively);
	// negative retains nothing, forcing every resync onto the
	// checkpoint/snapshot path.
	UpdateWindow int
	// Leases enables SMR read leases: requests tagged as reads are served
	// from local replica state under heartbeat-bounded leases instead of
	// entering the order protocol, so read-mostly throughput scales with
	// replica count. Ignored by the PB backend, which has no local read
	// path.
	Leases bool
	// LeaseDuration bounds lease validity; zero selects the engine default
	// (HeartbeatTimeout/2). Must not exceed HeartbeatTimeout.
	LeaseDuration time.Duration
	// StoreFactory builds the persistent store for server i. Stores are
	// created once per server index and survive node crashes, restarts and
	// re-randomization epochs (they are reset at epoch boundaries, where
	// sequence numbering restarts): a server rebuilt over a non-empty
	// durable store recovers its state from disk instead of from a live
	// peer — which is what lets a whole-cluster blackout heal. Nil means no
	// persistence (the engines' zero-allocation in-memory default).
	StoreFactory func(server int) (store.Store, error)
	// ServerTimeout bounds proxy→server interactions.
	ServerTimeout time.Duration
	// Net is the network to deploy on; nil creates a private one.
	Net *netsim.Network
	// Metrics, when non-nil, receives instruments from every layer of the
	// deployment — replica runtimes, protocol engines, proxies, and the
	// system's own lifecycle counters and per-node trace rings. When Net is
	// nil the private network is built with drop counters on the same
	// registry; a caller-provided Net wires its own (netsim.WithMetrics).
	// Observational only: no protocol or scheduling decision reads a metric
	// back, so instrumented runs stay bit-identical to bare ones.
	Metrics *metrics.Registry
}

// groups resolves Config.Groups: the zero value means one group.
func (c Config) groups() int {
	if c.Groups < 1 {
		return 1
	}
	return c.Groups
}

// totalServers is the global server count across all groups.
func (c Config) totalServers() int { return c.groups() * c.Servers }

func (c Config) validate() error {
	switch {
	case c.Servers < 1:
		return errors.New("fortress: need at least one server")
	case c.Proxies < 1:
		return errors.New("fortress: need at least one proxy")
	case c.Space == nil:
		return errors.New("fortress: need a key space")
	case c.ServiceFactory == nil:
		return errors.New("fortress: need a service factory")
	case c.HeartbeatInterval <= 0 || c.HeartbeatTimeout <= 0 || c.ServerTimeout <= 0:
		return errors.New("fortress: need positive timings")
	case c.CheckpointEvery < 0:
		return errors.New("fortress: need a non-negative CheckpointEvery")
	case c.Backend != replica.BackendPB && c.Backend != replica.BackendSMR:
		return fmt.Errorf("fortress: unknown backend %v", c.Backend)
	}
	return nil
}

// errStopped is what every call on a stopped system returns.
var errStopped = errors.New("fortress: system stopped")

// System is a running FORTRESS deployment.
type System struct {
	cfg  Config
	net  *netsim.Network
	ns   *nameserver.NameServer
	rng  *xrand.RNG
	ring *shard.Ring

	// Signing identities are stable across epochs: re-randomization changes
	// executables, not cryptographic identity.
	serverSig []*sig.KeyPair
	proxySig  []*sig.KeyPair

	mu        sync.Mutex
	epoch     uint64
	serverKey keyspace.Key
	proxyKeys []keyspace.Key
	servers   []replica.Server
	guards    []*exploit.Guard
	proxies   []*proxy.Proxy
	detector  *proxy.Detector
	stopped   bool
	// stores holds each server's persistent store (nil entries until first
	// use, all nil without a StoreFactory). A store outlives the replica
	// objects mounted on it — that is the point.
	stores []store.Store

	// Fault-injected outages (Crash): unlike probe crashes, these model
	// power/hardware failures, so Recover's forking-daemon respawn must NOT
	// resurrect them and a re-randomization epoch reboots them into the
	// same dead state. Only Restart (or a fault schedule's restart event)
	// brings them back.
	downServers map[int]bool
	downProxies map[int]bool

	// Lifecycle instruments (nil no-ops without Config.Metrics). These count
	// schedule-driven events, which are a pure function of the seeded fault
	// and attack streams — hence Stable class.
	mFaultCrashes  *metrics.Counter
	mFaultRestarts *metrics.Counter
	mProxyCrashes  *metrics.Counter
	mProxyRestarts *metrics.Counter
	mPowerFails    *metrics.Counter
	mRerandomize   *metrics.Counter
}

// New deploys a FORTRESS system and starts epoch 0.
func New(cfg Config) (*System, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	net := cfg.Net
	if net == nil {
		var opts []netsim.Option
		if cfg.Metrics != nil {
			opts = append(opts, netsim.WithMetrics(cfg.Metrics))
		}
		net = netsim.NewNetwork(opts...)
	}
	ns, err := nameserver.New(nameserver.ReplicationPrimaryBackup, 0)
	if err != nil {
		return nil, err
	}
	ring, err := shard.New(cfg.groups(), 0, cfg.Seed)
	if err != nil {
		return nil, err
	}
	s := &System{
		cfg: cfg, net: net, ns: ns, rng: xrand.New(cfg.Seed), ring: ring,
		downServers: make(map[int]bool),
		downProxies: make(map[int]bool),
		stores:      make([]store.Store, cfg.totalServers()),
	}
	if reg := cfg.Metrics; reg != nil {
		s.mFaultCrashes = reg.Counter("fortress_server_fault_crashes_total", metrics.Stable)
		s.mFaultRestarts = reg.Counter("fortress_server_fault_restarts_total", metrics.Stable)
		s.mProxyCrashes = reg.Counter("fortress_proxy_fault_crashes_total", metrics.Stable)
		s.mProxyRestarts = reg.Counter("fortress_proxy_fault_restarts_total", metrics.Stable)
		s.mPowerFails = reg.Counter("fortress_power_failures_total", metrics.Stable)
		s.mRerandomize = reg.Counter("fortress_rerandomize_total", metrics.Stable)
	}
	for i := 0; i < cfg.totalServers(); i++ {
		kp, err := sig.NewKeyPair()
		if err != nil {
			return nil, fmt.Errorf("fortress: server %d keys: %w", i, err)
		}
		s.serverSig = append(s.serverSig, kp)
	}
	for i := 0; i < cfg.Proxies; i++ {
		kp, err := sig.NewKeyPair()
		if err != nil {
			return nil, fmt.Errorf("fortress: proxy %d keys: %w", i, err)
		}
		s.proxySig = append(s.proxySig, kp)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.buildEpochLocked(nil); err != nil {
		return nil, err
	}
	return s, nil
}

// traceEvent records a lifecycle event on node's trace ring (the per-node
// bounded ring the registry keys by address). Seq carries the current epoch.
// Caller holds s.mu.
func (s *System) traceEvent(kind, node string) {
	if s.cfg.Metrics == nil {
		return
	}
	s.cfg.Metrics.Ring(node, 0).Record(kind, node, -1, s.epoch)
}

// ServerAddr returns the stable netsim address of server i. Fault schedules
// use it to aim partitions at the server tier.
func ServerAddr(i int) string { return fmt.Sprintf("fortress-server-%d", i) }

// ProxyAddr returns the stable netsim address of proxy i.
func ProxyAddr(i int) string { return fmt.Sprintf("fortress-proxy-%d", i) }

// buildEpochLocked stands up all nodes for a new epoch, restoring each
// group's service state from snapshots (indexed by group) when given.
// Caller holds s.mu.
func (s *System) buildEpochLocked(snapshots [][]byte) error {
	// Fresh randomization keys: one shared for servers, distinct per proxy.
	s.serverKey = s.cfg.Space.Draw(s.rng)
	s.proxyKeys = make([]keyspace.Key, s.cfg.Proxies)
	for i := range s.proxyKeys {
		s.proxyKeys[i] = s.cfg.Space.Draw(s.rng)
	}
	if s.cfg.DetectorWindow > 0 {
		// The detector's log survives epochs: proxies log observations "for
		// longer periods" (§2.2), and flagged sources stay flagged.
		if s.detector == nil {
			s.detector = proxy.NewDetector(s.cfg.DetectorWindow, s.cfg.DetectorThreshold)
		}
	}

	s.servers = make([]replica.Server, s.cfg.totalServers())
	s.guards = make([]*exploit.Guard, s.cfg.totalServers())
	for i := 0; i < s.cfg.totalServers(); i++ {
		// At an epoch boundary every replica reboots together with its
		// group's snapshot, so even the SMR backend restores directly —
		// there is no live leader ahead of the group to catch up from.
		var snapshot []byte
		if g := s.GroupOf(i); g < len(snapshots) {
			snapshot = snapshots[g]
		}
		if err := s.startServerLocked(i, snapshot, s.GroupOf(i)*s.cfg.Servers, nil); err != nil {
			return err
		}
	}

	s.proxies = make([]*proxy.Proxy, s.cfg.Proxies)
	for i := 0; i < s.cfg.Proxies; i++ {
		if err := s.startProxyLocked(i); err != nil {
			return err
		}
	}
	// A fault-downed node reboots into the same outage: the epoch change
	// re-randomizes executables, it does not repair failed hardware.
	for i := range s.downServers {
		s.servers[i].Crash()
	}
	for i := range s.downProxies {
		s.proxies[i].Crash()
	}
	return nil
}

// teardownLocked stops every node of the current epoch. Caller holds s.mu.
func (s *System) teardownLocked() {
	for _, p := range s.proxies {
		p.Stop()
	}
	for _, r := range s.servers {
		r.Stop()
	}
	// Clear any crashed addresses so fresh listeners can bind.
	for i := 0; i < s.cfg.totalServers(); i++ {
		s.net.CrashAddr(ServerAddr(i))
	}
	for i := 0; i < s.cfg.Proxies; i++ {
		s.net.CrashAddr(ProxyAddr(i))
	}
}

// Rerandomize performs one proactive-obfuscation period boundary: take a
// state snapshot, reboot everything under fresh randomization keys, restore
// the state. Attacker control of any node is lost (§2.3, §4.1).
func (s *System) Rerandomize() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.stopped {
		return errStopped
	}
	snapshots := s.snapshotsLocked()
	s.teardownLocked()
	// The new epoch restarts the engines' sequence numbering from scratch
	// (state carries over via the snapshot, not the log), so a frontier
	// left on disk would poison recovery: wipe the stores. Persistence is
	// scoped within an epoch — the window between re-randomizations.
	for _, st := range s.stores {
		if st != nil {
			if err := st.Reset(); err != nil {
				return fmt.Errorf("fortress: reset store: %w", err)
			}
		}
	}
	s.epoch++
	s.mRerandomize.Inc()
	return s.buildEpochLocked(snapshots)
}

// Recover restarts every crashed node with its CURRENT randomization key —
// the start-up-only regime of §4.1 ("nodes are simply recovered at the end
// of each unit time step"): the forking-daemon respawn that absorbs probe
// crashes without giving the defender fresh keys. Compromised nodes stay
// compromised: with an unchanged key the attacker walks straight back in.
func (s *System) Recover() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.stopped {
		return errStopped
	}
	snapshots := s.snapshotsLocked()
	for i, g := range s.guards {
		if !g.Process().Crashed() || s.downServers[i] {
			continue
		}
		if err := s.rebuildServerLocked(i, snapshots[s.GroupOf(i)]); err != nil {
			return err
		}
	}
	for i, p := range s.proxies {
		if !p.Crashed() || s.downProxies[i] {
			continue
		}
		if err := s.rebuildProxyLocked(i); err != nil {
			return err
		}
	}
	return nil
}

// Target names the nodes a fault crash or restart acts on: one server,
// one proxy, or All.
type Target struct{ tier, index int }

const (
	serverTier = iota + 1
	proxyTier
	allTiers
)

// Server targets server i, a global index across replica groups.
func Server(i int) Target { return Target{serverTier, i} }

// Proxy targets proxy i.
func Proxy(i int) Target { return Target{proxyTier, i} }

// All targets every server and proxy.
var All = Target{tier: allTiers}

// Index returns the server or proxy index t names.
func (t Target) Index() int { return t.index }

// names reports whether t names node i of tier.
func (t Target) names(tier, i int) bool {
	return t.tier == allTiers || t.tier == tier && t.index == i
}

// checkLocked makes the checks every lifecycle call makes. Caller holds
// s.mu.
func (s *System) checkLocked(t Target) error {
	switch {
	case s.stopped:
		return errStopped
	case t.tier == serverTier && (t.index < 0 || t.index >= len(s.servers)):
		return fmt.Errorf("fortress: no server %d", t.index)
	case t.tier == proxyTier && (t.index < 0 || t.index >= len(s.proxies)):
		return fmt.Errorf("fortress: no proxy %d", t.index)
	case t.tier == 0:
		return errors.New("fortress: no target")
	}
	return nil
}

// Crash fault-crashes the nodes t names, in index order: each is torn out
// of the network and stays down — across Recover and across
// re-randomization epochs — until Restart. This models a node-level
// outage (power, hardware, kernel panic), as distinct from the
// probe-induced process crash a forking daemon absorbs.
//
// Crash(All) is a whole-cluster power loss: every server and proxy records
// a power-fail trace instead of a crash, and every durable store loses the
// buffered writes past its last sync point, which makes the fsync cadence
// a real durability knob.
func (s *System) Crash(t Target) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.checkLocked(t); err != nil {
		return err
	}
	kind := metrics.KindCrash
	if t == All {
		kind = metrics.KindPowerFail
	}
	for i, srv := range s.servers {
		if t.names(serverTier, i) {
			s.downServers[i] = true
			srv.Crash()
			s.mFaultCrashes.Inc()
			s.traceEvent(kind, ServerAddr(i))
		}
	}
	for i, p := range s.proxies {
		if t.names(proxyTier, i) {
			s.downProxies[i] = true
			p.Crash()
			s.mProxyCrashes.Inc()
			s.traceEvent(kind, ProxyAddr(i))
		}
	}
	if t != All {
		return nil
	}
	for i, st := range s.stores {
		if pf, ok := st.(store.PowerFailer); ok {
			if err := pf.PowerFail(); err != nil {
				return fmt.Errorf("fortress: power-fail store %d: %w", i, err)
			}
		}
	}
	s.mPowerFails.Inc()
	return nil
}

// Restart ends the outage of every node t names that Crash took down,
// servers in index order before proxies. A node that is not fault-crashed
// is left as it is; probe crashes remain Recover's business. A server
// rejoins under the current shared key with state restored from a live
// peer's snapshot (the reconnect-and-resync idiom of a supervised
// process), a proxy under its current key.
//
// Each server's donor snapshot is taken after it left the down set and
// after the servers below it were rebuilt. After a blackout, durable
// stores let each server recover its own state from disk instead, since
// no peer is live, and an in-memory SMR tier restarts empty: its first
// server finds no live donor and the rest follow it. An in-memory PB
// server that is the lowest of its group is its own donor, though: a
// fault crash leaves its service state in memory, so it comes back with
// its pre-crash state and passes that on.
func (s *System) Restart(t Target) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.checkLocked(t); err != nil {
		return err
	}
	for i := range s.servers {
		if !t.names(serverTier, i) || !s.downServers[i] {
			continue
		}
		delete(s.downServers, i)
		s.mFaultRestarts.Inc()
		s.traceEvent(metrics.KindRestart, ServerAddr(i))
		if err := s.rebuildServerLocked(i, s.snapshotGroupLocked(s.GroupOf(i))); err != nil {
			return err
		}
	}
	for i := range s.proxies {
		if !t.names(proxyTier, i) || !s.downProxies[i] {
			continue
		}
		delete(s.downProxies, i)
		s.mProxyRestarts.Inc()
		s.traceEvent(metrics.KindRestart, ProxyAddr(i))
		if err := s.rebuildProxyLocked(i); err != nil {
			return err
		}
	}
	return nil
}

// CrashServer is Crash(Server(i)). It and the three forwarders below stay
// only for the request-path benchmark in bench/, whose sources are held
// fixed so that its runs compare across changes; other code calls Crash
// and Restart.
func (s *System) CrashServer(i int) error { return s.Crash(Server(i)) }

// RestartServer is Restart(Server(i)); see CrashServer.
func (s *System) RestartServer(i int) error { return s.Restart(Server(i)) }

// CrashAll is Crash(All); see CrashServer.
func (s *System) CrashAll() error { return s.Crash(All) }

// RestartAll is Restart(All); see CrashServer.
func (s *System) RestartAll() error { return s.Restart(All) }

// StallDisk injects d of latency into every sync point of server i's store
// (cadenced log syncs and snapshot writes), modeling a stalling disk; a
// non-positive d clears the stall. A no-op when the server's store does not
// support stalling (the in-memory default).
func (s *System) StallDisk(i int, d time.Duration) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.checkLocked(Server(i)); err != nil {
		return err
	}
	if st, ok := s.stores[i].(store.Staller); ok {
		st.SetStall(d)
	}
	return nil
}

// ServerStore returns server i's persistent store, or nil without a
// StoreFactory (or before the server first started). Tests use it to
// inspect and hash on-disk state.
func (s *System) ServerStore(i int) store.Store {
	s.mu.Lock()
	defer s.mu.Unlock()
	if i < 0 || i >= len(s.stores) {
		return nil
	}
	return s.stores[i]
}

// rebuildServerLocked replaces server i with a fresh replica under the
// current shared key. The PB backend restores state from a live peer's
// snapshot (the next primary update carries a full snapshot anyway); the
// SMR backend instead seeds the replacement from a live peer's
// StateTransfer — a consistent (snapshot, executed-sequence, response
// cache) triple — so the node rejoins mid-history with state and sequence
// counter in lockstep, and the order protocol's own catch-up transfer
// closes whatever gap remains. A plain snapshot restore would leave the
// sequence counter at zero: a rebuilt lowest-index node would then reclaim
// the sequencer role believing the group starts over, forking the cluster.
// Caller holds s.mu.
func (s *System) rebuildServerLocked(i int, snapshot []byte) error {
	s.servers[i].Stop()
	s.net.CrashAddr(ServerAddr(i))
	if s.storeHasStateLocked(i) {
		// The store outlived the crash: the engine recovers from its own
		// disk (RecoverFromStore runs inside New) and protocol catch-up
		// closes whatever gap remains — no donor snapshot or seed needed,
		// and none may exist (a blackout downs every peer at once).
		return s.startServerLocked(i, nil, i, nil)
	}
	if s.cfg.Backend == replica.BackendSMR {
		// InitialPrimary is PB-only; the seed carries the SMR join state.
		return s.startServerLocked(i, nil, i, s.smrSeedLocked(i))
	}
	// InitialPrimary i: a recovered PB node rejoins; peers re-elect.
	return s.startServerLocked(i, snapshot, i, nil)
}

// storeHasStateLocked reports whether server i sits on a durable store with
// anything to recover from. Caller holds s.mu.
func (s *System) storeHasStateLocked(i int) bool {
	st := s.stores[i]
	if st == nil || !st.Durable() {
		return false
	}
	rec, err := st.Load()
	return err == nil && !rec.Empty()
}

// smrSeed is the state a replacement SMR replica starts from.
type smrSeed struct {
	snapshot  []byte
	executed  uint64
	responses map[string][]byte
	join      bool
}

// smrSeedLocked captures a state transfer from the first live,
// uncompromised, not-fault-downed SMR peer of server i within its own
// replica group, in index order for determinism. The donor's leader view also decides the replacement's
// join posture: when the group has failed over away from index i (the
// donor follows someone else), the replacement must rejoin with an unknown
// leader and adopt the live sequencer's heartbeats — a lowest-index node
// that assumed leadership would briefly sequence concurrently with the
// failed-over leader and fork the replica states. When the donor still
// follows index i, resuming leadership at the donor's frontier is safe
// and avoids a leaderless window. When no peer qualifies (the whole tier
// is down together) the seed is empty: every replacement starts
// identically from sequence one, consistent precisely because nobody
// retains anything newer. Caller holds s.mu.
func (s *System) smrSeedLocked(i int) *smrSeed {
	g := s.GroupOf(i)
	for j := g * s.cfg.Servers; j < (g+1)*s.cfg.Servers; j++ {
		srv := s.servers[j]
		if j == i || s.downServers[j] {
			continue
		}
		if g := s.guards[j]; g.Compromised() || g.Process().Crashed() {
			continue
		}
		donor, ok := srv.(*smr.Replica)
		if !ok {
			continue
		}
		snap, executed, responses, err := donor.StateTransfer()
		if err != nil {
			continue
		}
		return &smrSeed{
			snapshot:  snap,
			executed:  executed,
			responses: responses,
			join:      donor.LeaderIndex() != i,
		}
	}
	return &smrSeed{}
}

// startServerLocked builds and registers server i under the current shared
// key, restoring state from snapshot when non-nil. initialPrimary seeds the
// PB backend's starting role (the SMR backend always follows the lowest
// live index); seed, when non-nil, positions an SMR replacement mid-history
// (a nil seed is the epoch path: every replica restores the same snapshot
// and starts at sequence one together). Caller holds s.mu.
func (s *System) startServerLocked(i int, snapshot []byte, initialPrimary int, seed *smrSeed) error {
	// The replication protocol is per group: peers are the global indices
	// of server i's own group only, so each group elects and sequences
	// independently of the others.
	g := s.GroupOf(i)
	peers := make(map[int]string, s.cfg.Servers)
	for j := g * s.cfg.Servers; j < (g+1)*s.cfg.Servers; j++ {
		peers[j] = ServerAddr(j)
	}
	st, err := s.storeLocked(i)
	if err != nil {
		return err
	}
	svc := s.cfg.ServiceFactory()
	if snapshot != nil {
		if err := svc.Restore(snapshot); err != nil {
			return fmt.Errorf("fortress: restore server %d: %w", i, err)
		}
	}
	proc := memlayout.NewProcess(s.serverKey)
	// The guard needs the replica for crash teardown; capture via pointer
	// cell assigned after construction.
	var srv replica.Server
	guard := exploit.NewGuard(svc, exploit.TierServer, proc, func() {
		if srv != nil {
			srv.Crash()
		}
	}, nil)
	var r replica.Server
	switch s.cfg.Backend {
	case replica.BackendSMR:
		cfg := smr.Config{
			Index:             i,
			Addr:              peers[i],
			Peers:             peers,
			Service:           guard,
			Keys:              s.serverSig[i],
			Net:               s.net,
			HeartbeatInterval: s.cfg.HeartbeatInterval,
			HeartbeatTimeout:  s.cfg.HeartbeatTimeout,
			CatchupHistory:    s.cfg.UpdateWindow,
			Store:             st,
			SnapshotEvery:     s.cfg.CheckpointEvery,
			Leases:            s.cfg.Leases,
			LeaseDuration:     s.cfg.LeaseDuration,
			Metrics:           s.cfg.Metrics,
		}
		if seed != nil {
			cfg.InitialSnapshot = seed.snapshot
			cfg.InitialExecuted = seed.executed
			cfg.InitialResponses = seed.responses
			cfg.JoinExisting = seed.join
		}
		r, err = smr.New(cfg)
	default:
		r, err = pb.New(pb.Config{
			Index:             i,
			Addr:              peers[i],
			Peers:             peers,
			InitialPrimary:    initialPrimary,
			Service:           guard,
			Keys:              s.serverSig[i],
			Net:               s.net,
			HeartbeatInterval: s.cfg.HeartbeatInterval,
			HeartbeatTimeout:  s.cfg.HeartbeatTimeout,
			CheckpointEvery:   s.cfg.CheckpointEvery,
			UpdateWindow:      s.cfg.UpdateWindow,
			Store:             st,
			Metrics:           s.cfg.Metrics,
		})
	}
	if err != nil {
		return fmt.Errorf("fortress: server %d: %w", i, err)
	}
	srv = r
	s.servers[i] = r
	s.guards[i] = guard
	return s.ns.RegisterServer(i, peers[i], r.PublicKey())
}

// storeLocked returns server i's persistent store, building it on first use.
// Nil (no persistence) without a StoreFactory; the engines then default to
// their in-memory no-op store. Caller holds s.mu.
func (s *System) storeLocked(i int) (store.Store, error) {
	if s.cfg.StoreFactory == nil {
		return nil, nil
	}
	if s.stores[i] == nil {
		st, err := s.cfg.StoreFactory(i)
		if err != nil {
			return nil, fmt.Errorf("fortress: store for server %d: %w", i, err)
		}
		s.stores[i] = st
	}
	return s.stores[i], nil
}

// rebuildProxyLocked replaces proxy i with a fresh instance under its
// current key. Caller holds s.mu.
func (s *System) rebuildProxyLocked(i int) error {
	s.proxies[i].Stop()
	s.net.CrashAddr(ProxyAddr(i))
	return s.startProxyLocked(i)
}

// startProxyLocked builds and registers proxy i under its current key.
// Caller holds s.mu.
func (s *System) startProxyLocked(i int) error {
	p, err := proxy.New(proxy.Config{
		ID:              fmt.Sprintf("proxy-%d", i),
		Addr:            ProxyAddr(i),
		Keys:            s.proxySig[i],
		NS:              s.ns,
		Net:             s.net,
		Detector:        s.detector,
		Proc:            memlayout.NewProcess(s.proxyKeys[i]),
		ServerTimeout:   s.cfg.ServerTimeout,
		Ring:            s.ring,
		ServersPerGroup: s.cfg.Servers,
		Metrics:         s.cfg.Metrics,
	})
	if err != nil {
		return fmt.Errorf("fortress: proxy %d: %w", i, err)
	}
	s.proxies[i] = p
	return s.ns.RegisterProxy(p.ID(), p.Addr(), p.PublicKey())
}

// snapshotGroupLocked fetches group g's service state from the group's
// first live, uncompromised server (state from a compromised node is
// untrustworthy, and a fault-downed node's in-memory state is stale).
func (s *System) snapshotGroupLocked(g int) []byte {
	for i := g * s.cfg.Servers; i < (g+1)*s.cfg.Servers; i++ {
		gd := s.guards[i]
		if gd.Compromised() || gd.Process().Crashed() || s.downServers[i] {
			continue
		}
		if snap, err := gd.Snapshot(); err == nil {
			return snap
		}
	}
	return nil
}

// snapshotsLocked fetches every group's snapshot, indexed by group.
func (s *System) snapshotsLocked() [][]byte {
	out := make([][]byte, s.cfg.groups())
	for g := range out {
		out[g] = s.snapshotGroupLocked(g)
	}
	return out
}

// Epoch returns the number of completed re-randomizations.
func (s *System) Epoch() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.epoch
}

// Net returns the network the system is deployed on.
func (s *System) Net() *netsim.Network { return s.net }

// Metrics returns the registry the deployment publishes its instruments to,
// or nil when the system is uninstrumented.
func (s *System) Metrics() *metrics.Registry { return s.cfg.Metrics }

// NameServer returns the trusted directory.
func (s *System) NameServer() *nameserver.NameServer { return s.ns }

// Client builds a FORTRESS client with the given network identity.
func (s *System) Client(from string, timeout time.Duration) (*proxy.Client, error) {
	return proxy.NewClient(s.net, from, s.ns, timeout)
}

// Detector exposes the shared probe detector (nil when disabled).
func (s *System) Detector() *proxy.Detector {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.detector
}

// ServerKey returns the server tier's current shared randomization key.
// Only tests and attack simulations peek at it.
func (s *System) ServerKey() keyspace.Key {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.serverKey
}

// ProxyKeys returns the proxies' current randomization keys.
func (s *System) ProxyKeys() []keyspace.Key {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]keyspace.Key, len(s.proxyKeys))
	copy(out, s.proxyKeys)
	return out
}

// Proxies returns the current epoch's proxies.
func (s *System) Proxies() []*proxy.Proxy {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*proxy.Proxy, len(s.proxies))
	copy(out, s.proxies)
	return out
}

// Servers returns the current epoch's server replicas behind the
// backend-neutral interface.
func (s *System) Servers() []replica.Server {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]replica.Server, len(s.servers))
	copy(out, s.servers)
	return out
}

// Backend reports the server tier's replication engine.
func (s *System) Backend() replica.Backend { return s.cfg.Backend }

// Groups reports the number of replica groups in the deployment.
func (s *System) Groups() int { return s.cfg.groups() }

// ServersPerGroup reports the per-group server count n_s.
func (s *System) ServersPerGroup() int { return s.cfg.Servers }

// GroupOf maps a global server index to its replica group.
func (s *System) GroupOf(i int) int { return i / s.cfg.Servers }

// Ring returns the deployment's consistent-hash routing ring — the same
// function the proxies route with, so campaigns and tests can derive
// per-group keys.
func (s *System) Ring() *shard.Ring { return s.ring }

// Status summarizes the system's security state.
type Status struct {
	Epoch uint64
	// Groups is the replica-group count; server totals below span all
	// groups.
	Groups             int
	ServersCompromised int
	ServersCrashed     int
	ProxiesCompromised int
	ProxiesCrashed     int
	// ServersDown and ProxiesDown count fault-injected outages (Crash)
	// awaiting an explicit Restart — disjoint from
	// the probe-crash counts above, which Recover repairs.
	ServersDown int
	ProxiesDown int
	// Compromised applies the paper's S2 failure condition: any server
	// compromised, or every proxy compromised.
	Compromised bool
}

// Status reports the current security state.
func (s *System) Status() Status {
	s.mu.Lock()
	defer s.mu.Unlock()
	var st Status
	st.Epoch = s.epoch
	st.Groups = s.cfg.groups()
	for _, g := range s.guards {
		if g.Compromised() {
			st.ServersCompromised++
		}
		if g.Process().Crashed() {
			st.ServersCrashed++
		}
	}
	for _, p := range s.proxies {
		if p.Compromised() {
			st.ProxiesCompromised++
		}
		if p.Crashed() {
			st.ProxiesCrashed++
		}
	}
	st.ServersDown = len(s.downServers)
	st.ProxiesDown = len(s.downProxies)
	st.Compromised = st.ServersCompromised > 0 || st.ProxiesCompromised == len(s.proxies)
	return st
}

// Stop shuts the whole system down.
func (s *System) Stop() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.stopped {
		return
	}
	s.stopped = true
	s.teardownLocked()
	// Stores are owned by the system, not the replica objects mounted on
	// them: close them last, after every writer is down.
	for _, st := range s.stores {
		if st != nil {
			_ = st.Close()
		}
	}
}
