// Package pb implements classical primary-backup replication (paper §1, §3),
// the server tier FORTRESS fortifies.
//
// One replica — the primary — executes client requests; after each execution
// it ships the response and a state update to every backup. Each replica
// (primary and backups alike) signs the response together with its own index
// and returns it to the requester, exactly as §3 prescribes for the FORTRESS
// interaction pattern. Backups never execute requests, which is why the
// hosted service need not be deterministic. That pattern — the executed
// request's payload, the same bytes for a repeat of the same request, the
// requesters parked until the payload exists — is core.Replies, one table
// under the replica's mu, and the sign-and-encode is core.EncodeReply; this
// package keeps only what is primary-backup: who executes, and how the
// state and the table reach the backups.
//
// The update stream is incremental and ack-windowed rather than
// fire-and-forget full snapshots:
//
//   - Each executed request ships a delta — the contiguous edit turning the
//     previous snapshot encoding into the next (see delta.go) — so the
//     per-request fan-out payload scales with the state the request touched,
//     not with total state size. Every Config.CheckpointEvery-th update is a
//     full snapshot checkpoint that re-anchors the chain.
//   - Both ends pay for the edit, not for the state. A DeltaCapable
//     service reports the edit on the primary and keeps the spliced
//     snapshot itself. A backup checks the delta's base hash (CRC-32C)
//     against its service's own snapshot, splices, and hands the result and
//     the edit to service.InstallDelta, which re-parses only the entries
//     the edit touched. Backups call Restore only for checkpoints — and
//     for deltas on a service without the surface (Nondet), or an edit not
//     on whole entries, which fall back to it: slower, never wrong.
//   - Peer links are full duplex (replica/core): a backup acks each applied
//     update as a reply on the very connection the update arrived on, and
//     the primary's per-peer reader loop drains those acks into a cumulative
//     per-backup frontier. Deltas every backup has acknowledged are released
//     early; at most Config.UpdateWindow unacknowledged ones are retained.
//   - A backup that detects a chain break — a sequence gap from dropped
//     updates, a base-hash mismatch, or an update stream from a different
//     primary — nacks with its applied frontier. The primary retransmits the
//     retained suffix when the gap fits the window, and otherwise falls back
//     to a full checkpoint carrying its reply table. A stalled cumulative
//     ack (backup crashed, restarted, or rebuilt) triggers the same resync
//     from the primary's heartbeat timer, so a backup that restarts
//     mid-window converges over the same duplex link without waiting for
//     the next full snapshot.
//
// Failure handling: the primary heartbeats the backups (carrying its
// executed frontier, so a lagging backup self-detects); a backup that misses
// heartbeats for the configured timeout deterministically promotes the
// lowest-indexed surviving replica (itself included) to primary. A fresh
// primary starts its update stream with a checkpoint, which re-anchors every
// backup regardless of what it had applied under the old stream.
package pb

import (
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"sort"
	"sync"
	"time"

	"fortress/internal/metrics"
	"fortress/internal/netsim"
	"fortress/internal/replica/core"
	"fortress/internal/replica/store"
	"fortress/internal/service"
	"fortress/internal/sig"
)

// Role distinguishes the primary from backups.
type Role int

const (
	// RolePrimary executes requests and ships state updates.
	RolePrimary Role = iota + 1
	// RoleBackup applies state updates and co-signs responses.
	RoleBackup
)

// String implements fmt.Stringer.
func (r Role) String() string {
	switch r {
	case RolePrimary:
		return "primary"
	case RoleBackup:
		return "backup"
	default:
		return fmt.Sprintf("Role(%d)", int(r))
	}
}

// wire message types exchanged between replicas and with requesters.
const (
	msgUpdate     = "update"     // primary → backup: executed request + state delta
	msgCheckpoint = "checkpoint" // primary → backup: full snapshot anchor
	msgAck        = "ack"        // backup → primary: cumulative applied frontier
	msgNack       = "nack"       // backup → primary: chain break, resync me
	msgHeartbeat  = "heartbeat"  // primary → backup (carries executed frontier)
)

type wireMsg struct {
	Type      string `json:"type"`
	RequestID string `json:"requestId,omitempty"`
	Body      []byte `json:"body,omitempty"`
	Seq       uint64 `json:"seq,omitempty"`
	From      int    `json:"from,omitempty"`
	// RespBody is the executed request's signable response payload
	// (core.Payload), as every replica signs it.
	RespBody []byte `json:"respBody,omitempty"`
	// Snapshot carries a checkpoint's full state; Responses rides a resync
	// checkpoint so requests the receiver jumps over stay answerable from
	// the reply table (a core.Replies export).
	Snapshot  []byte            `json:"snapshot,omitempty"`
	Responses map[string][]byte `json:"responses,omitempty"`
	// DeltaPrefix/Delta/DeltaSuffix carry an incremental update (delta.go);
	// BaseHash fingerprints the snapshot encoding the delta chains from.
	DeltaPrefix int    `json:"deltaPrefix,omitempty"`
	DeltaSuffix int    `json:"deltaSuffix,omitempty"`
	Delta       []byte `json:"delta,omitempty"`
	BaseHash    uint32 `json:"baseHash,omitempty"`
	// Stream identifies, on acks and nacks, the primary index whose update
	// stream the sender is positioned in — the primary retransmits deltas
	// only to a backup confirmed on its own chain, and checkpoint-resyncs
	// everyone else.
	Stream int `json:"stream,omitempty"`
}

func encode(m wireMsg) []byte {
	b, err := json.Marshal(m)
	if err != nil {
		// wireMsg contains only marshal-safe fields; this cannot happen.
		panic(fmt.Sprintf("pb: marshal wire message: %v", err))
	}
	return b
}

const (
	// defaultCheckpointEvery is the full-snapshot cadence of the update
	// stream when Config.CheckpointEvery is zero.
	defaultCheckpointEvery = 32
	// defaultUpdateWindow bounds the retained unacknowledged deltas when
	// Config.UpdateWindow is zero.
	defaultUpdateWindow = 256
	// streamUnknown marks a backup that is not positioned in any primary's
	// update stream (fresh, rebuilt, or deposed): only a checkpoint anchors
	// it.
	streamUnknown = -1
)

// Config describes one replica.
type Config struct {
	// Index is this replica's unique server index, known to proxies and
	// clients through the name server.
	Index int
	// Addr is the netsim address this replica listens on.
	Addr string
	// Peers maps every replica index (including this one) to its address.
	Peers map[int]string
	// InitialPrimary is the index of the replica that starts as primary.
	InitialPrimary int
	// Service is the hosted service instance (each replica owns one).
	Service service.Service
	// Keys signs this replica's responses.
	Keys *sig.KeyPair
	// Net is the simulated network.
	Net *netsim.Network
	// HeartbeatInterval is how often the primary pings backups.
	HeartbeatInterval time.Duration
	// HeartbeatTimeout is how long a backup waits before declaring the
	// primary dead. It should be several intervals.
	HeartbeatTimeout time.Duration
	// CheckpointEvery makes every k-th update a full snapshot checkpoint
	// instead of a delta, bounding how long a delta chain can grow. Zero
	// selects the default (32); one disables deltas entirely — every update
	// ships the full snapshot, the classic PB stream.
	CheckpointEvery int
	// UpdateWindow bounds the unacknowledged deltas the primary retains for
	// retransmission: a backup whose nack frontier fits the window gets the
	// missing suffix replayed, one that has fallen further behind gets a
	// checkpoint. Zero selects the default (256); negative retains nothing,
	// forcing every resync onto the checkpoint path.
	UpdateWindow int
	// Store persists the update stream: deltas are journaled as records and
	// checkpoints overwrite the snapshot slot, so a replica rebuilt over a
	// non-empty store recovers its state from disk before protocol catch-up
	// fills any remaining gap. Nil selects the in-memory no-op store
	// (nothing durable — today's semantics — and nothing extra allocated on
	// the hot path).
	Store store.Store
	// Metrics, when non-nil, receives the replica's protocol instruments
	// (delta vs checkpoint counts, window occupancy, nack/resync causes,
	// ack-stall detections) and its trace-event ring, labelled by Addr.
	// Observational only — no protocol decision reads them back.
	Metrics *metrics.Registry
}

func (c Config) validate() error {
	switch {
	case c.Service == nil:
		return errors.New("pb: config needs a Service")
	case c.Keys == nil:
		return errors.New("pb: config needs Keys")
	case c.Net == nil:
		return errors.New("pb: config needs Net")
	case c.Addr == "":
		return errors.New("pb: config needs Addr")
	case len(c.Peers) == 0:
		return errors.New("pb: config needs Peers")
	case c.HeartbeatInterval <= 0 || c.HeartbeatTimeout <= 0:
		return errors.New("pb: config needs positive heartbeat timings")
	case c.CheckpointEvery < 0:
		return errors.New("pb: config needs a non-negative CheckpointEvery")
	}
	if _, ok := c.Peers[c.Index]; !ok {
		return fmt.Errorf("pb: Peers must contain own index %d", c.Index)
	}
	if _, ok := c.Peers[c.InitialPrimary]; !ok {
		return fmt.Errorf("pb: Peers must contain initial primary %d", c.InitialPrimary)
	}
	return nil
}

// retained is one update held in the primary's retransmission window: the
// executed request's response plus either the delta or, for checkpoint
// sequences, the full snapshot it shipped as.
type retained struct {
	requestID string
	respBody  []byte
	// checkpoint holds the snapshot bytes when this sequence shipped as a
	// full checkpoint; nil for delta sequences.
	checkpoint []byte
	// delta fields, valid when checkpoint is nil.
	prefix, suffix int
	patch          []byte
	baseHash       uint32
}

// Replica is one primary-backup replica: the PB protocol handler mounted on
// a core.Node runtime.
type Replica struct {
	cfg     Config
	node    *core.Node
	peerIdx []int // every other replica index, ascending

	// execMu serializes state transitions against the hosted service: on the
	// primary it orders execute+snapshot+diff so the delta chain is the diff
	// of consecutive states, on a backup it orders delta/checkpoint
	// installation, and resync construction takes it so a retransmitted
	// suffix cannot interleave with a concurrently executed update. Always
	// acquired before mu.
	execMu sync.Mutex

	// store is the persistence layer; durable caches store.Durable() so the
	// zero-persistence configuration skips record encoding entirely.
	store   store.Store
	durable bool

	mu            sync.Mutex
	role          Role
	primaryIdx    int
	seq           uint64
	lastHeartbeat time.Time
	replies       *core.Replies // executed ids → payload, parked requesters
	ckptJumps     int           // installed checkpoints that re-anchored the chain
	suspected     map[int]bool

	// Primary-side update stream state.
	lastSnap   []byte // snapshot encoding at seq; nil forces a checkpoint
	window     core.Window[retained]
	acked      map[int]uint64 // cumulative applied frontier per backup
	ackSeen    map[int]uint64 // acked at the previous tick (stall detection)
	stallTicks map[int]int
	stallWait  map[int]int // per-peer ticks before the next stall resync
	stallLimit int

	// Backup-side update stream state.
	updFrom   int  // primary index whose stream we are positioned in
	resyncing bool // a nack is outstanding; suppress duplicates
	nackedAt  time.Time

	// Instruments (nil no-ops when Config.Metrics is unset). Observational
	// only: nothing below feeds back into a protocol decision.
	mDeltas       *metrics.Counter // delta updates executed/applied
	mDeltaFast    *metrics.Counter // deltas spliced from DeltaCapable reports
	mCheckpoints  *metrics.Counter // checkpoint updates executed/applied
	mCkptJumps    *metrics.Counter // checkpoints that re-anchored the chain
	mNackGap      *metrics.Counter // nack cause: sequence gap
	mNackDiverged *metrics.Counter // nack cause: base-hash divergence
	mNackStream   *metrics.Counter // nack cause: cross-stream anchor needed
	mResyncRetx   *metrics.Counter // resyncs answered by suffix retransmit
	mResyncCkpt   *metrics.Counter // resyncs answered by checkpoint fallback
	mStallFires   *metrics.Counter // ack-stall detector fires
	hStallNanos   *metrics.Histogram
	gWindow       *metrics.Gauge // retained-window occupancy
	gAckFrontier  *metrics.Gauge // min cumulative ack across backups
	trace         *metrics.TraceRing
}

// New starts a replica. Call Stop to shut it down.
func New(cfg Config) (*Replica, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.CheckpointEvery == 0 {
		cfg.CheckpointEvery = defaultCheckpointEvery
	}
	windowKeep := cfg.UpdateWindow
	switch {
	case windowKeep == 0:
		windowKeep = defaultUpdateWindow
	case windowKeep < 0:
		windowKeep = 0
	}
	st := cfg.Store
	if st == nil {
		st = store.NewMem()
	}
	r := &Replica{
		cfg:        cfg,
		store:      st,
		durable:    st.Durable(),
		role:       RoleBackup,
		primaryIdx: cfg.InitialPrimary,
		replies:    core.NewReplies(core.ReplyHorizon),
		suspected:  make(map[int]bool),
		window:     core.NewWindow[retained](1, windowKeep),
		acked:      make(map[int]uint64),
		ackSeen:    make(map[int]uint64),
		stallTicks: make(map[int]int),
		stallWait:  make(map[int]int),
		stallLimit: int(cfg.HeartbeatTimeout/cfg.HeartbeatInterval) + 1,
		updFrom:    streamUnknown,
	}
	for idx := range cfg.Peers {
		if idx != cfg.Index {
			r.peerIdx = append(r.peerIdx, idx)
		}
	}
	sort.Ints(r.peerIdx)
	if reg := cfg.Metrics; reg != nil {
		node := fmt.Sprintf("{node=%q}", cfg.Addr)
		r.mDeltas = reg.Counter("pb_updates_delta_total"+node, metrics.Timing)
		r.mDeltaFast = reg.Counter("pb_updates_delta_fast_total"+node, metrics.Timing)
		r.mCheckpoints = reg.Counter("pb_updates_checkpoint_total"+node, metrics.Timing)
		r.mCkptJumps = reg.Counter("pb_checkpoint_jumps_total"+node, metrics.Timing)
		cause := func(c string) string {
			return fmt.Sprintf("pb_nack_cause_total{node=%q,cause=%q}", cfg.Addr, c)
		}
		r.mNackGap = reg.Counter(cause("gap"), metrics.Timing)
		r.mNackDiverged = reg.Counter(cause("diverged"), metrics.Timing)
		r.mNackStream = reg.Counter(cause("stream"), metrics.Timing)
		r.mResyncRetx = reg.Counter("pb_resync_retransmit_total"+node, metrics.Timing)
		r.mResyncCkpt = reg.Counter("pb_resync_checkpoint_total"+node, metrics.Timing)
		r.mStallFires = reg.Counter("pb_ack_stall_fires_total"+node, metrics.Timing)
		r.hStallNanos = reg.Histogram("pb_ack_stall_ns"+node, metrics.DefaultLatencyBuckets)
		r.gWindow = reg.Gauge("pb_window_occupancy" + node)
		r.gAckFrontier = reg.Gauge("pb_ack_frontier_min" + node)
		r.trace = reg.Ring(cfg.Addr, 0)
	}
	if cfg.Index == cfg.InitialPrimary {
		r.role = RolePrimary
	}
	r.lastHeartbeat = time.Now()
	if err := r.RecoverFromStore(); err != nil {
		return nil, fmt.Errorf("pb: %w", err)
	}
	node, err := core.NewNode(core.Config{
		Index:        cfg.Index,
		Addr:         cfg.Addr,
		Peers:        cfg.Peers,
		Net:          cfg.Net,
		TickInterval: cfg.HeartbeatInterval,
		Metrics:      cfg.Metrics,
	}, r)
	if err != nil {
		return nil, fmt.Errorf("pb: %w", err)
	}
	r.node = node
	if err := node.Start(); err != nil {
		return nil, fmt.Errorf("pb: %w", err)
	}
	return r, nil
}

// Index returns the replica's server index.
func (r *Replica) Index() int { return r.cfg.Index }

// Addr returns the replica's network address.
func (r *Replica) Addr() string { return r.cfg.Addr }

// Role returns the replica's current role.
func (r *Replica) Role() Role {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.role
}

// PrimaryIndex returns who this replica currently believes is primary.
func (r *Replica) PrimaryIndex() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.primaryIdx
}

// Seq returns the number of state updates applied (or, on the primary,
// executed).
func (r *Replica) Seq() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.seq
}

// Executed is Seq under the backend-neutral replica.Server name.
func (r *Replica) Executed() uint64 { return r.Seq() }

// Acked returns the cumulative update frontier peer has acknowledged on
// this replica's update stream — meaningful on the primary, whose reader
// loops drain the acks off the duplex peer links.
func (r *Replica) Acked(peer int) uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.acked[peer]
}

// CheckpointJumps counts the installed checkpoints that re-anchored this
// backup's chain — cross-stream anchors and gap jumps, not the stream's
// scheduled in-order checkpoints. Tests use it to assert a restarted backup
// converged by delta retransmission alone, without a checkpoint resync.
func (r *Replica) CheckpointJumps() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.ckptJumps
}

// PublicKey exposes the verification key for name-server registration.
func (r *Replica) PublicKey() []byte { return r.cfg.Keys.Public() }

// Stop shuts the replica down and waits for its goroutines to exit.
func (r *Replica) Stop() { r.node.Stop() }

// Crash simulates a node crash: the replica is made inert and its address
// torn out of the network synchronously — every peer and requester observes
// closed connections and the replica can take no further protocol actions —
// while goroutine shutdown completes in the background.
//
// Crash is safe to call from within request handling (a wrong-key exploit
// probe crashes the node mid-request): nothing here waits on the caller's
// own serving goroutine.
func (r *Replica) Crash() { r.node.Crash() }

// Restart re-opens a stopped or crashed replica in place — the supervised
// respawn-and-reconnect idiom: the listener re-registers at the same address
// (netsim allows it once CrashAddr or Close has torn the old one out), the
// serve loops come back, and the node rejoins the group under its retained
// service state and sequence number.
//
// A multi-replica node always rejoins as a backup, whatever its start-up
// role: the cluster may have failed over while it was down, and a rejoining
// initial primary that reclaimed its role would overwrite the current
// primary's newer state with its stale updates. Having kept its stream
// position and snapshot bytes, it converges over the duplex link: in-window
// gaps are retransmitted as deltas, anything worse resyncs via checkpoint.
// Only a single-replica deployment restarts straight into the primary role
// (there is no one else to defer to). Restarting a running replica is an
// error.
//
// This is the node-local restart primitive (a process supervisor's view);
// fortress-level fault recovery instead rebuilds the replica from a live
// peer's snapshot (fortress.System.Restart), trading retained local state
// for guaranteed freshness.
func (r *Replica) Restart() error { return r.node.Restart() }

// Rejoin implements core.Handler: protocol-state reset on restart.
func (r *Replica) Rejoin() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.role = RoleBackup
	if len(r.cfg.Peers) == 1 {
		r.role = RolePrimary
	}
	// primaryIdx keeps its pre-crash value; the current primary's next
	// heartbeat corrects it, and the failover timer covers a silent group.
	// updFrom/seq are retained too: if the stream is unchanged the
	// node resumes exactly where it stopped, and any gap it slept through
	// resolves with a nack on the first update or heartbeat it hears.
	r.suspected = make(map[int]bool)
	// Parked requesters were disconnected by the shutdown; they resubmit.
	r.replies.Unpark()
	r.resyncing = false
	// The ack-stall clock compares frontiers observed on consecutive live
	// ticks; observations from before the crash describe a link that no
	// longer exists. Without this reset a node that restarts (rather than
	// being rebuilt via New) would inherit pre-crash stall ticks and backoff
	// waits and could fire a spurious — or badly delayed — stall resync on
	// its first ticks back as primary.
	r.ackSeen = make(map[int]uint64)
	r.stallTicks = make(map[int]int)
	r.stallWait = make(map[int]int)
	r.lastHeartbeat = time.Now()
}

// RecoverFromStore implements core.StoreRecoverer: a virgin replica built
// over a non-empty store reloads its state from disk — the persisted
// checkpoint, then the journaled delta suffix replayed over it, verifying
// the chain hashes exactly as a live backup would — before the protocol's
// own catch-up closes whatever gap the disk does not cover. New calls it
// too, so a fortress-level rebuild over a surviving store recovers without
// a donor: that is what makes a whole-cluster blackout survivable.
//
// A replica that has applied anything already (an in-place restart, whose
// memory the journal never runs ahead of) is left untouched.
//
// In a multi-replica group the recovered node always comes back as a
// backup positioned at its journaled stream: the cluster may have moved on
// while it was down, and heartbeats plus the failover timer sort out who
// leads now. Because the stream position (updFrom, seq, and the state) is
// restored rather than reset, an in-window gap converges by delta
// retransmission over the duplex link — no checkpoint resync.
func (r *Replica) RecoverFromStore() error {
	if !r.durable {
		return nil
	}
	rec, err := r.store.Load()
	if err != nil || rec.Empty() {
		return err
	}
	r.execMu.Lock()
	defer r.execMu.Unlock()
	r.mu.Lock()
	virgin := r.seq == 0
	r.mu.Unlock()
	if !virgin {
		return nil
	}
	var (
		state []byte
		seq   uint64
		from  = streamUnknown
		resps = make(map[string][]byte)
	)
	if rec.HasSnapshot {
		var cp wireMsg
		if err := json.Unmarshal(rec.Snapshot, &cp); err != nil {
			return fmt.Errorf("pb: recover snapshot: %w", err)
		}
		state = cp.Snapshot
		seq = cp.Seq
		from = cp.From
		maps.Copy(resps, cp.Responses)
		if cp.RequestID != "" {
			resps[cp.RequestID] = cp.RespBody
		}
	}
replay:
	for i, raw := range rec.Records {
		rseq := rec.LogStart + uint64(i)
		if rseq <= seq {
			continue // covered by the snapshot
		}
		if rseq != seq+1 {
			break // journal does not chain onto the snapshot: keep the prefix
		}
		var m wireMsg
		if json.Unmarshal(raw, &m) != nil {
			break
		}
		switch m.Type {
		case msgCheckpoint:
			state = m.Snapshot
			from = m.From
		case msgUpdate:
			if state == nil || snapHash(state) != m.BaseHash {
				break replay
			}
			next, ok := ApplyDelta(state, m.DeltaPrefix, m.Delta, m.DeltaSuffix)
			if !ok {
				break replay
			}
			state = next
			from = m.From
		default:
			break replay
		}
		if m.RequestID != "" {
			resps[m.RequestID] = m.RespBody
		}
		seq = rseq
	}
	if state == nil || seq == 0 {
		return nil
	}
	if err := r.cfg.Service.Restore(state); err != nil {
		return fmt.Errorf("pb: recover restore: %w", err)
	}
	r.mu.Lock()
	r.seq = seq
	r.updFrom = from
	// If this node is later promoted, its first execution must ship a
	// checkpoint anchoring every backup, and its retransmission window must
	// restart past the recovered history.
	r.lastSnap = nil
	r.window.Reset(seq + 1)
	if len(r.cfg.Peers) > 1 {
		r.role = RoleBackup
		if from != streamUnknown {
			r.primaryIdx = from
		}
	} else {
		r.role = RolePrimary
	}
	r.replies.Import(resps)
	r.lastHeartbeat = time.Now()
	r.mu.Unlock()
	return nil
}

// HandleMessage implements core.Handler: one decoded wire message.
func (r *Replica) HandleMessage(conn *netsim.Conn, raw []byte, replies [][]byte) [][]byte {
	var m wireMsg
	if json.Unmarshal(raw, &m) != nil {
		return replies // malformed traffic is dropped, never crashes a replica
	}
	switch m.Type {
	case core.MsgRequest:
		if resp := r.handleRequest(conn, m); resp != nil {
			replies = append(replies, resp)
		}
	case msgUpdate, msgCheckpoint:
		if ack := r.handleUpdate(m); ack != nil {
			replies = append(replies, ack)
		}
	case msgHeartbeat:
		r.handleHeartbeat(m)
	case msgAck:
		// Acks normally ride the duplex link back to the primary's reader
		// loop (HandlePeerReply); one arriving here came over the backup's
		// own outbox connection and means the same thing.
		r.handleAck(m)
	case msgNack:
		r.handleNack(m)
	}
	return replies
}

// HandlePeerReply implements core.Handler: one message read back off the
// cached peer connection to peer — the reply direction of the full-duplex
// link. For the primary that is the ack/nack stream its update broadcasts
// come back as.
func (r *Replica) HandlePeerReply(peer int, raw []byte) {
	var m wireMsg
	if json.Unmarshal(raw, &m) != nil {
		return
	}
	switch m.Type {
	case msgAck:
		r.handleAck(m)
	case msgNack:
		r.handleNack(m)
	}
}

// handleRequest serves a request according to the current role. It returns
// the encoded response to deliver on the caller's connection — nil when the
// request is parked on a backup — so the runtime can batch a whole drain's
// responses into one SendBatch.
func (r *Replica) handleRequest(conn *netsim.Conn, m wireMsg) []byte {
	r.mu.Lock()
	if payload, ok := r.replies.Lookup(m.RequestID); ok {
		r.mu.Unlock()
		return r.reply(m.RequestID, payload)
	}
	if r.role != RolePrimary {
		// Backup: park the connection until the primary's update arrives.
		r.replies.Park(m.RequestID, conn)
		r.mu.Unlock()
		return nil
	}
	r.mu.Unlock()
	return r.execute(m)
}

// execute runs one request on the primary and stages its update. execMu
// serializes execution with snapshotting, so each delta is the exact diff
// of consecutive states and the window stays in lockstep with seq; it also
// keeps a concurrent resync from interleaving retransmitted deltas between
// a fresh update's execution and its staging (the per-peer outbox is FIFO,
// so backups always see the stream in chain order).
func (r *Replica) execute(m wireMsg) []byte {
	r.execMu.Lock()
	defer r.execMu.Unlock()
	r.mu.Lock()
	// Re-check under execMu: a concurrent duplicate may have executed while
	// this request waited, and must not run the service twice.
	if prior, ok := r.replies.Lookup(m.RequestID); ok {
		r.mu.Unlock()
		return r.reply(m.RequestID, prior)
	}
	r.mu.Unlock()

	payload := core.Payload(r.cfg.Service.Apply(m.Body))

	// Fast path: a DeltaCapable service described this Apply's exact
	// snapshot edit and already spliced it into the snapshot it maintains,
	// so that snapshot is the next chain state and the edit is the delta —
	// no marshal, no DiffSnapshot scan, no second copy. Only delta
	// sequences use the edit; checkpoints ship the whole snapshot.
	delta, fast := service.LastDeltaOf(r.cfg.Service)
	snap, snapErr := r.cfg.Service.Snapshot()

	r.mu.Lock()
	r.seq++
	seq := r.seq
	r.replies.Record(m.RequestID, payload)
	if snapErr != nil {
		// The new state cannot be described: break the chain so the next
		// update checkpoints, and restart the window past the hole.
		r.lastSnap = nil
		r.window.Reset(seq + 1)
		r.mu.Unlock()
		return r.reply(m.RequestID, payload)
	}
	up := retained{requestID: m.RequestID, respBody: payload}
	if r.lastSnap == nil || seq%uint64(r.cfg.CheckpointEvery) == 0 {
		up.checkpoint = snap
		r.mCheckpoints.Inc()
	} else {
		r.mDeltas.Inc()
		up.baseHash = snapHash(r.lastSnap)
		if delta.Unchanged {
			delta = service.SnapshotDelta{PrefixLen: len(r.lastSnap)}
		}
		// A reported edit must fit the old snapshot and account for every
		// byte of the new one; anything else takes the diff path.
		p, s := delta.PrefixLen, delta.SuffixLen
		if fast && p >= 0 && s >= 0 && p+s <= len(r.lastSnap) && p+len(delta.Patch)+s == len(snap) {
			r.mDeltaFast.Inc()
			up.prefix, up.suffix = p, s
			up.patch = append([]byte(nil), delta.Patch...)
		} else {
			var patch []byte
			up.prefix, patch, up.suffix = DiffSnapshot(r.lastSnap, snap)
			// Copy: the patch sub-slices snap, and a retained alias would
			// pin the whole historical snapshot in the window for the life
			// of the entry — the exact memory scaling deltas exist to
			// avoid.
			up.patch = append([]byte(nil), patch...)
		}
	}
	r.lastSnap = snap
	r.window.Append(up)
	r.gWindow.Set(int64(r.window.Len()))
	// Staged on the per-backup outboxes: every update executed while
	// draining one inbound batch leaves in a single SendBatch per backup
	// when the runtime flushes at the end of the drain.
	wire := encode(updateMsg(seq, r.cfg.Index, up, nil))
	r.node.Broadcast(wire)
	if r.durable {
		r.persistUpdateLocked(seq, up, wire)
	}
	r.mu.Unlock()
	return r.reply(m.RequestID, payload)
}

// persistUpdateLocked journals one executed update on the primary: deltas
// append the exact broadcast bytes (the encoding is immutable, so sharing
// it with the outboxes is safe), checkpoints overwrite the snapshot slot —
// with the reply table attached, like a resync checkpoint — and clear
// the journal the snapshot supersedes. Store errors are dropped: durability
// degrades (recovery covers less) but the replica keeps serving. Caller
// holds execMu and r.mu.
func (r *Replica) persistUpdateLocked(seq uint64, up retained, wire []byte) {
	if up.checkpoint == nil {
		_ = r.store.Append(seq, wire)
		return
	}
	if r.store.WriteSnapshot(seq, encode(updateMsg(seq, r.cfg.Index, up, r.replies.Export()))) == nil {
		_ = r.store.TruncateTo(store.TruncateAll)
	}
}

// updateMsg encodes one retained update (delta or checkpoint) for the wire;
// responses rides only on resync checkpoints.
func updateMsg(seq uint64, from int, up retained, responses map[string][]byte) wireMsg {
	m := wireMsg{
		Seq:       seq,
		From:      from,
		RequestID: up.requestID,
		RespBody:  up.respBody,
		Responses: responses,
	}
	if up.checkpoint != nil {
		m.Type = msgCheckpoint
		m.Snapshot = up.checkpoint
	} else {
		m.Type = msgUpdate
		m.DeltaPrefix = up.prefix
		m.DeltaSuffix = up.suffix
		m.Delta = up.patch
		m.BaseHash = up.baseHash
	}
	return m
}

// reply signs and encodes this replica's response to a request.
func (r *Replica) reply(requestID string, payload []byte) []byte {
	return core.EncodeReply(r.cfg.Keys, r.cfg.Index, requestID, payload, false)
}

// handleUpdate applies a primary update (delta or checkpoint) on a backup
// and returns the cumulative ack to send back on the update's connection —
// or a nack when the update does not chain onto this backup's state. execMu
// serializes installations, so two primaries racing a failover window
// cannot interleave restores.
func (r *Replica) handleUpdate(m wireMsg) []byte {
	r.execMu.Lock()
	defer r.execMu.Unlock()

	r.mu.Lock()
	if r.role == RolePrimary {
		// A deposed primary re-joining as backup would handle this; a live
		// primary ignores stale updates.
		r.mu.Unlock()
		return nil
	}
	sameStream := m.From == r.updFrom
	prevSeq := r.seq
	if m.Type == msgCheckpoint {
		if sameStream && m.Seq <= prevSeq {
			// Duplicate (a retransmission crossed our ack, or the ack was
			// lost): re-ack the frontier instead of staying silent, or the
			// primary keeps believing us stalled and retransmits forever.
			ack := r.ackLocked(m.From)
			r.mu.Unlock()
			return ack
		}
		if !sameStream && m.From != r.primaryIdx {
			// A checkpoint from a primary this backup does not follow — a
			// deposed primary's stall detector, or a pre-failover
			// checkpoint delayed in flight. Anchoring to it would regress
			// the backup onto a dead stream; only the followed primary
			// (maintained by heartbeats and failover) may re-anchor.
			r.mu.Unlock()
			return nil
		}
		r.mu.Unlock()
		return r.installCheckpoint(m, sameStream, prevSeq)
	}
	switch {
	case !sameStream:
		// A delta from a stream this backup is not positioned in: only a
		// checkpoint can anchor it.
		r.mNackStream.Inc()
		r.trace.Record(metrics.KindResyncStream, r.cfg.Addr, m.From, m.Seq)
		return r.nackLocked()
	case m.Seq <= prevSeq:
		// Duplicate delta (retransmission crossed our ack): re-ack so the
		// primary relearns the frontier even when the original ack was
		// lost on a lossy link.
		ack := r.ackLocked(m.From)
		r.mu.Unlock()
		return ack
	case m.Seq > prevSeq+1:
		r.mNackGap.Inc()
		r.trace.Record(metrics.KindResyncGap, r.cfg.Addr, m.From, m.Seq)
		return r.nackLocked() // gap: updates were dropped or slept through
	}
	r.mu.Unlock()

	// In-order delta: verify the chain base and install. Failures here are
	// divergence, not gaps — retransmitting the same delta could never
	// succeed — so the backup drops off-stream first and its nack carries
	// streamUnknown, steering the primary straight to the checkpoint
	// fallback (and making the stream's later deltas cross-stream drops
	// instead of a fresh spurious nack each).
	// The delta chains from the service's own snapshot, so the base hash
	// checks the very state the edit is installed on, however it got
	// there, and the service installs the edit in place instead of
	// re-parsing the whole spliced state.
	base, err := r.cfg.Service.Snapshot()
	if err != nil || snapHash(base) != m.BaseHash {
		return r.nackDiverged()
	}
	newSnap, ok := ApplyDelta(base, m.DeltaPrefix, m.Delta, m.DeltaSuffix)
	if !ok {
		return r.nackDiverged()
	}
	d := service.SnapshotDelta{PrefixLen: m.DeltaPrefix, Patch: m.Delta, SuffixLen: m.DeltaSuffix}
	if err := service.InstallDelta(r.cfg.Service, newSnap, d); err != nil {
		return r.nackDiverged()
	}

	r.mDeltas.Inc()
	r.mu.Lock()
	r.seq = m.Seq
	r.primaryIdx = m.From
	r.lastHeartbeat = time.Now()
	r.resyncing = false
	waiting := r.replies.Record(m.RequestID, m.RespBody)
	if r.durable {
		// Journal the installed update so a rebuild over this store resumes
		// from the applied frontier instead of an empty state.
		_ = r.store.Append(m.Seq, encode(m))
	}
	ack := r.ackLocked(m.From)
	r.mu.Unlock()

	core.Answer(r.cfg.Keys, r.cfg.Index, waiting)
	return ack
}

// installCheckpoint anchors a backup at a full-snapshot update: cross-stream
// checkpoints reposition the backup in the sender's stream wholesale (its
// sequence space, not ours), same-stream ones jump a gap or continue the
// chain. Caller holds execMu.
func (r *Replica) installCheckpoint(m wireMsg, sameStream bool, prevSeq uint64) []byte {
	if err := r.cfg.Service.Restore(m.Snapshot); err != nil {
		// Unusable snapshot: stay put; the primary's stall detector retries.
		return nil
	}
	var serve []core.Waiting
	var orphaned []*netsim.Conn

	r.mu.Lock()
	jumped := !sameStream || m.Seq > prevSeq+1
	r.seq = m.Seq
	r.updFrom = m.From
	r.primaryIdx = m.From
	r.lastHeartbeat = time.Now()
	r.resyncing = false
	r.mCheckpoints.Inc()
	if jumped {
		r.ckptJumps++
		r.mCkptJumps.Inc()
	}
	// Whoever is parked on a request this checkpoint answers is served now.
	if m.RequestID != "" {
		serve = append(serve, r.replies.Record(m.RequestID, m.RespBody))
	}
	serve = append(serve, r.replies.Import(m.Responses)...)
	if r.durable {
		// The checkpoint message carries everything recovery needs (state,
		// stream, responses): persist it whole as the snapshot slot and drop
		// the journal it supersedes — including any orphans a jump left
		// above the new sequence.
		if r.store.WriteSnapshot(m.Seq, encode(m)) == nil {
			_ = r.store.TruncateTo(store.TruncateAll)
		}
	}
	if jumped {
		// The jump skipped requests this checkpoint carries no responses
		// for: close their parked connections so the requesters resubmit
		// (the primary answers retries from its table), exactly as failover
		// does for requests orphaned by a dead primary.
		orphaned = r.replies.Unpark()
	}
	ack := r.ackLocked(m.From)
	r.mu.Unlock()

	core.Answer(r.cfg.Keys, r.cfg.Index, serve...)
	for _, c := range orphaned {
		c.Close()
	}
	return ack
}

// ackLocked encodes the cumulative applied-frontier ack. Caller holds r.mu.
func (r *Replica) ackLocked(stream int) []byte {
	return encode(wireMsg{Type: msgAck, Seq: r.seq, From: r.cfg.Index, Stream: stream})
}

// nackDiverged reports a chain break that no retransmission can repair
// (base-hash mismatch, unappliable delta, failed install): the backup
// abandons its stream position so the nack's streamUnknown forces the
// primary onto the checkpoint path.
func (r *Replica) nackDiverged() []byte {
	r.mNackDiverged.Inc()
	r.mu.Lock()
	r.trace.Record(metrics.KindResyncDiverged, r.cfg.Addr, r.primaryIdx, r.seq)
	r.updFrom = streamUnknown
	return r.nackLocked()
}

// nackLocked encodes a chain-break report carrying the backup's applied
// frontier and stream position, rate-limited so a burst of unapplicable
// deltas triggers one resync, not one per delta. Caller holds r.mu; the
// lock is released.
func (r *Replica) nackLocked() []byte {
	if r.resyncing && time.Since(r.nackedAt) < r.cfg.HeartbeatTimeout {
		r.mu.Unlock()
		return nil
	}
	r.resyncing = true
	r.nackedAt = time.Now()
	n := encode(wireMsg{Type: msgNack, Seq: r.seq, From: r.cfg.Index, Stream: r.updFrom})
	r.mu.Unlock()
	return n
}

// handleAck records a backup's cumulative applied frontier and releases
// retained deltas every backup has acknowledged.
func (r *Replica) handleAck(m wireMsg) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.role != RolePrimary || m.Stream != r.cfg.Index {
		return // an ack for another primary's stream says nothing about ours
	}
	if m.Seq > r.acked[m.From] {
		r.acked[m.From] = m.Seq
	}
	// Ack-driven early release: everything every peer has applied can go
	// before the capacity bound forces it out. An ack for an
	// already-trimmed (checkpointed) sequence is simply below every
	// frontier and trims nothing.
	minAck := m.Seq
	for _, idx := range r.peerIdx {
		if a := r.acked[idx]; a < minAck {
			minAck = a
		}
	}
	if minAck > 0 {
		r.window.TrimTo(minAck + 1)
	}
	r.gAckFrontier.Set(int64(minAck))
	r.gWindow.Set(int64(r.window.Len()))
}

// handleNack resyncs a backup that reported a chain break.
func (r *Replica) handleNack(m wireMsg) {
	r.resyncPeer(m.From, m.Seq, m.Stream)
}

// resyncPeer brings one backup back onto the update stream: a backup
// confirmed on this primary's own chain (stream) whose gap fits the
// retained window gets the missing suffix retransmitted delta-by-delta;
// anything else — cross-stream, out-the-window, or never-acked — gets a
// full checkpoint carrying the reply table. execMu is held across
// staging so the resync cannot interleave with a concurrent execution's
// broadcast: the per-peer outbox is FIFO, so the backup receives the suffix
// and any newer live updates in chain order.
func (r *Replica) resyncPeer(peer int, from uint64, stream int) {
	r.execMu.Lock()
	defer r.execMu.Unlock()
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.role != RolePrimary {
		return
	}
	if _, ok := r.cfg.Peers[peer]; !ok || peer == r.cfg.Index {
		return
	}
	if stream == r.cfg.Index {
		// The nack frontier is an observation of the backup's position on
		// our own chain — trust it even when it regresses (an in-place
		// restart slept through updates).
		r.acked[peer] = from
	} else {
		r.acked[peer] = 0
	}
	if from >= r.seq && stream == r.cfg.Index {
		return // already current
	}
	inWindow := stream == r.cfg.Index &&
		from+1 >= r.window.Base() && r.window.End() == r.seq+1
	if inWindow {
		for s := from + 1; s <= r.seq; s++ {
			up, ok := r.window.Get(s)
			if !ok {
				inWindow = false
				break
			}
			r.node.SendTo(peer, encode(updateMsg(s, r.cfg.Index, up, nil)))
		}
		if inWindow {
			r.mResyncRetx.Inc()
			return // staged; the runtime flushes on the way out
		}
	}
	// Checkpoint fallback: the whole state plus the reply table, so
	// requests the backup jumps over stay answerable from it.
	if r.lastSnap == nil {
		return // nothing executed yet; the first update will checkpoint
	}
	r.mResyncCkpt.Inc()
	r.node.SendTo(peer, encode(wireMsg{
		Type:      msgCheckpoint,
		Seq:       r.seq,
		From:      r.cfg.Index,
		Snapshot:  r.lastSnap,
		Responses: r.replies.Export(),
	}))
}

func (r *Replica) handleHeartbeat(m wireMsg) {
	r.mu.Lock()
	if r.role == RolePrimary && m.From != r.cfg.Index {
		// Two primaries: the lower index wins, the higher demotes itself —
		// and, now a backup with a dead chain, waits for the winner's
		// checkpoint to anchor it.
		if m.From < r.cfg.Index {
			r.role = RoleBackup
			r.primaryIdx = m.From
			r.updFrom = streamUnknown
			r.resyncing = false
		}
		r.mu.Unlock()
		return
	}
	r.primaryIdx = m.From
	r.lastHeartbeat = time.Now()
	// The heartbeat carries the primary's executed frontier: a backup that
	// is behind with no update in flight (it slept through the whole tail)
	// would otherwise wait for the next execution to notice.
	behind := m.Seq > r.seq && m.From != r.cfg.Index
	if !behind {
		r.mu.Unlock()
		return
	}
	nack := r.nackLocked() // releases r.mu
	if nack != nil {
		r.node.SendTo(m.From, nack)
	}
}

// Tick implements core.Handler: heartbeats plus ack-stall detection
// (primary) and failure detection (backup). Staged messages are flushed by
// the runtime when Tick returns.
func (r *Replica) Tick() {
	r.mu.Lock()
	role := r.role
	stale := time.Since(r.lastHeartbeat) > r.cfg.HeartbeatTimeout
	primary := r.primaryIdx
	seq := r.seq
	type stalledPeer struct {
		peer   int
		from   uint64
		stream int
	}
	var stalled []stalledPeer
	if role == RolePrimary {
		for _, idx := range r.peerIdx {
			a := r.acked[idx]
			switch {
			case a >= seq:
				r.stallTicks[idx] = 0
				r.stallWait[idx] = r.stallLimit
			case a == r.ackSeen[idx]:
				r.stallTicks[idx]++
			default:
				r.stallTicks[idx] = 0
				r.stallWait[idx] = r.stallLimit
			}
			r.ackSeen[idx] = a
			wait := r.stallWait[idx]
			if wait == 0 {
				wait = r.stallLimit
			}
			if r.stallTicks[idx] >= wait {
				r.stallTicks[idx] = 0
				// Satellite observability for the detector itself: how often
				// it fires and how long (in wall time) each detected stall
				// lasted before the resync went out.
				r.mStallFires.Inc()
				r.hStallNanos.Observe(uint64(wait) * uint64(r.cfg.HeartbeatInterval))
				r.trace.Record(metrics.KindResyncStall, r.cfg.Addr, idx, a)
				// Back off while the peer keeps not answering (crashed or
				// partitioned away): each unanswered resync doubles the
				// wait, capped at 8× — a dead backup must not cost a full
				// state+replies encode every timeout. Ack progress resets it.
				r.stallWait[idx] = min(wait*2, r.stallLimit*8)
				// A peer that has acked on this stream is retransmitted
				// from its frontier; one that never has gets a checkpoint.
				stream := r.cfg.Index
				if a == 0 {
					stream = streamUnknown
				}
				stalled = append(stalled, stalledPeer{idx, a, stream})
			}
		}
	}
	r.mu.Unlock()

	switch role {
	case RolePrimary:
		r.node.Broadcast(encode(wireMsg{Type: msgHeartbeat, From: r.cfg.Index, Seq: seq}))
		for _, s := range stalled {
			r.resyncPeer(s.peer, s.from, s.stream)
		}
	case RoleBackup:
		if stale {
			r.promote(primary)
		}
	}
}

// promote deterministically elects the next primary after deadPrimary: the
// lowest index greater than the dead one, wrapping around, excluding
// suspected-dead replicas. Every backup applies the same rule, so they
// converge without coordination.
//
// execMu is taken first: handleUpdate releases mu around a slow Restore,
// and a promotion sliding into that gap would let the install finish on a
// node that just became primary — overwriting the fresh primary's state
// with the dead stream's update and desyncing seq from the retransmission
// window. Under execMu the promotion waits out any in-flight install.
func (r *Replica) promote(deadPrimary int) {
	r.execMu.Lock()
	defer r.execMu.Unlock()
	r.mu.Lock()
	r.suspected[deadPrimary] = true
	indices := make([]int, 0, len(r.cfg.Peers))
	for i := range r.cfg.Peers {
		if !r.suspected[i] {
			indices = append(indices, i)
		}
	}
	if len(indices) == 0 {
		r.mu.Unlock()
		return
	}
	sort.Ints(indices)
	next := indices[0]
	for _, i := range indices {
		if i > deadPrimary {
			next = i
			break
		}
	}
	r.primaryIdx = next
	r.lastHeartbeat = time.Now()
	// Requests parked waiting for the dead primary's update will never be
	// answered, and their bodies are gone with the parked message: close the
	// connections so requesters notice now and resubmit (proxies do).
	orphaned := r.replies.Unpark()
	becamePrimary := next == r.cfg.Index && r.role != RolePrimary
	if becamePrimary {
		r.role = RolePrimary
		// A fresh primary starts a fresh update stream: its first executed
		// update ships as a checkpoint (lastSnap is nil), anchoring every
		// backup whatever it had applied under the old stream, and the
		// retransmission window restarts past everything inherited.
		r.lastSnap = nil
		r.window.Reset(r.seq + 1)
		for _, idx := range r.peerIdx {
			r.acked[idx] = 0
			r.ackSeen[idx] = 0
			r.stallTicks[idx] = 0
			r.stallWait[idx] = r.stallLimit // a new term owes no old backoff
		}
	}
	r.mu.Unlock()

	if becamePrimary {
		// Announce immediately so peers stop their own failover timers.
		r.node.Broadcast(encode(wireMsg{Type: msgHeartbeat, From: r.cfg.Index, Seq: r.Seq()}))
	}
	for _, c := range orphaned {
		c.Close()
	}
}

// --- Requester --------------------------------------------------------

// Request sends one request to the replica at addr over net and waits for
// its signed response. It is the requester-side helper proxies and tests
// use; from is the caller's network identity.
func Request(net *netsim.Network, from, addr, requestID string, body []byte, timeout time.Duration) (sig.ServerResponse, error) {
	return RequestTagged(net, from, addr, requestID, body, false, timeout)
}

// RequestTagged is Request with an explicit read tag: read requests are
// eligible for the smr lease-read fast path at the receiving replica (the
// pb engine serves them through the ordinary primary path regardless).
func RequestTagged(net *netsim.Network, from, addr, requestID string, body []byte, read bool, timeout time.Duration) (sig.ServerResponse, error) {
	resp, _, err := core.Request(net, from, addr, requestID, body, read, timeout)
	return resp, err
}

// RequestOn issues a request on an existing connection and waits for the
// matching signed response, skipping unrelated traffic.
func RequestOn(conn *netsim.Conn, requestID string, body []byte, timeout time.Duration) (sig.ServerResponse, error) {
	resp, _, err := core.RequestOn(conn, requestID, body, false, timeout)
	return resp, err
}
