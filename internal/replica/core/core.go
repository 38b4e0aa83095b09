// Package core is the shared node runtime both replication engines (pb,
// smr) are built on: everything about being a long-lived, crashable,
// restartable netsim node that is independent of the replication protocol
// itself.
//
// The runtime owns:
//
//   - Lifecycle: Stop (graceful, waits for goroutines), Crash (synchronous
//     network teardown, background goroutine drain) and Restart (waits out
//     the previous generation's serve loops, re-registers the listener,
//     asks the protocol to rejoin) — with the serve-loop drain discipline
//     that makes Stop safe to call from within request handling.
//   - The inbound-connection registry: every served connection is tracked
//     so shutdown can close it; Stop never depends on a peer sending one
//     more message to wake a serving goroutine.
//   - The accept/serve loops: each served connection drains its backlog a
//     whole batch at a time (RecvBatch — one queue-lock acquisition per
//     drain), hands every payload to the protocol Handler, releases the
//     decoded buffers back to the netsim pool, and answers each drained
//     batch's replies with one SendBatch.
//   - The peer-connection cache: lazily dialed, re-dialed once on send
//     failure, dropped when a peer is crashed or partitioned. Peer links are
//     full duplex: every cached connection gets a reader loop that drains
//     whatever the peer sends back on it (acks, catch-up responses,
//     backpressure signals) with RecvBatch and hands each payload to the
//     protocol's HandlePeerReply hook — the same connection carries requests
//     one way and replies the other, so nothing piles up unread on the
//     dialing side and auxiliary exchanges need no separately dialed
//     connection.
//   - Per-peer ring-buffered outboxes: messages staged with SendTo or
//     Broadcast coalesce until the next Flush, which ships each peer's
//     whole staged batch with a single SendBatch — so a primary that
//     executes a drained batch of requests pays one fan-out flush per peer,
//     not one Send per update per peer. The runtime flushes automatically
//     after every drained inbound batch and after every timer tick.
//
// Beside the runtime sits the one piece of protocol both engines share, the
// §3 interaction pattern: sign the response with your own index, return it
// to each requester, answer a repeat of the same request with the same
// bytes. Replies (replies.go) is the table behind it — executed id →
// payload with a fixed eviction horizon, the sequencing claim, the parked
// requesters, and Export/Import for every place the table travels — held by
// each engine under its own lock; request.go is the requester-facing wire
// exchange (Request, EncodeReply, Answer) proxies and clients speak to
// either engine.
package core

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"fortress/internal/metrics"
	"fortress/internal/netsim"
)

// Handler is the protocol half of a node: the replication engine the
// runtime drives. All methods are called from runtime goroutines.
type Handler interface {
	// HandleMessage processes one raw payload received on conn and returns
	// replies (appended to the passed slice) to deliver on that same
	// connection; the runtime sends a whole drained batch's replies with
	// one SendBatch. The raw buffer is released to the netsim pool after
	// HandleMessage returns, so implementations must not retain it.
	HandleMessage(conn *netsim.Conn, raw []byte, replies [][]byte) [][]byte
	// HandlePeerReply processes one raw payload read back off the cached
	// peer connection to peer — the reply direction of a full-duplex peer
	// link (acks, catch-up responses). It runs on that peer's reader
	// goroutine; messages staged with SendTo/Broadcast during the call are
	// flushed when the reader finishes the drained batch. The raw buffer is
	// released after HandlePeerReply returns, so implementations must not
	// retain it.
	HandlePeerReply(peer int, raw []byte)
	// Tick fires once per Config.TickInterval while the node is up.
	// Messages staged with SendTo/Broadcast during the tick are flushed
	// when it returns.
	Tick()
	// Rejoin resets protocol state when a stopped node restarts, after the
	// listener is re-registered and before the serve loops come back.
	Rejoin()
}

// StoreRecoverer is implemented by protocol handlers that can reload their
// state from a persistent store (replica/store). Restart invokes it after
// the listener is re-registered and before Rejoin, so a node whose process
// state survived (an in-place restart) keeps its memory — implementations
// no-op when memory is at least as fresh as the disk — while a node built
// over a non-empty store recovers from it before the protocol's own
// catch-up machinery closes any remaining gap.
type StoreRecoverer interface {
	RecoverFromStore() error
}

// Config describes the transport identity of one node.
type Config struct {
	// Index is this node's unique index within Peers.
	Index int
	// Addr is the netsim address the node listens on.
	Addr string
	// Peers maps every node index (including this one) to its address.
	Peers map[int]string
	// Net is the simulated network.
	Net *netsim.Network
	// TickInterval is the Handler.Tick cadence.
	TickInterval time.Duration
	// Metrics, when non-nil, receives the runtime's transport instruments
	// (outbox depth, flush batch shape, peer-link failures), labelled by
	// Addr. Observational only: nothing in the runtime reads them back.
	Metrics *metrics.Registry
}

func (c Config) validate() error {
	switch {
	case c.Net == nil:
		return errors.New("core: config needs Net")
	case c.Addr == "":
		return errors.New("core: config needs Addr")
	case len(c.Peers) == 0:
		return errors.New("core: config needs Peers")
	case c.TickInterval <= 0:
		return errors.New("core: config needs a positive TickInterval")
	}
	if _, ok := c.Peers[c.Index]; !ok {
		return fmt.Errorf("core: Peers must contain own index %d", c.Index)
	}
	return nil
}

// Node is the runtime instance. Create with NewNode, wire the handler's
// back-references, then Start it.
type Node struct {
	cfg Config
	h   Handler

	// peerIdx is every other peer's index in ascending order, so flushes
	// visit peers deterministically rather than in map order.
	peerIdx  []int
	outboxes map[int]*outbox

	mu        sync.Mutex
	stopped   bool
	peerConns map[int]*netsim.Conn
	inbound   map[*netsim.Conn]struct{}
	listener  *netsim.Listener
	stop      chan struct{}

	done sync.WaitGroup

	// Transport instruments (nil handles when Config.Metrics is nil; every
	// operation on a nil instrument no-ops, so the hot paths below carry no
	// metrics conditionals).
	mFlushBatches *metrics.Counter   // non-empty per-peer batches flushed
	mFlushMsgs    *metrics.Counter   // messages those batches carried
	hFlushSize    *metrics.Histogram // per-flush batch size distribution
	mDialFails    *metrics.Counter   // peer dials that failed (down/partitioned)
	mSendFails    *metrics.Counter   // SendBatch errors (peer-reader stalls, teardown races)
	mInboundMsgs  *metrics.Counter   // payloads drained off served connections
	mPeerReplies  *metrics.Counter   // payloads drained off duplex peer links
}

// flushSizeBuckets grades the outbox batch-size histogram: power-of-two
// message counts, so the fan-out coalescing win is visible at a glance.
var flushSizeBuckets = []uint64{1, 2, 4, 8, 16, 32, 64, 128}

// NewNode builds a node without starting it, so the handler can store the
// back-reference before any runtime goroutine can call into it.
func NewNode(cfg Config, h Handler) (*Node, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if h == nil {
		return nil, errors.New("core: node needs a handler")
	}
	n := &Node{
		cfg:       cfg,
		h:         h,
		outboxes:  make(map[int]*outbox, len(cfg.Peers)-1),
		peerConns: make(map[int]*netsim.Conn),
		inbound:   make(map[*netsim.Conn]struct{}),
		stopped:   true, // not yet started
	}
	for idx := range cfg.Peers {
		if idx == cfg.Index {
			continue
		}
		n.peerIdx = append(n.peerIdx, idx)
		n.outboxes[idx] = &outbox{}
	}
	sort.Ints(n.peerIdx)
	if reg := cfg.Metrics; reg != nil {
		node := fmt.Sprintf("{node=%q}", cfg.Addr)
		n.mFlushBatches = reg.Counter("core_flush_batches_total"+node, metrics.Timing)
		n.mFlushMsgs = reg.Counter("core_flush_messages_total"+node, metrics.Timing)
		n.hFlushSize = reg.Histogram("core_flush_batch_size"+node, flushSizeBuckets)
		n.mDialFails = reg.Counter("core_peer_dial_failures_total"+node, metrics.Timing)
		n.mSendFails = reg.Counter("core_peer_send_failures_total"+node, metrics.Timing)
		n.mInboundMsgs = reg.Counter("core_inbound_messages_total"+node, metrics.Timing)
		n.mPeerReplies = reg.Counter("core_peer_replies_total"+node, metrics.Timing)
		for _, idx := range n.peerIdx {
			n.outboxes[idx].depth = reg.Gauge(fmt.Sprintf("core_outbox_depth{node=%q,peer=\"%d\"}", cfg.Addr, idx))
		}
	}
	return n, nil
}

// Start registers the listener and launches the accept and timer loops.
func (n *Node) Start() error {
	l, err := n.cfg.Net.Listen(n.cfg.Addr)
	if err != nil {
		return fmt.Errorf("core: listen: %w", err)
	}
	stop := make(chan struct{})
	n.mu.Lock()
	n.stopped = false
	n.listener = l
	n.stop = stop
	n.mu.Unlock()
	n.done.Add(2)
	go n.acceptLoop(l, stop)
	go n.timerLoop(stop)
	return nil
}

// Index returns the node's index.
func (n *Node) Index() int { return n.cfg.Index }

// Addr returns the node's address.
func (n *Node) Addr() string { return n.cfg.Addr }

// Stopped reports whether the node is currently shut down (stopped,
// crashed, or not yet started).
func (n *Node) Stopped() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.stopped
}

// Stop shuts the node down and waits for its goroutines to exit.
func (n *Node) Stop() {
	n.shutdown()
	n.done.Wait()
}

// Crash simulates a node crash: the node is made inert and its address torn
// out of the network synchronously — every peer observes closed connections
// — while goroutine shutdown completes in the background. Safe to call from
// within request handling: nothing here waits on the caller's own serving
// goroutine.
func (n *Node) Crash() {
	n.shutdown()
	n.cfg.Net.CrashAddr(n.cfg.Addr)
}

// shutdown makes the node inert — no new dials, no new accepts, existing
// connections closed, staged outbox messages discarded — without waiting
// for goroutines, so it is safe to call from within a serving goroutine.
// Idempotent.
func (n *Node) shutdown() {
	n.mu.Lock()
	if n.stopped {
		n.mu.Unlock()
		return
	}
	n.stopped = true
	conns := make([]*netsim.Conn, 0, len(n.peerConns)+len(n.inbound))
	for _, c := range n.peerConns {
		conns = append(conns, c)
	}
	n.peerConns = make(map[int]*netsim.Conn)
	// Served (inbound) connections too: Stop must never depend
	// on a peer sending one more message to wake a goroutine out of Recv —
	// an idle connection from a peer with nothing more to say would
	// otherwise park its serve loop, and done.Wait with it, forever.
	for c := range n.inbound {
		conns = append(conns, c)
	}
	n.inbound = make(map[*netsim.Conn]struct{})
	stop, listener := n.stop, n.listener
	n.mu.Unlock()

	close(stop)
	listener.Close()
	for _, c := range conns {
		c.Close()
	}
	// A message staged for a peer but not yet flushed dies with the node,
	// exactly as an in-kernel socket buffer would.
	for _, ob := range n.outboxes {
		ob.discard()
	}
}

// Restart re-opens a stopped or crashed node in place — the supervised
// respawn-and-reconnect idiom: the listener re-registers at the same
// address (netsim allows it once CrashAddr or Close has torn the old one
// out), the handler's Rejoin hook resets protocol state, and the serve
// loops come back. Restarting a running node is an error.
func (n *Node) Restart() error {
	n.mu.Lock()
	stopped := n.stopped
	n.mu.Unlock()
	if !stopped {
		return errors.New("core: restart of a running node")
	}
	// The previous generation's goroutines must be fully out before the
	// listener and stop channel are replaced under them.
	n.done.Wait()
	l, err := n.cfg.Net.Listen(n.cfg.Addr)
	if err != nil {
		return fmt.Errorf("core: restart listen: %w", err)
	}
	if rec, ok := n.h.(StoreRecoverer); ok {
		if err := rec.RecoverFromStore(); err != nil {
			l.Close()
			return fmt.Errorf("core: restart recover: %w", err)
		}
	}
	n.h.Rejoin()
	stop := make(chan struct{})
	n.mu.Lock()
	n.stopped = false
	n.listener = l
	n.stop = stop
	n.mu.Unlock()
	n.done.Add(2)
	go n.acceptLoop(l, stop)
	go n.timerLoop(stop)
	return nil
}

// forgetConn removes a served connection from the registry.
func (n *Node) forgetConn(conn *netsim.Conn) {
	n.mu.Lock()
	delete(n.inbound, conn)
	n.mu.Unlock()
}

func (n *Node) acceptLoop(l *netsim.Listener, stop chan struct{}) {
	defer n.done.Done()
	for {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		if !n.registerInbound(conn) {
			continue // shutting down: conn closed, Accept fails next
		}
		n.done.Add(1)
		go n.serveConn(conn, stop)
	}
}

// registerInbound tracks a connection so shutdown can close it. It reports
// false — closing the connection — when the node has already begun shutting
// down, which an Accept completing concurrently with shutdown can race
// into.
func (n *Node) registerInbound(conn *netsim.Conn) bool {
	n.mu.Lock()
	if n.stopped {
		n.mu.Unlock()
		conn.Close()
		return false
	}
	n.inbound[conn] = struct{}{}
	n.mu.Unlock()
	return true
}

// serveConn drains the connection's backlog a whole batch at a time,
// dispatches every payload to the handler, answers the batch's replies with
// one SendBatch, and flushes the peer outboxes — so everything the handler
// staged while processing the batch (state updates, order broadcasts,
// forwards) leaves in one coalesced SendBatch per peer.
func (n *Node) serveConn(conn *netsim.Conn, stop chan struct{}) {
	defer n.done.Done()
	defer n.forgetConn(conn)
	defer conn.Close()
	var batch, replies [][]byte
	for {
		var err error
		batch, err = conn.RecvBatch(batch[:0])
		if err != nil {
			return
		}
		n.mInboundMsgs.Add(uint64(len(batch)))
		replies = replies[:0]
		for _, raw := range batch {
			select {
			case <-stop:
				return
			default:
			}
			replies = n.h.HandleMessage(conn, raw, replies)
			netsim.Release(raw) // handlers decode; they never retain raw
		}
		if len(replies) > 0 {
			_ = conn.SendBatch(replies)
		}
		n.Flush()
	}
}

// timerLoop drives the handler's periodic work and flushes whatever it
// staged.
func (n *Node) timerLoop(stop chan struct{}) {
	defer n.done.Done()
	ticker := time.NewTicker(n.cfg.TickInterval)
	defer ticker.Stop()
	for {
		select {
		case <-stop:
			return
		case <-ticker.C:
		}
		n.h.Tick()
		n.Flush()
	}
}

// --- Peer fan-out -------------------------------------------------------

// SendTo stages raw for one peer; it leaves on the next Flush. The outbox
// owns raw until then, so callers must not reuse the buffer.
func (n *Node) SendTo(idx int, raw []byte) {
	if ob, ok := n.outboxes[idx]; ok {
		ob.stage(raw)
	}
}

// Broadcast stages raw for every other peer.
func (n *Node) Broadcast(raw []byte) {
	for _, idx := range n.peerIdx {
		n.outboxes[idx].stage(raw)
	}
}

// Flush ships every dirty outbox: one SendBatch per peer carrying that
// peer's whole staged batch, dialing lazily and re-dialing once on failure.
// Unreachable peers (crashed or partitioned) drop their batch; retries
// happen naturally on the next staged message. The runtime calls Flush
// after every drained inbound batch and every tick; protocol engines call
// it directly when a message must be on the wire before a subsequent local
// action (e.g. executing a request that may crash the node).
//
// Take-and-send is serialized per peer (outbox.sendMu): Flush runs
// concurrently from every serve loop, the tick loop and the peer reader
// loops, and two flushers interleaving take→send for the same peer would
// deliver that peer's batches out of order — protocol streams (pb's
// chained deltas) rely on per-peer FIFO delivery. Staging never blocks on
// this: SendTo/Broadcast touch only the staging lock.
func (n *Node) Flush() {
	for _, idx := range n.peerIdx {
		ob := n.outboxes[idx]
		ob.sendMu.Lock()
		batch := ob.take()
		if batch != nil {
			n.mFlushBatches.Inc()
			n.mFlushMsgs.Add(uint64(len(batch)))
			n.hFlushSize.Observe(uint64(len(batch)))
			n.sendBatchTo(idx, batch)
			ob.putBack(batch)
		}
		ob.sendMu.Unlock()
	}
}

func (n *Node) sendBatchTo(idx int, batch [][]byte) {
	addr, ok := n.cfg.Peers[idx]
	if !ok {
		return
	}
	conn := n.peerConn(idx, addr)
	if conn == nil {
		return
	}
	if err := conn.SendBatch(batch); err != nil {
		n.mSendFails.Inc()
		n.dropPeerConn(idx, conn)
		// One immediate re-dial attempt, then give up until next flush.
		if conn = n.peerConn(idx, addr); conn != nil {
			_ = conn.SendBatch(batch)
		}
	}
}

// peerConn returns a cached connection to the peer, dialing lazily. A
// freshly cached connection also gets its reader loop: the receive half of
// the full-duplex link, which drains the peer's replies into
// Handler.HandlePeerReply.
func (n *Node) peerConn(idx int, addr string) *netsim.Conn {
	n.mu.Lock()
	if n.stopped {
		n.mu.Unlock()
		return nil
	}
	if c, ok := n.peerConns[idx]; ok && !c.Closed() {
		n.mu.Unlock()
		return c
	}
	n.mu.Unlock()

	c, err := n.cfg.Net.Dial(n.cfg.Addr, addr)
	if err != nil {
		n.mDialFails.Inc()
		return nil
	}
	n.mu.Lock()
	if n.stopped {
		n.mu.Unlock()
		c.Close()
		return nil
	}
	if existing, ok := n.peerConns[idx]; ok && !existing.Closed() {
		n.mu.Unlock()
		c.Close()
		return existing
	}
	n.peerConns[idx] = c
	// Registered under mu so shutdown either sees the conn (and closes it,
	// waking the reader out of RecvBatch) or already marked the node
	// stopped above.
	n.done.Add(1)
	go n.peerReadLoop(idx, c)
	n.mu.Unlock()
	return c
}

// peerReadLoop is the receive half of one full-duplex peer link: it drains
// whatever the peer sends back on the cached connection a whole batch at a
// time, dispatches every payload to the handler's HandlePeerReply hook, and
// flushes the outboxes — so anything the handler staged in response (a
// retransmission, a follow-up request) leaves in one coalesced SendBatch
// per peer. The loop exits when the connection dies: shutdown and
// dropPeerConn both close it, which wakes RecvBatch with an error.
func (n *Node) peerReadLoop(idx int, conn *netsim.Conn) {
	defer n.done.Done()
	var batch [][]byte
	for {
		var err error
		batch, err = conn.RecvBatch(batch[:0])
		if err != nil {
			return
		}
		n.mPeerReplies.Add(uint64(len(batch)))
		for _, raw := range batch {
			n.h.HandlePeerReply(idx, raw)
			netsim.Release(raw) // handlers decode; they never retain raw
		}
		n.Flush()
	}
}

func (n *Node) dropPeerConn(idx int, c *netsim.Conn) {
	c.Close()
	n.mu.Lock()
	if n.peerConns[idx] == c {
		delete(n.peerConns, idx)
	}
	n.mu.Unlock()
}

// --- Outbox -------------------------------------------------------------

// outbox is one peer's staging buffer: a double-buffered ring whose backing
// arrays are reused across flushes, so steady-state staging and flushing
// allocate nothing. stage appends under the lock; take swaps the whole
// staged batch out (the flush sends it without holding the lock, so staging
// never blocks on a slow peer); putBack returns the drained buffer for
// reuse.
type outbox struct {
	// sendMu serializes take-and-send (Flush) so concurrent flushers keep
	// the peer's batch stream FIFO; mu alone guards staging, so SendTo and
	// Broadcast never wait on an in-flight send.
	sendMu sync.Mutex
	mu     sync.Mutex
	staged [][]byte
	spare  [][]byte
	// depth mirrors len(staged) for observers (nil when metrics are off).
	// Written after the staging lock is released: the gauge is a live
	// reading for dashboards, not a synchronized value.
	depth *metrics.Gauge
}

func (o *outbox) stage(raw []byte) {
	o.mu.Lock()
	o.staged = append(o.staged, raw)
	d := len(o.staged)
	o.mu.Unlock()
	o.depth.Set(int64(d))
}

// take removes and returns the staged batch, or nil when the outbox is
// clean.
func (o *outbox) take() [][]byte {
	o.mu.Lock()
	defer o.mu.Unlock()
	if len(o.staged) == 0 {
		return nil
	}
	batch := o.staged
	o.staged = o.spare // nil or a drained buffer from a previous flush
	o.spare = nil
	o.depth.Set(0)
	return batch
}

// putBack returns a drained batch's backing array for reuse.
func (o *outbox) putBack(batch [][]byte) {
	clear(batch)
	o.mu.Lock()
	if o.spare == nil {
		o.spare = batch[:0]
	}
	o.mu.Unlock()
}

// discard drops any staged messages (shutdown).
func (o *outbox) discard() {
	o.mu.Lock()
	clear(o.staged)
	o.staged = o.staged[:0]
	o.mu.Unlock()
}
