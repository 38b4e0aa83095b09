package core

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"fortress/internal/netsim"
)

// echoHandler is a minimal protocol: every inbound payload is echoed back
// as a reply, recorded, and (optionally) re-broadcast to the peers. Replies
// read back off peer links land in peerReplies.
type echoHandler struct {
	mu          sync.Mutex
	node        *Node
	got         [][]byte
	peerReplies map[int][][]byte
	ticks       int
	rejoined    int
	broadcast   bool
}

func (h *echoHandler) HandleMessage(conn *netsim.Conn, raw []byte, replies [][]byte) [][]byte {
	cp := append([]byte(nil), raw...)
	h.mu.Lock()
	h.got = append(h.got, cp)
	h.mu.Unlock()
	if h.broadcast {
		h.node.Broadcast(cp)
	}
	return append(replies, cp)
}

func (h *echoHandler) HandlePeerReply(peer int, raw []byte) {
	cp := append([]byte(nil), raw...)
	h.mu.Lock()
	if h.peerReplies == nil {
		h.peerReplies = make(map[int][][]byte)
	}
	h.peerReplies[peer] = append(h.peerReplies[peer], cp)
	h.mu.Unlock()
}

func (h *echoHandler) repliesFrom(peer int) [][]byte {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([][]byte, len(h.peerReplies[peer]))
	copy(out, h.peerReplies[peer])
	return out
}

func (h *echoHandler) Tick() {
	h.mu.Lock()
	h.ticks++
	h.mu.Unlock()
}

func (h *echoHandler) Rejoin() {
	h.mu.Lock()
	h.rejoined++
	h.mu.Unlock()
}

func (h *echoHandler) received() [][]byte {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([][]byte, len(h.got))
	copy(out, h.got)
	return out
}

func startNode(t *testing.T, net *netsim.Network, idx int, peers map[int]string) (*Node, *echoHandler) {
	t.Helper()
	h := &echoHandler{}
	n, err := NewNode(Config{
		Index:        idx,
		Addr:         peers[idx],
		Peers:        peers,
		Net:          net,
		TickInterval: 5 * time.Millisecond,
	}, h)
	if err != nil {
		t.Fatal(err)
	}
	h.node = n
	if err := n.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(n.Stop)
	return n, h
}

func twoPeers() map[int]string {
	return map[int]string{0: "node-0", 1: "node-1"}
}

func TestConfigValidation(t *testing.T) {
	net := netsim.NewNetwork()
	cases := []Config{
		{},
		{Net: net},
		{Net: net, Addr: "a"},
		{Net: net, Addr: "a", Peers: map[int]string{0: "a"}},
		{Net: net, Addr: "a", Peers: map[int]string{1: "b"}, TickInterval: time.Millisecond},
	}
	for i, cfg := range cases {
		if _, err := NewNode(cfg, &echoHandler{}); err == nil {
			t.Errorf("case %d: invalid config accepted: %+v", i, cfg)
		}
	}
	if _, err := NewNode(Config{
		Net: net, Addr: "a", Peers: map[int]string{0: "a"}, TickInterval: time.Millisecond,
	}, nil); err == nil {
		t.Error("nil handler accepted")
	}
}

// TestServeEchoesBatchedReplies drives a request through the serve loop and
// reads the echoed reply.
func TestServeEchoesBatchedReplies(t *testing.T) {
	net := netsim.NewNetwork()
	peers := twoPeers()
	startNode(t, net, 0, peers)
	conn, err := net.Dial("client", peers[0])
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	for i := 0; i < 3; i++ {
		if err := conn.Send([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		got, err := conn.RecvTimeout(2 * time.Second)
		if err != nil {
			t.Fatalf("reply %d: %v", i, err)
		}
		if got[0] != byte(i) {
			t.Fatalf("reply %d = %v", i, got)
		}
		netsim.Release(got)
	}
}

// TestOutboxCoalescesIntoOneSendBatch stages several messages and flushes:
// the peer must observe them all, in order, from one flush.
func TestOutboxCoalescesIntoOneSendBatch(t *testing.T) {
	net := netsim.NewNetwork()
	peers := twoPeers()
	n0, _ := startNode(t, net, 0, peers)
	_, h1 := startNode(t, net, 1, peers)

	const staged = 8
	for i := 0; i < staged; i++ {
		n0.SendTo(1, []byte(fmt.Sprintf("m%d", i)))
	}
	n0.Flush()

	deadline := time.Now().Add(2 * time.Second)
	for {
		got := h1.received()
		if len(got) == staged {
			for i, m := range got {
				if string(m) != fmt.Sprintf("m%d", i) {
					t.Fatalf("message %d = %q, order not preserved", i, m)
				}
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("peer received %d/%d staged messages", len(got), staged)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestBroadcastReachesAllPeers stages one broadcast across a 4-node group.
func TestBroadcastReachesAllPeers(t *testing.T) {
	net := netsim.NewNetwork()
	peers := map[int]string{0: "n0", 1: "n1", 2: "n2", 3: "n3"}
	n0, _ := startNode(t, net, 0, peers)
	var handlers []*echoHandler
	for i := 1; i < 4; i++ {
		_, h := startNode(t, net, i, peers)
		handlers = append(handlers, h)
	}
	n0.Broadcast([]byte("hello"))
	n0.Flush()
	deadline := time.Now().Add(2 * time.Second)
	for _, h := range handlers {
		for len(h.received()) == 0 {
			if time.Now().After(deadline) {
				t.Fatal("broadcast did not reach every peer")
			}
			time.Sleep(time.Millisecond)
		}
	}
}

// TestStopDiscardsStagedMessages: messages staged but not flushed die with
// the node, and a flush after shutdown is a no-op.
func TestStopDiscardsStagedMessages(t *testing.T) {
	net := netsim.NewNetwork()
	peers := twoPeers()
	n0, _ := startNode(t, net, 0, peers)
	_, h1 := startNode(t, net, 1, peers)
	n0.SendTo(1, []byte("doomed"))
	n0.Stop()
	n0.Flush()
	time.Sleep(20 * time.Millisecond)
	if got := h1.received(); len(got) != 0 {
		t.Fatalf("stopped node delivered %d staged messages", len(got))
	}
}

// TestRestartLifecycle exercises Stop → Restart → serve again, including
// the Rejoin hook and restart-of-running rejection.
func TestRestartLifecycle(t *testing.T) {
	net := netsim.NewNetwork()
	peers := twoPeers()
	n0, h0 := startNode(t, net, 0, peers)
	if err := n0.Restart(); err == nil {
		t.Fatal("restart of a running node accepted")
	}
	n0.Stop()
	if !n0.Stopped() {
		t.Fatal("Stopped() = false after Stop")
	}
	if err := n0.Restart(); err != nil {
		t.Fatal(err)
	}
	if n0.Stopped() {
		t.Fatal("Stopped() = true after Restart")
	}
	h0.mu.Lock()
	rejoined := h0.rejoined
	h0.mu.Unlock()
	if rejoined != 1 {
		t.Fatalf("Rejoin called %d times, want 1", rejoined)
	}
	conn, err := net.Dial("client", peers[0])
	if err != nil {
		t.Fatalf("dial after restart: %v", err)
	}
	defer conn.Close()
	if err := conn.Send([]byte{42}); err != nil {
		t.Fatal(err)
	}
	got, err := conn.RecvTimeout(2 * time.Second)
	if err != nil {
		t.Fatalf("echo after restart: %v", err)
	}
	netsim.Release(got)
}

// TestCrashTearsDownAddress: after Crash, dialing the node fails and a
// restart re-registers the listener.
func TestCrashTearsDownAddress(t *testing.T) {
	net := netsim.NewNetwork()
	peers := twoPeers()
	n0, _ := startNode(t, net, 0, peers)
	n0.Crash()
	if _, err := net.Dial("client", peers[0]); err == nil {
		t.Fatal("dial to crashed node succeeded")
	}
	if err := n0.Restart(); err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("client", peers[0])
	if err != nil {
		t.Fatalf("dial after restart: %v", err)
	}
	conn.Close()
}

// TestFlushCoalescing is the contract BenchmarkUpdateFanout measures: one
// flush of k staged messages arrives as one burst the receiver can drain
// with a single RecvBatch.
func TestFlushCoalescing(t *testing.T) {
	net := netsim.NewNetwork()
	peers := twoPeers()
	n0, _ := startNode(t, net, 0, peers)

	// A raw listener stands in for the peer so the test can observe the
	// batch boundary directly.
	raw, err := net.Listen("raw-peer")
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	n0.cfg.Peers[1] = "raw-peer" // route peer 1 at the raw listener
	accepted := make(chan *netsim.Conn, 1)
	go func() {
		c, err := raw.Accept()
		if err == nil {
			accepted <- c
		}
	}()

	const k = 16
	for i := 0; i < k; i++ {
		n0.SendTo(1, []byte{byte(i)})
	}
	n0.Flush()
	select {
	case c := <-accepted:
		defer c.Close()
		batch, err := c.RecvBatch(nil)
		if err != nil {
			t.Fatal(err)
		}
		// All k staged messages were appended under one SendBatch, so the
		// first drain after delivery sees every one of them.
		if len(batch) != k {
			t.Fatalf("first drain got %d messages, want %d", len(batch), k)
		}
		for _, b := range batch {
			netsim.Release(b)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("flush never dialed the peer")
	}
}

// TestHandlerRebroadcastFlushedAfterBatch: a handler that re-broadcasts
// inbound traffic relies on the runtime's end-of-batch flush.
func TestHandlerRebroadcastFlushedAfterBatch(t *testing.T) {
	net := netsim.NewNetwork()
	peers := twoPeers()
	_, h0 := startNode(t, net, 0, peers)
	h0.broadcast = true
	_, h1 := startNode(t, net, 1, peers)

	conn, err := net.Dial("client", peers[0])
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := conn.Send([]byte("fanout")); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for len(h1.received()) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("re-broadcast never reached the peer")
		}
		time.Sleep(time.Millisecond)
	}
	if string(h1.received()[0]) != "fanout" {
		t.Fatalf("peer got %q", h1.received()[0])
	}
}

// TestPeerLinkIsFullDuplex is the tentpole contract: a message staged on a
// peer outbox travels over the cached dialed connection, the peer's serve
// loop answers on that same connection, and the sender's reader loop
// delivers the reply to HandlePeerReply — no second connection, no unread
// ack pile-up.
func TestPeerLinkIsFullDuplex(t *testing.T) {
	net := netsim.NewNetwork()
	peers := twoPeers()
	n0, h0 := startNode(t, net, 0, peers)
	startNode(t, net, 1, peers) // echoes every payload as a reply

	const sent = 5
	for i := 0; i < sent; i++ {
		n0.SendTo(1, []byte{byte(i)})
	}
	n0.Flush()

	deadline := time.Now().Add(2 * time.Second)
	for {
		replies := h0.repliesFrom(1)
		if len(replies) == sent {
			for i, r := range replies {
				if len(r) != 1 || r[0] != byte(i) {
					t.Fatalf("reply %d = %v, echo order not preserved", i, r)
				}
			}
			if net.OpenConns() > 2 {
				// One bidirectional pair (two endpoints) carries both
				// directions; a dedicated reply dial would show up here.
				t.Fatalf("%d conns open, want the single duplex pair", net.OpenConns())
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("reader loop saw %d/%d replies", len(replies), sent)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestPeerReaderShutdownRace races the peer reader loops against
// Stop/Crash/Restart while reply traffic is in flight — run under -race,
// this pins that reader registration, shutdown close, and the restart
// generation change never touch runtime state unsynchronized.
func TestPeerReaderShutdownRace(t *testing.T) {
	net := netsim.NewNetwork()
	peers := map[int]string{0: "race-0", 1: "race-1", 2: "race-2"}
	n0, _ := startNode(t, net, 0, peers)
	startNode(t, net, 1, peers)
	n2, _ := startNode(t, net, 2, peers)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			n0.Broadcast([]byte{byte(i)}) // peers echo: replies flow back
			n0.Flush()
		}
	}()
	// Churn one peer through crash/restart while the broadcaster's reader
	// loops are draining echoes from it.
	for i := 0; i < 5; i++ {
		time.Sleep(2 * time.Millisecond)
		n2.Crash()
		if err := n2.Restart(); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	n0.Stop() // with readers mid-drain: must close their conns and terminate
}

// TestTicksFire: the timer loop drives Handler.Tick.
func TestTicksFire(t *testing.T) {
	net := netsim.NewNetwork()
	peers := twoPeers()
	_, h0 := startNode(t, net, 0, peers)
	deadline := time.Now().Add(2 * time.Second)
	for {
		h0.mu.Lock()
		ticks := h0.ticks
		h0.mu.Unlock()
		if ticks >= 2 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d ticks fired", ticks)
		}
		time.Sleep(time.Millisecond)
	}
}
