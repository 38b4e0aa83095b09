// Package proxy implements the FORTRESS proxy tier (§2.2, §3).
//
// Proxies stand between clients and the server tier: clients never learn
// server addresses, so a de-randomization attacker loses the direct TCP
// crash oracle of [10, 12]. Each proxy forwards every client request to
// every server, collects an authentic signed server response, over-signs it
// and returns the doubly-signed result to the client. Proxies do no request
// processing of their own, which is why (a) they can afford long-horizon
// logging of invalid-request observations (the Detector), and (b)
// compromising a proxy is assumed harder than compromising a directly
// accessible server (§3).
//
// The proxy itself runs on a randomized process image: a proxy-targeted
// probe with the wrong key crashes it, with the right key compromises it —
// after which the attacker can use RawForward as a launch pad for direct
// attacks on servers (§4, S2 compromise route 2).
//
// # Acceptance rules
//
// A proxy over-signs one server reply per request: the first to arrive that
// is signed by the server it dialled, under that server's index, for the
// request id it forwarded. It verifies replies in arrival order and stops at
// that one, but answers the client only once every server has replied,
// failed or timed out, so a crash on any of them is in the Detector before
// the reply leaves. A client accepts the first reply to arrive that carries
// two authentic signatures over its own request id, verifying in arrival
// order and falling through to the next proxy's reply when one fails. The
// ids and index compared are the signed ones: the envelope is not signed.
//
// With s servers and p proxies a fault-free request costs the tier p
// verifies and p over-signatures and the client 2 verifies (package sig
// gives the whole budget); each forged reply that arrives before an
// authentic one costs its verifier one more.
package proxy

import (
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"time"

	"fortress/internal/exploit"
	"fortress/internal/memlayout"
	"fortress/internal/metrics"
	"fortress/internal/nameserver"
	"fortress/internal/netsim"
	"fortress/internal/replica/pb"
	"fortress/internal/shard"
	"fortress/internal/sig"
)

var (
	// ErrBlocked is reported to clients the detector has flagged.
	ErrBlocked = errors.New("proxy: source blocked")
	// ErrNoServerResponse is reported when no authentic server response
	// arrived within the timeout.
	ErrNoServerResponse = errors.New("proxy: no authentic server response")
	// ErrNotCompromised guards the attacker-only launch-pad API.
	ErrNotCompromised = errors.New("proxy: not compromised")
)

const (
	msgRequest  = "request"
	msgResponse = "response"
	msgError    = "error"
)

// clientMsg is the proxy↔client wire format.
type clientMsg struct {
	Type      string            `json:"type"`
	RequestID string            `json:"requestId,omitempty"`
	Body      []byte            `json:"body,omitempty"`
	Signed    *sig.DoublySigned `json:"signed,omitempty"`
	Reason    string            `json:"reason,omitempty"`
	// Read marks a request the client classified as a pure read; the proxy
	// carries the tag through to the servers, where the smr lease-read path
	// may answer it locally. The tag is advisory — the hosted service
	// re-classifies on the replica, so it never affects the signature path
	// or lets a write skip ordering.
	Read bool `json:"read,omitempty"`
}

func encode(m clientMsg) []byte {
	b, err := json.Marshal(m)
	if err != nil {
		panic(fmt.Sprintf("proxy: marshal client message: %v", err))
	}
	return b
}

// EncodeRequest builds the raw wire form of a client request — the message
// a hand-rolled client (or an attacker) sends a proxy.
func EncodeRequest(requestID string, body []byte) []byte {
	return encode(clientMsg{Type: msgRequest, RequestID: requestID, Body: body})
}

// EncodeReadRequest builds the wire form of a read-tagged client request,
// eligible for the servers' lease-read fast path.
func EncodeReadRequest(requestID string, body []byte) []byte {
	return encode(clientMsg{Type: msgRequest, RequestID: requestID, Body: body, Read: true})
}

// Config describes one proxy.
type Config struct {
	// ID is the proxy's name-server identity.
	ID string
	// Addr is the netsim address clients dial.
	Addr string
	// Keys over-sign server responses.
	Keys *sig.KeyPair
	// NS resolves server indices to addresses and verification keys.
	NS *nameserver.NameServer
	// Net is the simulated network.
	Net *netsim.Network
	// Detector identifies probing clients. Optional; nil disables detection.
	Detector *Detector
	// Proc is the proxy's own randomized process image. Optional; nil makes
	// the proxy un-attackable (used by unit tests of forwarding logic).
	Proc *memlayout.Process
	// ServerTimeout bounds each server interaction.
	ServerTimeout time.Duration
	// Ring, with ServersPerGroup, shards the server tier: requests whose
	// body carries a "key" field are forwarded only to the replica group
	// the ring assigns that key, so each group orders a disjoint slice of
	// the keyspace. Keyless or non-JSON bodies (health probes without a
	// key, exploit payloads) route to group 0 by convention. A nil Ring —
	// or a single-group one — preserves the classic forward-to-every-
	// server behaviour exactly.
	Ring *shard.Ring
	// ServersPerGroup is the per-group server count: group g owns global
	// server indices [g·ServersPerGroup, (g+1)·ServersPerGroup). Required
	// when Ring has more than one group.
	ServersPerGroup int
	// Metrics, when non-nil, receives the proxy's instruments (request mix,
	// invalid observations, no-response outcomes), labelled by ID.
	// Observational only — screening and forwarding never read them back.
	Metrics *metrics.Registry
}

func (c Config) validate() error {
	switch {
	case c.ID == "":
		return errors.New("proxy: config needs ID")
	case c.Addr == "":
		return errors.New("proxy: config needs Addr")
	case c.Keys == nil:
		return errors.New("proxy: config needs Keys")
	case c.NS == nil:
		return errors.New("proxy: config needs NS")
	case c.Net == nil:
		return errors.New("proxy: config needs Net")
	case c.ServerTimeout <= 0:
		return errors.New("proxy: config needs positive ServerTimeout")
	case c.Ring != nil && c.Ring.Groups() > 1 && c.ServersPerGroup < 1:
		return errors.New("proxy: sharded Ring needs ServersPerGroup")
	}
	return nil
}

// Proxy is one FORTRESS proxy.
type Proxy struct {
	cfg Config

	mu          sync.Mutex
	compromised bool
	crashed     bool
	stopped     bool
	invalidObs  uint64

	listener *netsim.Listener
	stop     chan struct{}
	done     sync.WaitGroup

	// Instruments (nil no-ops when Config.Metrics is unset).
	mRequests   *metrics.Counter   // well-formed requests screened
	mReads      *metrics.Counter   // of those, read-tagged
	mBlocked    *metrics.Counter   // requests refused on a flagged source
	mInvalid    *metrics.Counter   // invalid observations logged
	mNoResponse *metrics.Counter   // forwards with no authentic response
	mShard      []*metrics.Counter // per-group routed requests (sharded only)
}

// New starts a proxy. Call Stop (or Crash) to shut it down.
func New(cfg Config) (*Proxy, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	l, err := cfg.Net.Listen(cfg.Addr)
	if err != nil {
		return nil, fmt.Errorf("proxy: listen: %w", err)
	}
	p := &Proxy{cfg: cfg, listener: l, stop: make(chan struct{})}
	if reg := cfg.Metrics; reg != nil {
		node := fmt.Sprintf("{node=%q}", cfg.ID)
		p.mRequests = reg.Counter("proxy_requests_total"+node, metrics.Timing)
		p.mReads = reg.Counter("proxy_read_requests_total"+node, metrics.Timing)
		p.mBlocked = reg.Counter("proxy_blocked_total"+node, metrics.Timing)
		p.mInvalid = reg.Counter("proxy_invalid_observations_total"+node, metrics.Timing)
		p.mNoResponse = reg.Counter("proxy_no_response_total"+node, metrics.Timing)
		if cfg.Ring != nil && cfg.Ring.Groups() > 1 {
			p.mShard = make([]*metrics.Counter, cfg.Ring.Groups())
			for g := range p.mShard {
				p.mShard[g] = reg.Counter(
					fmt.Sprintf("proxy_shard_requests_total{node=%q,group=\"%d\"}", cfg.ID, g),
					metrics.Timing)
			}
		}
	}
	p.done.Add(1)
	go p.acceptLoop()
	return p, nil
}

// ID returns the proxy's identity.
func (p *Proxy) ID() string { return p.cfg.ID }

// Addr returns the proxy's client-facing address.
func (p *Proxy) Addr() string { return p.cfg.Addr }

// PublicKey exposes the over-signing verification key.
func (p *Proxy) PublicKey() []byte { return p.cfg.Keys.Public() }

// Compromised reports whether a proxy-targeted probe has succeeded.
func (p *Proxy) Compromised() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.compromised
}

// Crashed reports whether the proxy process is down.
func (p *Proxy) Crashed() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.crashed
}

// InvalidObservations returns how many invalid requests this proxy has
// logged across all sources.
func (p *Proxy) InvalidObservations() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.invalidObs
}

// Stop shuts the proxy down gracefully and waits for its goroutines.
func (p *Proxy) Stop() {
	p.shutdown()
	p.done.Wait()
}

// shutdown makes the proxy inert without waiting for goroutines, so it is
// safe to call from the proxy's own request-handling path. Idempotent.
func (p *Proxy) shutdown() {
	p.mu.Lock()
	if p.stopped {
		p.mu.Unlock()
		return
	}
	p.stopped = true
	p.mu.Unlock()
	close(p.stop)
	p.listener.Close()
}

// Crash tears the proxy out of the network, closing all its connections
// observably — what a wrong-key probe does to it. The teardown is
// synchronous; goroutine shutdown completes in the background so Crash may
// be called from the proxy's own request-handling path.
func (p *Proxy) Crash() {
	p.mu.Lock()
	p.crashed = true
	p.mu.Unlock()
	p.shutdown()
	p.cfg.Net.CrashAddr(p.cfg.Addr)
}

func (p *Proxy) acceptLoop() {
	defer p.done.Done()
	for {
		conn, err := p.listener.Accept()
		if err != nil {
			return
		}
		p.done.Add(1)
		go p.serveClient(conn)
	}
}

// serveClient drains the client connection's backlog a whole batch at a
// time (RecvBatch: one queue-lock acquisition per drain) and releases every
// decoded payload buffer back to the netsim pool — the batched-transport
// adoption for the proxy's hot loop. Requests inside a drained batch are
// still screened, forwarded and answered strictly in arrival order.
func (p *Proxy) serveClient(conn *netsim.Conn) {
	defer p.done.Done()
	defer conn.Close()
	source := conn.RemoteAddr()
	var batch [][]byte
	for {
		var err error
		batch, err = conn.RecvBatch(batch[:0])
		if err != nil {
			return
		}
		for _, raw := range batch {
			select {
			case <-p.stop:
				return
			default:
			}
			var m clientMsg
			uerr := json.Unmarshal(raw, &m)
			netsim.Release(raw) // decoded: json copied every field out of raw
			if uerr != nil {
				p.observeInvalid(source)
				continue
			}
			if m.Type != msgRequest {
				continue
			}
			p.mRequests.Inc()
			if m.Read {
				p.mReads.Inc()
			}
			if p.cfg.Detector != nil && p.cfg.Detector.Flagged(source) {
				p.mBlocked.Inc()
				_ = conn.Send(encode(clientMsg{Type: msgError, RequestID: m.RequestID, Reason: ErrBlocked.Error()}))
				conn.Close()
				return
			}
			if p.handleProxyProbe(conn, m) {
				return // the proxy died parsing the request
			}
			p.forward(conn, source, m)
		}
	}
}

// handleProxyProbe checks for a proxy-targeted exploit in the request.
// It reports true when the proxy crashed and the connection is gone.
func (p *Proxy) handleProxyProbe(conn *netsim.Conn, m clientMsg) bool {
	guess, tier, isProbe := exploit.Parse(m.Body)
	if !isProbe || tier != exploit.TierProxy || p.cfg.Proc == nil {
		return false
	}
	res, err := p.cfg.Proc.DeliverExploit(guess)
	if err != nil {
		return true
	}
	switch res {
	case memlayout.ProbeCompromised:
		p.mu.Lock()
		p.compromised = true
		p.mu.Unlock()
		_ = conn.Send(encode(clientMsg{
			Type: msgResponse, RequestID: m.RequestID,
			Body: []byte(exploit.CompromisedBanner),
		}))
		return false
	case memlayout.ProbeCrashed:
		p.Crash()
		return true
	default:
		return false
	}
}

// forward relays the request to every server of the owning replica group
// (every server outright when unsharded), over-signs the first authentic
// response and returns it to the client (§3). Replies are checked in arrival
// order and only until one is authentic, but the client is answered after
// every server's outcome is in, so a crash observed on any of them reaches
// the detector before the reply leaves.
func (p *Proxy) forward(conn *netsim.Conn, source string, m clientMsg) {
	type outcome struct {
		idx  int
		resp sig.ServerResponse
		err  error
	}
	indices := p.cfg.NS.ServerIndices()
	if r := p.cfg.Ring; r != nil && r.Groups() > 1 {
		group := routeGroup(r, m.Body)
		lo, hi := group*p.cfg.ServersPerGroup, (group+1)*p.cfg.ServersPerGroup
		owned := indices[:0]
		for _, idx := range indices {
			if idx >= lo && idx < hi {
				owned = append(owned, idx)
			}
		}
		indices = owned
		if p.mShard != nil {
			p.mShard[group].Inc()
		}
	}
	results := make(chan outcome, len(indices))
	for _, idx := range indices {
		addr, err := p.cfg.NS.ServerAddr(idx)
		if err != nil {
			results <- outcome{idx: idx, err: err}
			continue
		}
		p.done.Add(1)
		go func(idx int, addr string) {
			defer p.done.Done()
			resp, err := pb.RequestTagged(p.cfg.Net, p.cfg.Addr, addr, m.RequestID, m.Body, m.Read, p.cfg.ServerTimeout)
			results <- outcome{idx: idx, resp: resp, err: err}
		}(idx, addr)
	}

	var first *sig.ServerResponse
	sawInvalid := false
	for range indices {
		o := <-results
		switch {
		case o.err != nil:
			// Connection refused/closed without a response: the server
			// process crashed under this request — exactly the
			// observation that marks a probe (§2.2).
			if errors.Is(o.err, netsim.ErrClosed) || errors.Is(o.err, netsim.ErrRefused) {
				sawInvalid = true
			}
		case first == nil && p.authentic(o.idx, m.RequestID, o.resp):
			first = &o.resp
		}
	}
	if sawInvalid {
		p.observeInvalid(source)
	}
	if first == nil {
		p.mNoResponse.Inc()
		_ = conn.Send(encode(clientMsg{Type: msgError, RequestID: m.RequestID, Reason: ErrNoServerResponse.Error()}))
		return
	}
	signed, err := sig.OverSign(p.cfg.Keys, p.cfg.ID, *first)
	if err != nil {
		_ = conn.Send(encode(clientMsg{Type: msgError, RequestID: m.RequestID, Reason: err.Error()}))
		return
	}
	_ = conn.Send(encode(clientMsg{Type: msgResponse, RequestID: m.RequestID, Signed: &signed}))
}

// authentic reports whether resp is server idx's own signed answer to
// requestID, so an old response replayed under a new id, or another
// server's response, is never over-signed.
func (p *Proxy) authentic(idx int, requestID string, resp sig.ServerResponse) bool {
	pk, err := p.cfg.NS.ServerKey(idx)
	return err == nil && sig.VerifyAnswer(pk, resp, requestID, idx) == nil
}

// routeGroup maps a request body to its owning replica group: the ring
// owner of the body's "key" field. Bodies that are not JSON objects or
// carry no key — health probes without one, counter ops, exploit
// payloads — route to group 0 by convention, so every request has
// exactly one owning group and writes never execute twice.
func routeGroup(r *shard.Ring, body []byte) int {
	var k struct {
		Key string `json:"key"`
	}
	if json.Unmarshal(body, &k) != nil || k.Key == "" {
		return 0
	}
	return r.Owner(k.Key)
}

func (p *Proxy) observeInvalid(source string) {
	p.mInvalid.Inc()
	p.mu.Lock()
	p.invalidObs++
	p.mu.Unlock()
	if p.cfg.Detector != nil {
		p.cfg.Detector.ObserveInvalid(source)
	}
}

// RawForward is the launch pad a compromised proxy gives an attacker: a
// direct request to one server, bypassing screening and logging, with the
// raw server response (no over-signing). It fails unless the proxy is
// compromised — the engine refuses to help honest code skip the screen.
func (p *Proxy) RawForward(serverIndex int, requestID string, body []byte) (sig.ServerResponse, error) {
	p.mu.Lock()
	compromised := p.compromised
	p.mu.Unlock()
	if !compromised {
		return sig.ServerResponse{}, ErrNotCompromised
	}
	addr, err := p.cfg.NS.ServerAddr(serverIndex)
	if err != nil {
		return sig.ServerResponse{}, err
	}
	return pb.Request(p.cfg.Net, p.cfg.Addr, addr, requestID, body, p.cfg.ServerTimeout)
}

// --- Client ------------------------------------------------------------

// Client is a FORTRESS client: it learns proxies and server indices from
// the name server, sends every request to all proxies, and accepts the
// first response bearing two authentic signatures (§3).
type Client struct {
	net      *netsim.Network
	from     string
	view     nameserver.ClientView
	verifier *sig.VerifierSet
	timeout  time.Duration
}

// NewClient builds a client from the name server's read-only snapshot.
func NewClient(net *netsim.Network, from string, ns *nameserver.NameServer, timeout time.Duration) (*Client, error) {
	if net == nil || ns == nil {
		return nil, errors.New("proxy: client needs net and ns")
	}
	view := ns.ClientSnapshot()
	if len(view.Proxies) == 0 {
		return nil, errors.New("proxy: no proxies registered")
	}
	vs := sig.NewVerifierSet()
	for _, pr := range view.Proxies {
		vs.Proxies[pr.ID] = pr.PublicKey
	}
	for _, sr := range view.Servers {
		vs.Servers[sr.Index] = sr.PublicKey
	}
	return &Client{net: net, from: from, view: view, verifier: vs, timeout: timeout}, nil
}

// Invoke sends the request through all proxies and returns the body of the
// first doubly-authentic response.
func (c *Client) Invoke(requestID string, body []byte) ([]byte, error) {
	return c.invoke(requestID, body, false)
}

// InvokeRead is Invoke with the request tagged as a pure read: proxies
// carry the tag to the servers, where an smr replica holding a valid lease
// answers from local state without a sequence slot. A replica without a
// lease (or a pb deployment, which has no lease path) still serves the
// request through the ordered pipeline, so InvokeRead degrades to Invoke
// semantics rather than failing.
func (c *Client) InvokeRead(requestID string, body []byte) ([]byte, error) {
	return c.invoke(requestID, body, true)
}

// invoke asks every proxy and checks the replies in arrival order, stopping
// at the first that carries two authentic signatures over this request; a
// reply that fails, or a proxy that does, falls through to the next.
func (c *Client) invoke(requestID string, body []byte, read bool) ([]byte, error) {
	type result struct {
		signed sig.DoublySigned
		err    error
	}
	results := make(chan result, len(c.view.Proxies))
	for _, pr := range c.view.Proxies {
		go func(pr nameserver.ProxyRecord) {
			d, err := c.invokeVia(pr, requestID, body, read)
			results <- result{d, err}
		}(pr)
	}
	var firstErr error
	for range c.view.Proxies {
		r := <-results
		if r.err == nil {
			r.err = c.accept(requestID, r.signed)
		}
		if r.err == nil {
			return r.signed.Response.Body, nil
		}
		if firstErr == nil {
			firstErr = r.err
		}
	}
	return nil, fmt.Errorf("proxy: all proxies failed: %w", firstErr)
}

// accept is the client's acceptance rule (§3): two authentic signatures,
// over a response to the request this client made. The request id compared
// is the signed one; the envelope's is not covered by either signature.
func (c *Client) accept(requestID string, d sig.DoublySigned) error {
	if d.Response.RequestID != requestID {
		return fmt.Errorf("proxy: response signed for request %q, not %q", d.Response.RequestID, requestID)
	}
	return c.verifier.VerifyDoublySigned(d)
}

// invokeVia sends the request to one proxy and returns its doubly-signed
// reply unverified.
func (c *Client) invokeVia(pr nameserver.ProxyRecord, requestID string, body []byte, read bool) (sig.DoublySigned, error) {
	conn, err := c.net.Dial(c.from, pr.Addr)
	if err != nil {
		return sig.DoublySigned{}, err
	}
	defer conn.Close()
	if err := conn.Send(encode(clientMsg{Type: msgRequest, RequestID: requestID, Body: body, Read: read})); err != nil {
		return sig.DoublySigned{}, err
	}
	deadline := time.Now().Add(c.timeout)
	for {
		remaining := time.Until(deadline)
		if remaining <= 0 {
			return sig.DoublySigned{}, netsim.ErrTimeout
		}
		raw, err := conn.RecvTimeout(remaining)
		if err != nil {
			return sig.DoublySigned{}, err
		}
		var m clientMsg
		uerr := json.Unmarshal(raw, &m)
		netsim.Release(raw) // decoded: json copied every field out of raw
		if uerr != nil {
			continue
		}
		if m.RequestID != requestID {
			continue
		}
		switch m.Type {
		case msgResponse:
			if m.Signed == nil {
				return sig.DoublySigned{}, errors.New("proxy: response without signatures")
			}
			return *m.Signed, nil
		case msgError:
			return sig.DoublySigned{}, fmt.Errorf("proxy: %s", m.Reason)
		}
	}
}
