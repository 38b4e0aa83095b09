package proxy

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"
	"time"

	"fortress/internal/nameserver"
	"fortress/internal/netsim"
	"fortress/internal/sig"
)

// The collectors in forward and Client.invoke check replies in arrival
// order and stop at the first that passes. These tests put scripted peers
// behind a real proxy, or scripted proxies in front of a real client, so
// the arrival order is the test's to choose.

// stubTier is a name server plus scripted servers and proxies on one network.
type stubTier struct {
	t          *testing.T
	net        *netsim.Network
	ns         *nameserver.NameServer
	serverKeys []*sig.KeyPair
	proxyKeys  []*sig.KeyPair
}

func newStubTier(t *testing.T) *stubTier {
	t.Helper()
	ns, err := nameserver.New(nameserver.ReplicationPrimaryBackup, 0)
	if err != nil {
		t.Fatal(err)
	}
	return &stubTier{t: t, net: netsim.NewNetwork(), ns: ns}
}

// serve registers addr and runs handle once per message on every accepted
// connection, each connection on its own goroutine, until the test ends.
func (s *stubTier) serve(addr string, handle func(conn *netsim.Conn, raw []byte)) {
	s.t.Helper()
	l, err := s.net.Listen(addr)
	if err != nil {
		s.t.Fatal(err)
	}
	s.t.Cleanup(l.Close)
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				for {
					raw, err := conn.RecvTimeout(srvTimeout)
					if err != nil {
						return
					}
					handle(conn, raw)
				}
			}()
		}
	}()
}

// addServer registers the next server index with a fresh key and scripts
// it: answer receives the request id and the connection to reply on.
func (s *stubTier) addServer(answer func(idx int, keys *sig.KeyPair, requestID string, conn *netsim.Conn)) int {
	s.t.Helper()
	idx := len(s.serverKeys)
	keys := pair(s.t)
	s.serverKeys = append(s.serverKeys, keys)
	addr := fmt.Sprintf("server-%d", idx)
	if err := s.ns.RegisterServer(idx, addr, keys.Public()); err != nil {
		s.t.Fatal(err)
	}
	s.serve(addr, func(conn *netsim.Conn, raw []byte) {
		var m struct {
			RequestID string `json:"requestId"`
		}
		if json.Unmarshal(raw, &m) == nil {
			answer(idx, keys, m.RequestID, conn)
		}
	})
	return idx
}

// addProxy registers the next scripted proxy.
func (s *stubTier) addProxy(answer func(id string, keys *sig.KeyPair, requestID string, conn *netsim.Conn)) {
	s.t.Helper()
	id := fmt.Sprintf("proxy-%d", len(s.proxyKeys))
	keys := pair(s.t)
	s.proxyKeys = append(s.proxyKeys, keys)
	if err := s.ns.RegisterProxy(id, id, keys.Public()); err != nil {
		s.t.Fatal(err)
	}
	s.serve(id, func(conn *netsim.Conn, raw []byte) {
		var m clientMsg
		if json.Unmarshal(raw, &m) == nil {
			answer(id, keys, m.RequestID, conn)
		}
	})
}

// realProxy starts a real proxy in front of the scripted servers.
func (s *stubTier) realProxy(detector *Detector) *Proxy {
	s.t.Helper()
	keys := pair(s.t)
	p, err := New(Config{
		ID: "proxy-real", Addr: "proxy-real", Keys: keys, NS: s.ns, Net: s.net,
		Detector: detector, ServerTimeout: srvTimeout,
	})
	if err != nil {
		s.t.Fatal(err)
	}
	s.t.Cleanup(p.Stop)
	if err := s.ns.RegisterProxy(p.ID(), p.Addr(), p.PublicKey()); err != nil {
		s.t.Fatal(err)
	}
	return p
}

// ask sends one request to the proxy on a raw connection, as source
// "client", and returns its reply.
func (s *stubTier) ask(p *Proxy, requestID string) clientMsg {
	s.t.Helper()
	conn, err := s.net.Dial("client", p.Addr())
	if err != nil {
		s.t.Fatal(err)
	}
	defer conn.Close()
	if err := conn.Send(EncodeRequest(requestID, []byte("body"))); err != nil {
		s.t.Fatal(err)
	}
	raw, err := conn.RecvTimeout(2 * srvTimeout)
	if err != nil {
		s.t.Fatal(err)
	}
	var m clientMsg
	if err := json.Unmarshal(raw, &m); err != nil {
		s.t.Fatal(err)
	}
	return m
}

func pair(t *testing.T) *sig.KeyPair {
	t.Helper()
	k, err := sig.NewKeyPair()
	if err != nil {
		t.Fatal(err)
	}
	return k
}

// sendServerResponse writes resp in the replica wire format under the
// (unsigned) envelope id.
func sendServerResponse(conn *netsim.Conn, envelopeID string, resp sig.ServerResponse) {
	b, err := json.Marshal(struct {
		Type      string              `json:"type"`
		RequestID string              `json:"requestId"`
		Response  *sig.ServerResponse `json:"response"`
	}{"response", envelopeID, &resp})
	if err != nil {
		panic(err)
	}
	_ = conn.Send(b)
}

// after returns once ch is closed and a little time has passed: long enough
// that a reply sent before ch closed has been collected, though no test's
// verdict depends on that.
func after(ch <-chan struct{}) {
	<-ch
	time.Sleep(20 * time.Millisecond)
}

// honest answers with the server's own signature over the request.
func honest(idx int, keys *sig.KeyPair, requestID string, conn *netsim.Conn) {
	sendServerResponse(conn, requestID, sig.SignServerResponse(keys, requestID, []byte("ok"), idx))
}

// forged answers under the server's index with somebody else's signature.
func forged(t *testing.T) func(int, *sig.KeyPair, string, *netsim.Conn) {
	stranger := pair(t)
	return func(idx int, _ *sig.KeyPair, requestID string, conn *netsim.Conn) {
		sendServerResponse(conn, requestID, sig.SignServerResponse(stranger, requestID, []byte("lies"), idx))
	}
}

func TestProxyOverSignsLaterAuthenticReply(t *testing.T) {
	s := newStubTier(t)
	lied := make(chan struct{})
	forge := forged(t)
	s.addServer(func(idx int, k *sig.KeyPair, id string, conn *netsim.Conn) {
		forge(idx, k, id, conn)
		close(lied)
	})
	second := s.addServer(func(idx int, k *sig.KeyPair, id string, conn *netsim.Conn) {
		after(lied)
		honest(idx, k, id, conn)
	})
	m := s.ask(s.realProxy(nil), "r1")
	if m.Type != msgResponse || m.Signed == nil {
		t.Fatalf("reply = %+v, want a signed response", m)
	}
	if got := m.Signed.Response; got.ServerIndex != second || string(got.Body) != "ok" {
		t.Fatalf("over-signed server %d body %q, want the authentic reply of server %d", got.ServerIndex, got.Body, second)
	}
}

func TestProxyAnswersNoServerResponseWhenAllForged(t *testing.T) {
	s := newStubTier(t)
	for i := 0; i < 3; i++ {
		s.addServer(forged(t))
	}
	before := sig.Verifies()
	m := s.ask(s.realProxy(nil), "r1")
	if m.Type != msgError || m.Reason != ErrNoServerResponse.Error() {
		t.Fatalf("reply = %+v, want %v", m, ErrNoServerResponse)
	}
	if got := sig.Verifies() - before; got != 3 {
		t.Fatalf("three forged replies cost %d verifies, want one each", got)
	}
}

func TestProxyRejectsReplayedServerResponse(t *testing.T) {
	s := newStubTier(t)
	s.addServer(func(idx int, k *sig.KeyPair, id string, conn *netsim.Conn) {
		// An authentic response to an earlier request, in a new envelope.
		sendServerResponse(conn, id, sig.SignServerResponse(k, "old", []byte("stale"), idx))
	})
	m := s.ask(s.realProxy(nil), "new")
	if m.Type != msgError || m.Reason != ErrNoServerResponse.Error() {
		t.Fatalf("replayed response was over-signed: %+v", m)
	}
}

func TestProxyRejectsMislabelledServerIndex(t *testing.T) {
	s := newStubTier(t)
	lied := make(chan struct{})
	s.addServer(func(idx int, k *sig.KeyPair, id string, conn *netsim.Conn) {
		// Server 0 signs, with its own key, a response claiming index 1:
		// authentic under the key of the server dialled, useless to a client.
		sendServerResponse(conn, id, sig.SignServerResponse(k, id, []byte("mine"), idx+1))
		close(lied)
	})
	second := s.addServer(func(idx int, k *sig.KeyPair, id string, conn *netsim.Conn) {
		after(lied)
		honest(idx, k, id, conn)
	})
	m := s.ask(s.realProxy(nil), "r1")
	if m.Type != msgResponse || m.Signed == nil {
		t.Fatalf("reply = %+v, want a signed response", m)
	}
	if got := m.Signed.Response; got.ServerIndex != second || string(got.Body) != "ok" {
		t.Fatalf("over-signed body %q under index %d, want server %d's own reply", got.Body, got.ServerIndex, second)
	}
}

func TestLateServerCrashObservedBeforeReply(t *testing.T) {
	s := newStubTier(t)
	answered := make(chan struct{})
	s.addServer(func(idx int, k *sig.KeyPair, id string, conn *netsim.Conn) {
		honest(idx, k, id, conn)
		close(answered)
	})
	s.addServer(func(_ int, _ *sig.KeyPair, _ string, conn *netsim.Conn) {
		after(answered)
		conn.Close() // the process died under the request
	})
	det := NewDetector(time.Hour, 1)
	p := s.realProxy(det)
	m := s.ask(p, "r1")
	if m.Type != msgResponse {
		t.Fatalf("reply = %+v, want the authentic response", m)
	}
	// The reply is in hand, so the observation must already be logged.
	if got := p.InvalidObservations(); got != 1 {
		t.Fatalf("invalid observations when the reply arrived = %d, want 1", got)
	}
	if !det.Flagged("client") {
		t.Fatal("detector had not seen the crash when the reply arrived")
	}
}

// overSigned is what an honest proxy would send for the request.
func (s *stubTier) overSigned(proxyID string, proxyKeys *sig.KeyPair, signedID string, body string) *sig.DoublySigned {
	s.t.Helper()
	inner := sig.SignServerResponse(s.serverKeys[0], signedID, []byte(body), 0)
	d, err := sig.OverSign(proxyKeys, proxyID, inner)
	if err != nil {
		s.t.Fatal(err)
	}
	return &d
}

func TestClientFallsThroughToSecondProxy(t *testing.T) {
	s := newStubTier(t)
	s.addServer(honest) // registers the server key clients verify against
	lied := make(chan struct{})
	s.addProxy(func(id string, k *sig.KeyPair, reqID string, conn *netsim.Conn) {
		d := s.overSigned(id, k, reqID, "tampered")
		d.Response.Body = []byte("swapped") // breaks both signatures
		_ = conn.Send(encode(clientMsg{Type: msgResponse, RequestID: reqID, Signed: d}))
		close(lied)
	})
	s.addProxy(func(id string, k *sig.KeyPair, reqID string, conn *netsim.Conn) {
		after(lied)
		_ = conn.Send(encode(clientMsg{Type: msgResponse, RequestID: reqID, Signed: s.overSigned(id, k, reqID, "good")}))
	})
	client, err := NewClient(s.net, "client", s.ns, srvTimeout)
	if err != nil {
		t.Fatal(err)
	}
	body, err := client.Invoke("r1", []byte("body"))
	if err != nil {
		t.Fatal(err)
	}
	if string(body) != "good" {
		t.Fatalf("body = %q, want the second proxy's", body)
	}
}

func TestClientRejectsReplayedResponse(t *testing.T) {
	s := newStubTier(t)
	s.addServer(honest)
	s.addProxy(func(id string, k *sig.KeyPair, reqID string, conn *netsim.Conn) {
		// Two authentic signatures over the answer to an earlier request.
		_ = conn.Send(encode(clientMsg{Type: msgResponse, RequestID: reqID, Signed: s.overSigned(id, k, "old", "stale")}))
	})
	client, err := NewClient(s.net, "client", s.ns, srvTimeout)
	if err != nil {
		t.Fatal(err)
	}
	body, err := client.Invoke("new", []byte("body"))
	if err == nil {
		t.Fatalf("replayed response accepted: %q", body)
	}
	if !strings.Contains(err.Error(), `"old"`) {
		t.Fatalf("error does not name the signed request id: %v", err)
	}
}
