package proxy

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"encoding/json"
	"fortress/internal/exploit"
	"fortress/internal/keyspace"
	"fortress/internal/memlayout"
	"fortress/internal/nameserver"
	"fortress/internal/netsim"
	"fortress/internal/replica/pb"
	"fortress/internal/service"
	"fortress/internal/sig"

	"fortress/internal/xrand"
)

const (
	hbInterval = 5 * time.Millisecond
	hbTimeout  = 50 * time.Millisecond
	srvTimeout = 2 * time.Second
)

// rig is a full 2-tier fixture: PB server tier + proxy tier + name server.
type rig struct {
	net     *netsim.Network
	ns      *nameserver.NameServer
	servers []*pb.Replica
	proxies []*Proxy
	space   *keyspace.Space
	// serverKey is the shared randomization key of the (identically
	// randomized) server tier; proxyKeys are per-proxy.
	serverKey keyspace.Key
	proxyKeys []keyspace.Key
	guards    []*exploit.Guard
}

func buildRig(t *testing.T, nServers, nProxies int, detector *Detector) *rig {
	t.Helper()
	net := netsim.NewNetwork()
	space, err := keyspace.NewSpace(1 << 16)
	if err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(42)
	ns, err := nameserver.New(nameserver.ReplicationPrimaryBackup, 0)
	if err != nil {
		t.Fatal(err)
	}
	r := &rig{net: net, ns: ns, space: space, serverKey: space.Draw(rng)}

	peers := make(map[int]string, nServers)
	for i := 0; i < nServers; i++ {
		peers[i] = fmt.Sprintf("server-%d", i)
	}
	for i := 0; i < nServers; i++ {
		keys, err := sig.NewKeyPair()
		if err != nil {
			t.Fatal(err)
		}
		proc := memlayout.NewProcess(r.serverKey)
		var replica *pb.Replica
		guard := exploit.NewGuard(service.NewKV(), exploit.TierServer, proc, func() {
			if replica != nil {
				replica.Crash()
			}
		}, nil)
		replica, err = pb.New(pb.Config{
			Index: i, Addr: peers[i], Peers: peers, InitialPrimary: 0,
			Service: guard, Keys: keys, Net: net,
			HeartbeatInterval: hbInterval, HeartbeatTimeout: hbTimeout,
		})
		if err != nil {
			t.Fatal(err)
		}
		r.servers = append(r.servers, replica)
		r.guards = append(r.guards, guard)
		t.Cleanup(replica.Stop)
		if err := ns.RegisterServer(i, peers[i], replica.PublicKey()); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < nProxies; i++ {
		keys, err := sig.NewKeyPair()
		if err != nil {
			t.Fatal(err)
		}
		pKey := space.Draw(rng)
		r.proxyKeys = append(r.proxyKeys, pKey)
		p, err := New(Config{
			ID: fmt.Sprintf("proxy-%d", i), Addr: fmt.Sprintf("proxy-%d", i),
			Keys: keys, NS: ns, Net: net, Detector: detector,
			Proc:          memlayout.NewProcess(pKey),
			ServerTimeout: srvTimeout,
		})
		if err != nil {
			t.Fatal(err)
		}
		r.proxies = append(r.proxies, p)
		t.Cleanup(p.Stop)
		if err := ns.RegisterProxy(p.ID(), p.Addr(), p.PublicKey()); err != nil {
			t.Fatal(err)
		}
	}
	return r
}

func kvPut(key, val string) []byte {
	return []byte(fmt.Sprintf(`{"op":"put","key":%q,"value":%q}`, key, val))
}

func kvGet(key string) []byte {
	return []byte(fmt.Sprintf(`{"op":"get","key":%q}`, key))
}

func TestConfigValidation(t *testing.T) {
	net := netsim.NewNetwork()
	ns, err := nameserver.New(nameserver.ReplicationPrimaryBackup, 0)
	if err != nil {
		t.Fatal(err)
	}
	keys, err := sig.NewKeyPair()
	if err != nil {
		t.Fatal(err)
	}
	good := Config{ID: "p", Addr: "p", Keys: keys, NS: ns, Net: net, ServerTimeout: time.Second}
	muts := []func(*Config){
		func(c *Config) { c.ID = "" },
		func(c *Config) { c.Addr = "" },
		func(c *Config) { c.Keys = nil },
		func(c *Config) { c.NS = nil },
		func(c *Config) { c.Net = nil },
		func(c *Config) { c.ServerTimeout = 0 },
	}
	for i, m := range muts {
		c := good
		m(&c)
		if _, err := New(c); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

func TestEndToEndDoublySignedResponse(t *testing.T) {
	r := buildRig(t, 3, 3, nil)
	client, err := NewClient(r.net, "client", r.ns, srvTimeout)
	if err != nil {
		t.Fatal(err)
	}
	body, err := client.Invoke("r1", kvPut("k", "v"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(body), `"found":true`) {
		t.Fatalf("body = %s", body)
	}
	got, err := client.Invoke("r2", kvGet("k"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(got), `"value":"v"`) {
		t.Fatalf("get = %s", got)
	}
}

func TestClientRejectsForgedProxy(t *testing.T) {
	r := buildRig(t, 3, 1, nil)
	// A rogue proxy not registered with the NS cannot satisfy the client.
	rogueKeys, err := sig.NewKeyPair()
	if err != nil {
		t.Fatal(err)
	}
	rogue, err := New(Config{
		ID: "rogue", Addr: "rogue", Keys: rogueKeys, NS: r.ns, Net: r.net,
		ServerTimeout: srvTimeout,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rogue.Stop)
	// NOT registered in NS. Build a client that (maliciously) was pointed
	// at the rogue: simulate by asking rogue directly via raw protocol.
	conn, err := r.net.Dial("victim", "rogue")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := conn.Send(encode(clientMsg{Type: msgRequest, RequestID: "x", Body: kvGet("k")})); err != nil {
		t.Fatal(err)
	}
	raw, err := conn.RecvTimeout(srvTimeout)
	if err != nil {
		t.Fatal(err)
	}
	// The rogue can return a signed response, but a proper client's
	// verifier set rejects the unknown proxy ID.
	client, err := NewClient(r.net, "victim", r.ns, srvTimeout)
	if err != nil {
		t.Fatal(err)
	}
	var m clientMsg
	if err := jsonUnmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	if m.Signed == nil {
		t.Skip("rogue returned error, nothing to verify")
	}
	if err := client.verifier.VerifyDoublySigned(*m.Signed); !errors.Is(err, sig.ErrUnknownSigner) {
		t.Fatalf("rogue over-signature accepted: %v", err)
	}
}

func TestProxyHidesServerCrashOracle(t *testing.T) {
	// An attacker probing THROUGH the proxy does not observe the server
	// crash: the proxy connection stays open; only an error message comes
	// back. The direct-TCP oracle of [10,12] is gone.
	r := buildRig(t, 3, 1, nil)
	conn, err := r.net.Dial("attacker", r.proxies[0].Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	wrong := keyspace.Key((uint64(r.serverKey) + 1) % r.space.Chi())
	probe := exploit.NewPayload(exploit.TierServer, wrong)
	if err := conn.Send(encode(clientMsg{Type: msgRequest, RequestID: "p1", Body: probe})); err != nil {
		t.Fatal(err)
	}
	// Longer than the proxy waits for a server: a backup may park the probe
	// of a primary that crashed under it for the whole ServerTimeout.
	raw, err := conn.RecvTimeout(2 * srvTimeout)
	if err != nil {
		t.Fatal(err)
	}
	var m clientMsg
	if err := jsonUnmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	if m.Type != msgError {
		t.Fatalf("probe response type = %q", m.Type)
	}
	if conn.Closed() {
		t.Fatal("attacker's proxy connection closed — oracle leaked")
	}
	// And the proxy logged the invalid request.
	if r.proxies[0].InvalidObservations() == 0 {
		t.Fatal("proxy did not log the probe")
	}
}

func TestDetectorBlocksProbingClient(t *testing.T) {
	det := NewDetector(time.Hour, 3)
	r := buildRig(t, 3, 1, det)
	conn, err := r.net.Dial("mallory", r.proxies[0].Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	// Blocked means the proxy said so or hung up. The test's own receive
	// timing out is neither, so it waits longer than the proxy waits for a
	// server: a probe's reply can take the whole ServerTimeout when a backup
	// parks the request of a primary that crashed under it.
	wrong := uint64(r.serverKey)
	blocked := false
	for i := 0; i < 10 && !blocked; i++ {
		wrong = (wrong + 1) % r.space.Chi()
		probe := exploit.NewPayload(exploit.TierServer, keyspace.Key(wrong))
		if err := conn.Send(encode(clientMsg{Type: msgRequest, RequestID: fmt.Sprintf("p%d", i), Body: probe})); err != nil {
			if !errors.Is(err, netsim.ErrClosed) {
				t.Fatalf("probe %d send: %v", i, err)
			}
			blocked = true
			break
		}
		raw, err := conn.RecvTimeout(2 * srvTimeout)
		if err != nil {
			if !errors.Is(err, netsim.ErrClosed) {
				t.Fatalf("probe %d recv: %v", i, err)
			}
			blocked = true
			break
		}
		var m clientMsg
		if err := jsonUnmarshal(raw, &m); err != nil {
			continue
		}
		if m.Type == msgError && m.Reason == ErrBlocked.Error() {
			blocked = true
		}
	}
	if !blocked {
		t.Fatal("probing client never blocked")
	}
	if !det.Flagged("mallory") {
		t.Fatal("detector did not flag the prober")
	}
}

func TestProxyProbeWrongKeyCrashesProxy(t *testing.T) {
	r := buildRig(t, 3, 2, nil)
	conn, err := r.net.Dial("attacker", r.proxies[0].Addr())
	if err != nil {
		t.Fatal(err)
	}
	wrong := keyspace.Key((uint64(r.proxyKeys[0]) + 1) % r.space.Chi())
	probe := exploit.NewPayload(exploit.TierProxy, wrong)
	if err := conn.Send(encode(clientMsg{Type: msgRequest, RequestID: "x", Body: probe})); err != nil {
		t.Fatal(err)
	}
	// The attacker DOES observe a direct-attack crash: its own connection
	// to the proxy closes (it was attacking the thing it talks to).
	deadline := time.Now().Add(2 * time.Second)
	for !conn.Closed() && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if !conn.Closed() {
		t.Fatal("proxy crash not observable on direct connection")
	}
	if !r.proxies[0].Crashed() {
		t.Fatal("proxy not marked crashed")
	}
	// The system survives: the other proxy still serves.
	client, err := NewClient(r.net, "client", r.ns, srvTimeout)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.Invoke("after", kvPut("a", "b")); err != nil {
		t.Fatalf("surviving proxy failed: %v", err)
	}
}

func TestProxyProbeRightKeyCompromises(t *testing.T) {
	r := buildRig(t, 3, 1, nil)
	conn, err := r.net.Dial("attacker", r.proxies[0].Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	probe := exploit.NewPayload(exploit.TierProxy, r.proxyKeys[0])
	if err := conn.Send(encode(clientMsg{Type: msgRequest, RequestID: "x", Body: probe})); err != nil {
		t.Fatal(err)
	}
	raw, err := conn.RecvTimeout(srvTimeout)
	if err != nil {
		t.Fatal(err)
	}
	var m clientMsg
	if err := jsonUnmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	if string(m.Body) != exploit.CompromisedBanner {
		t.Fatalf("body = %q", m.Body)
	}
	if !r.proxies[0].Compromised() {
		t.Fatal("proxy not compromised")
	}
}

func TestRawForwardRequiresCompromise(t *testing.T) {
	r := buildRig(t, 3, 1, nil)
	if _, err := r.proxies[0].RawForward(0, "x", kvGet("k")); !errors.Is(err, ErrNotCompromised) {
		t.Fatalf("launch pad open to honest code: %v", err)
	}
}

func TestCompromisedProxyIsLaunchPad(t *testing.T) {
	// Route 2 of S2 compromise: take the proxy, then attack the server
	// directly through it — the crash oracle works again via RawForward
	// errors, and the correct key compromises the primary.
	r := buildRig(t, 3, 1, nil)
	conn, err := r.net.Dial("attacker", r.proxies[0].Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := conn.Send(encode(clientMsg{Type: msgRequest, RequestID: "t", Body: exploit.NewPayload(exploit.TierProxy, r.proxyKeys[0])})); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.RecvTimeout(srvTimeout); err != nil {
		t.Fatal(err)
	}
	if !r.proxies[0].Compromised() {
		t.Fatal("setup: compromise failed")
	}
	resp, err := r.proxies[0].RawForward(0, "pwn", exploit.NewPayload(exploit.TierServer, r.serverKey))
	if err != nil {
		t.Fatal(err)
	}
	if string(resp.Body) != exploit.CompromisedBanner {
		t.Fatalf("server response = %q", resp.Body)
	}
	if !r.guards[0].Compromised() {
		t.Fatal("primary not compromised")
	}
}

func TestClientNeedsOnlyOneLiveProxy(t *testing.T) {
	r := buildRig(t, 3, 3, nil)
	r.proxies[0].Crash()
	r.proxies[1].Crash()
	client, err := NewClient(r.net, "client", r.ns, srvTimeout)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.Invoke("r", kvPut("x", "y")); err != nil {
		t.Fatalf("one live proxy insufficient: %v", err)
	}
}

func TestClientFailsWhenAllProxiesDown(t *testing.T) {
	r := buildRig(t, 3, 2, nil)
	r.proxies[0].Crash()
	r.proxies[1].Crash()
	client, err := NewClient(r.net, "client", r.ns, 200*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.Invoke("r", kvGet("x")); err == nil {
		t.Fatal("client succeeded with no proxies — S2 compromise route 3 would be invisible")
	}
}

func TestNewClientValidation(t *testing.T) {
	net := netsim.NewNetwork()
	ns, err := nameserver.New(nameserver.ReplicationPrimaryBackup, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewClient(net, "c", ns, time.Second); err == nil {
		t.Fatal("client built with zero proxies")
	}
	if _, err := NewClient(nil, "c", ns, time.Second); err == nil {
		t.Fatal("nil network accepted")
	}
}

// jsonUnmarshal avoids importing encoding/json in every test function.
func jsonUnmarshal(raw []byte, v any) error {
	return json.Unmarshal(raw, v)
}
