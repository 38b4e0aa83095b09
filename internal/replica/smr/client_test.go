package smr

import (
	"encoding/json"
	"errors"
	"fmt"
	"testing"
	"time"

	"fortress/internal/netsim"
	"fortress/internal/replica/core"
	"fortress/internal/service"
	"fortress/internal/sig"
)

// scriptedClient builds a client over n scripted replicas: answer[i] gets
// replica i's key, the request id, and the connection to reply on.
func scriptedClient(t *testing.T, f int, answer ...func(idx int, keys *sig.KeyPair, requestID string, conn *netsim.Conn)) *Client {
	t.Helper()
	net := netsim.NewNetwork()
	addrs := make(map[int]string, len(answer))
	pubKeys := make(map[int][]byte, len(answer))
	for i, ans := range answer {
		keys, err := sig.NewKeyPair()
		if err != nil {
			t.Fatal(err)
		}
		addrs[i], pubKeys[i] = fmt.Sprintf("smr-%d", i), keys.Public()
		l, err := net.Listen(addrs[i])
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(l.Close)
		go func(i int, ans func(int, *sig.KeyPair, string, *netsim.Conn)) {
			for {
				conn, err := l.Accept()
				if err != nil {
					return
				}
				go func() {
					defer conn.Close()
					raw, err := conn.RecvTimeout(reqTimeout)
					if err != nil {
						return
					}
					var m wireMsg
					if json.Unmarshal(raw, &m) == nil {
						ans(i, keys, m.RequestID, conn)
					}
				}()
			}
		}(i, ans)
	}
	c, err := NewClient(net, "client", addrs, pubKeys, f, reqTimeout)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// respond sends resp under the (unsigned) envelope id.
func respond(conn *netsim.Conn, envelopeID string, resp sig.ServerResponse) {
	b, err := json.Marshal(struct {
		Type      string              `json:"type"`
		RequestID string              `json:"requestId"`
		Response  *sig.ServerResponse `json:"response"`
	}{core.MsgResponse, envelopeID, &resp})
	if err != nil {
		panic(err)
	}
	_ = conn.Send(b)
}

func TestInvokeVerifiesOnlyUntilQuorum(t *testing.T) {
	_, _, client := cluster(t, 4, func(int) service.Service { return service.NewCounter() }, false)
	const n = 50
	before := sig.Verifies()
	for i := 0; i < n; i++ {
		if _, err := client.Invoke(fmt.Sprintf("r%d", i), []byte("inc")); err != nil {
			t.Fatal(err)
		}
	}
	// f = 1: the vote is decided by the first two replies, of four.
	if got := sig.Verifies() - before; got != 2*n {
		t.Fatalf("%d requests cost %d verifies, want f+1 = 2 each", n, got)
	}
}

func TestInvokeVotesPastForgedFirstReply(t *testing.T) {
	stranger, err := sig.NewKeyPair()
	if err != nil {
		t.Fatal(err)
	}
	lied := make(chan struct{})
	honestLater := func(idx int, k *sig.KeyPair, id string, conn *netsim.Conn) {
		<-lied
		time.Sleep(20 * time.Millisecond)
		respond(conn, id, sig.SignServerResponse(k, id, []byte("ok"), idx))
	}
	client := scriptedClient(t, 1,
		func(idx int, _ *sig.KeyPair, id string, conn *netsim.Conn) {
			respond(conn, id, sig.SignServerResponse(stranger, id, []byte("lies"), idx))
			close(lied)
		},
		honestLater, honestLater)
	body, err := client.Invoke("r1", []byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	if string(body) != "ok" {
		t.Fatalf("body = %q, want the two honest replicas' answer", body)
	}
}

func TestInvokeRejectsReplayedResponses(t *testing.T) {
	// Two replicas replay their authentic answers to an earlier request in
	// new envelopes: f+1 matching, correctly signed, and not to this request.
	replay := func(idx int, k *sig.KeyPair, id string, conn *netsim.Conn) {
		respond(conn, id, sig.SignServerResponse(k, "old", []byte("stale"), idx))
	}
	client := scriptedClient(t, 1, replay, replay,
		func(idx int, k *sig.KeyPair, id string, conn *netsim.Conn) {
			respond(conn, id, sig.SignServerResponse(k, id, []byte("ok"), idx))
		})
	body, err := client.Invoke("new", []byte("x"))
	if !errors.Is(err, ErrNoQuorum) {
		t.Fatalf("replayed responses decided the vote: body %q, err %v", body, err)
	}
}
