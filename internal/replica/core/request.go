package core

import (
	"encoding/json"
	"fmt"
	"time"

	"fortress/internal/netsim"
	"fortress/internal/sig"
)

// Wire types of the requester-facing exchange. Proxies and clients speak
// this one shape to both engines (§3: the interaction pattern does not
// depend on the replication style).
const (
	MsgRequest  = "request"  // requester → replica: please serve
	MsgResponse = "response" // replica → requester: signed response
)

// exchange is the requester-facing wire message, both directions.
type exchange struct {
	Type      string              `json:"type"`
	RequestID string              `json:"requestId,omitempty"`
	Body      []byte              `json:"body,omitempty"`
	Response  *sig.ServerResponse `json:"response,omitempty"`
	// Read tags a request the sender classified as a pure read; only smr's
	// lease-read path looks at it.
	Read bool `json:"read,omitempty"`
	// Leased marks a response served locally under a valid read lease
	// rather than through ordering (smr.Client.InvokeRead decides on it what
	// a single signature is worth).
	Leased bool `json:"leased,omitempty"`
}

func (m exchange) encode() []byte {
	b, err := json.Marshal(m)
	if err != nil {
		// exchange contains only marshal-safe fields; this cannot happen.
		panic(fmt.Sprintf("core: marshal exchange: %v", err))
	}
	return b
}

// Payload is the signable response for one Service.Apply outcome: what every
// replica signs for the request, and what the reply table, update streams
// and persisted snapshots carry.
func Payload(body []byte, err error) []byte {
	if err != nil {
		return []byte("error: " + err.Error())
	}
	return body
}

// EncodeReply signs payload as server index's response to request id and
// encodes the response message.
func EncodeReply(keys *sig.KeyPair, index int, id string, payload []byte, leased bool) []byte {
	resp := sig.SignServerResponse(keys, id, payload, index)
	return exchange{Type: MsgResponse, RequestID: id, Response: &resp, Leased: leased}.encode()
}

// Answer sends each waiting id's signed response to every connection parked
// on it. Call it after releasing the lock the Replies table lives under.
func Answer(keys *sig.KeyPair, index int, ws ...Waiting) {
	for _, w := range ws {
		if len(w.Conns) == 0 {
			continue
		}
		raw := EncodeReply(keys, index, w.ID, w.Payload, false)
		for _, c := range w.Conns {
			_ = c.Send(raw)
		}
	}
}

// Request dials the replica at addr as from, sends one request and waits for
// its signed response; leased reports whether the replica served it under a
// read lease.
func Request(net *netsim.Network, from, addr, id string, body []byte, read bool, timeout time.Duration) (resp sig.ServerResponse, leased bool, err error) {
	conn, err := net.Dial(from, addr)
	if err != nil {
		return sig.ServerResponse{}, false, fmt.Errorf("core: request dial: %w", err)
	}
	defer conn.Close()
	return RequestOn(conn, id, body, read, timeout)
}

// RequestOn is Request on an existing connection, skipping unrelated
// traffic until the matching response or the deadline.
func RequestOn(conn *netsim.Conn, id string, body []byte, read bool, timeout time.Duration) (resp sig.ServerResponse, leased bool, err error) {
	if err := conn.Send(exchange{Type: MsgRequest, RequestID: id, Body: body, Read: read}.encode()); err != nil {
		return sig.ServerResponse{}, false, fmt.Errorf("core: request send: %w", err)
	}
	deadline := time.Now().Add(timeout)
	for {
		remaining := time.Until(deadline)
		if remaining <= 0 {
			return sig.ServerResponse{}, false, netsim.ErrTimeout
		}
		raw, err := conn.RecvTimeout(remaining)
		if err != nil {
			return sig.ServerResponse{}, false, fmt.Errorf("core: request recv: %w", err)
		}
		var m exchange
		uerr := json.Unmarshal(raw, &m)
		netsim.Release(raw) // decoded: json copied every field out of raw
		if uerr != nil {
			continue
		}
		if m.Type == MsgResponse && m.RequestID == id && m.Response != nil {
			return *m.Response, m.Leased, nil
		}
	}
}
