package core

import (
	"maps"
	"slices"

	"fortress/internal/netsim"
)

// ReplyHorizon is how many executed requests a replica's reply table
// retains — the retry horizon. A request retried inside it is answered with
// the recorded bytes; one retried later is indistinguishable from a new
// request and runs again. The bound also caps what checkpoints, catch-up
// transfers and persisted snapshots ship.
const ReplyHorizon = 4096

// Waiting is the connections parked on one request id together with the
// payload that now answers them.
type Waiting struct {
	ID      string
	Payload []byte
	Conns   []*netsim.Conn
}

// Replies is a replica's reply table (§3: answer a repeat of the same
// request with the same bytes): executed request id → signable payload,
// evicted in insertion order past the horizon; the claim that keeps an id
// from being sequenced twice before it executes; and the requester
// connections parked on an id until its payload is recorded.
//
// It takes no lock of its own: every method runs under the owning engine's
// mu, so a lookup-then-park or claim-then-sequence is atomic exactly as far
// as the engine holds that lock, and the connections Record, Import and
// Unpark hand back are answered or closed after the engine releases it.
type Replies struct {
	limit   int
	payload map[string][]byte
	order   []string // payload keys, insertion order
	claimed map[string]bool
	parked  map[string][]*netsim.Conn
	seen    bool
}

// NewReplies returns an empty table retaining the limit youngest entries.
func NewReplies(limit int) *Replies {
	return &Replies{
		limit:   limit,
		payload: make(map[string][]byte),
		claimed: make(map[string]bool),
		parked:  make(map[string][]*netsim.Conn),
	}
}

// Lookup returns the payload recorded for id, if it is inside the horizon.
func (t *Replies) Lookup(id string) ([]byte, bool) {
	p, ok := t.payload[id]
	return p, ok
}

// Claim marks id as being sequenced and reports whether the caller is the
// first to do so: false when id is already claimed or already recorded. The
// claim lasts until Record.
func (t *Replies) Claim(id string) bool {
	if _, done := t.payload[id]; done || t.claimed[id] {
		return false
	}
	t.claimed[id] = true
	return true
}

// Park holds conn until id's payload is recorded.
func (t *Replies) Park(id string, conn *netsim.Conn) {
	t.parked[id] = append(t.parked[id], conn)
}

// Unpark removes and returns every parked connection: requests whose answer
// will never arrive here (the primary died, a checkpoint jumped over them,
// the node restarted), for the caller to close so requesters resubmit.
func (t *Replies) Unpark() []*netsim.Conn {
	var conns []*netsim.Conn
	for _, cs := range t.parked {
		conns = append(conns, cs...)
	}
	clear(t.parked)
	return conns
}

// Record stores id's payload, evicts past the horizon, clears id's claim and
// hands back the connections parked on it. Recording an id again replaces
// its payload in place.
func (t *Replies) Record(id string, payload []byte) Waiting {
	if _, ok := t.payload[id]; !ok {
		t.order = append(t.order, id)
		t.seen = true
	}
	t.payload[id] = payload
	delete(t.claimed, id)
	for len(t.order) > t.limit {
		delete(t.payload, t.order[0])
		t.order = t.order[1:]
	}
	w := Waiting{ID: id, Payload: payload, Conns: t.parked[id]}
	delete(t.parked, id)
	return w
}

// Seen reports whether anything was ever recorded — unlike an empty Export,
// it still tells a long-lived table from a virgin one after full eviction.
func (t *Replies) Seen() bool { return t.seen }

// Export copies the table's entries for shipping: checkpoints, catch-up
// snapshots, state transfers and the persisted snapshot slot.
func (t *Replies) Export() map[string][]byte { return maps.Clone(t.payload) }

// Import merges entries shipped by Export. Ids are inserted in sorted order,
// so eviction order does not depend on map iteration; an id already recorded
// keeps its payload and its slot. It returns the parked connections the new
// entries answer.
func (t *Replies) Import(entries map[string][]byte) []Waiting {
	var woken []Waiting
	for _, id := range slices.Sorted(maps.Keys(entries)) {
		if _, ok := t.payload[id]; ok {
			continue
		}
		if w := t.Record(id, entries[id]); len(w.Conns) > 0 {
			woken = append(woken, w)
		}
	}
	return woken
}
