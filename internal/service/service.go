// Package service defines the replicatable-service abstraction and several
// concrete services used by the replication engines and examples.
//
// The paper's motivating distinction (§1) is that state machine replication
// requires the hosted service to be a deterministic state machine (DSM),
// whereas primary-backup can replicate any service because only the primary
// executes requests and backups apply state updates. The Service interface
// supports both styles: Apply for execution, and Snapshot/Restore for
// primary-to-backup state transfer.
package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"strconv"
	"sync"

	"fortress/internal/xrand"
)

// ErrBadRequest is returned for malformed or unsupported requests.
var ErrBadRequest = errors.New("service: bad request")

// Service is a replicatable service.
//
// Implementations must be safe for concurrent use. Deterministic reports
// whether Apply is a pure function of (current state, request); SMR hosting
// requires it, primary-backup does not.
type Service interface {
	// Name identifies the service type.
	Name() string
	// Apply executes one request and returns the response.
	Apply(req []byte) ([]byte, error)
	// Snapshot serializes the full service state, canonically: the same
	// state gives the same bytes, so a Restored snapshot snapshots back to
	// itself. PB backups check each delta's base hash against it.
	Snapshot() ([]byte, error)
	// Restore replaces the state with a previous Snapshot.
	Restore(snapshot []byte) error
	// Deterministic reports whether Apply is replay-safe on a DSM.
	Deterministic() bool
}

// ReadClassifier is the optional read-only invoke surface: a service that
// implements it can vouch that Apply(req) leaves its state untouched, which
// lets a replication engine serve the request outside the order protocol
// (the SMR lease-read path). The classification is authoritative on the
// replica side — a client may *tag* a request as a read, but the engine
// only skips ordering when the hosted service agrees, so a mis-tagged
// write can never bypass sequencing.
type ReadClassifier interface {
	// ReadOnly reports whether req is a pure read: Apply(req) must not
	// change any state observable through Apply, Snapshot or Restore.
	ReadOnly(req []byte) bool
}

// IsReadOnly reports whether svc classifies req as a pure read. A service
// that does not implement ReadClassifier classifies nothing as read-only,
// so every request keeps the ordered write path.
func IsReadOnly(svc Service, req []byte) bool {
	rc, ok := svc.(ReadClassifier)
	return ok && rc.ReadOnly(req)
}

// SnapshotDelta describes how one Apply changed the service's snapshot
// encoding: the new snapshot is
//
//	prev[:PrefixLen] + Patch + prev[len(prev)-SuffixLen:]
//
// where prev is the snapshot immediately before the Apply. Unchanged set
// means the Apply left the snapshot byte-identical (a read, a no-op, or a
// failed request) and the splice fields are meaningless.
type SnapshotDelta struct {
	Unchanged bool
	PrefixLen int
	Patch     []byte
	SuffixLen int
}

// DeltaCapable is the optional incremental-snapshot surface, used in both
// directions of a primary-backup update stream. On the primary, a service
// that implements it reports each Apply's exact snapshot edit, so the next
// chain state is the service's own maintained snapshot instead of a
// re-serialization (Snapshot) and a scan for the difference (DiffSnapshot)
// on every request. On a backup, it installs that edit at the cost of the
// entries it touches instead of re-parsing the whole state (Restore).
type DeltaCapable interface {
	// LastDelta reports the snapshot edit of the most recent Apply (or
	// Restore or InstallDelta, which report Unchanged). The returned Patch
	// must not be modified and stays valid until the next call that
	// changes the state; callers that pair Apply with LastDelta must
	// serialize the two against concurrent Applies — the replication
	// engines do, under their execution lock.
	LastDelta() (SnapshotDelta, bool)
	// InstallDelta adopts next, which must be d spliced onto the current
	// Snapshot(), as the new state. The result equals Restore(next):
	// an identity edit is a no-op, and an edit the service cannot place
	// on its own structure falls back to Restore(next), slower but never
	// wrong. next is retained and must not be modified.
	InstallDelta(next []byte, d SnapshotDelta) error
}

// LastDeltaOf returns svc's delta for its most recent Apply when svc
// implements DeltaCapable; ok=false otherwise, steering the caller to the
// Snapshot-and-diff fallback.
func LastDeltaOf(svc Service) (SnapshotDelta, bool) {
	if dc, ok := svc.(DeltaCapable); ok {
		return dc.LastDelta()
	}
	return SnapshotDelta{}, false
}

// InstallDelta installs next = splice(svc.Snapshot(), d) on svc: through
// DeltaCapable when svc implements it, by Restore(next) otherwise.
func InstallDelta(svc Service, next []byte, d SnapshotDelta) error {
	if dc, ok := svc.(DeltaCapable); ok {
		return dc.InstallDelta(next, d)
	}
	return svc.Restore(next)
}

// spliceBytes builds prev[:prefix] + patch + prev[len(prev)-suffix:] as a
// fresh slice — the incremental-editor primitive. Snapshots handed out
// earlier stay immutable: the editor never modifies a snapshot in place.
func spliceBytes(prev []byte, prefix int, patch []byte, suffix int) []byte {
	next := make([]byte, 0, prefix+len(patch)+suffix)
	next = append(next, prev[:prefix]...)
	next = append(next, patch...)
	return append(next, prev[len(prev)-suffix:]...)
}

// --- KV store ---------------------------------------------------------

// KVRequest is the request format of the KV store: op is "get", "put" or
// "delete".
type KVRequest struct {
	Op    string `json:"op"`
	Key   string `json:"key"`
	Value string `json:"value,omitempty"`
}

// KVResponse is the KV store's reply.
type KVResponse struct {
	Found bool   `json:"found"`
	Value string `json:"value,omitempty"`
}

// KV is a deterministic key-value store. Its snapshot is the canonical
// encoding of the map (sorted keys, identical to json.Marshal), maintained
// by the shared sorted-entry editor.
type KV struct {
	entries[string]
}

var (
	_ Service      = (*KV)(nil)
	_ DeltaCapable = (*KV)(nil)
)

// NewKV returns an empty KV store.
func NewKV() *KV {
	return &KV{entries: newEntries("kv", "{}", encodeKVEntry, parseKV)}
}

// encodeKVEntry renders one `"key":"value"` object member exactly as
// encoding/json renders it inside json.Marshal(map[string]string) — same
// string escaping, no whitespace — so spliced snapshots stay byte-identical
// to marshalled ones.
func encodeKVEntry(k, v string) []byte {
	kb, _ := json.Marshal(k)
	vb, _ := json.Marshal(v)
	enc := make([]byte, 0, len(kb)+1+len(vb))
	enc = append(enc, kb...)
	enc = append(enc, ':')
	return append(enc, vb...)
}

// parseKV decodes a KV snapshot in any valid JSON object encoding.
func parseKV(doc []byte) (map[string]string, error) {
	data := make(map[string]string)
	if err := json.Unmarshal(doc, &data); err != nil {
		return nil, err
	}
	if data == nil { // JSON null
		data = make(map[string]string)
	}
	return data, nil
}

// Name implements Service.
func (kv *KV) Name() string { return "kv" }

// Deterministic implements Service.
func (kv *KV) Deterministic() bool { return true }

// ReadOnly implements ReadClassifier: "get" is the KV store's only pure
// read. Malformed requests are not reads — they take the ordered path and
// fail there, keeping error responses identical across replicas.
func (kv *KV) ReadOnly(req []byte) bool {
	var r KVRequest
	return json.Unmarshal(req, &r) == nil && r.Op == "get"
}

// Apply implements Service.
func (kv *KV) Apply(req []byte) ([]byte, error) {
	var r KVRequest
	uerr := json.Unmarshal(req, &r)
	kv.mu.Lock()
	defer kv.mu.Unlock()
	kv.last = SnapshotDelta{Unchanged: true}
	if uerr != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadRequest, uerr)
	}
	var resp KVResponse
	switch r.Op {
	case "get":
		v, ok := kv.data[r.Key]
		resp = KVResponse{Found: ok, Value: v}
	case "put":
		kv.put(r.Key, r.Value)
		resp = KVResponse{Found: true, Value: r.Value}
	case "delete":
		resp = KVResponse{Found: kv.del(r.Key)}
	default:
		return nil, fmt.Errorf("%w: unknown op %q", ErrBadRequest, r.Op)
	}
	return json.Marshal(resp)
}

// Len reports the number of stored keys (for tests and examples).
func (kv *KV) Len() int {
	kv.mu.Lock()
	defer kv.mu.Unlock()
	return len(kv.data)
}

// --- Counter ----------------------------------------------------------

// Counter is a deterministic monotonic counter; requests are "inc", "add N"
// or "read", responses the decimal value.
type Counter struct {
	mu sync.Mutex
	n  int64
	// snap caches the decimal snapshot encoding; last is the DeltaCapable
	// edit of the most recent Apply — a whole-value replacement, since the
	// entire snapshot is one number.
	snap []byte
	last SnapshotDelta
}

var (
	_ Service      = (*Counter)(nil)
	_ DeltaCapable = (*Counter)(nil)
)

// NewCounter returns a zeroed counter.
func NewCounter() *Counter { return &Counter{snap: []byte("0")} }

// Name implements Service.
func (c *Counter) Name() string { return "counter" }

// Deterministic implements Service.
func (c *Counter) Deterministic() bool { return true }

// ReadOnly implements ReadClassifier: "read" returns the count unchanged.
func (c *Counter) ReadOnly(req []byte) bool { return string(req) == "read" }

// Apply implements Service.
func (c *Counter) Apply(req []byte) ([]byte, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.last = SnapshotDelta{Unchanged: true}
	s := string(req)
	switch {
	case s == "inc":
		c.bump(1)
	case s == "read":
	case len(s) > 4 && s[:4] == "add ":
		d, err := strconv.ParseInt(s[4:], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadRequest, err)
		}
		c.bump(d)
	default:
		return nil, fmt.Errorf("%w: %q", ErrBadRequest, s)
	}
	return []byte(strconv.FormatInt(c.n, 10)), nil
}

// bump applies a mutation and records it as a whole-value replacement.
// Caller holds c.mu.
func (c *Counter) bump(d int64) {
	c.n += d
	c.snap = []byte(strconv.FormatInt(c.n, 10))
	c.last = SnapshotDelta{Patch: c.snap}
}

// LastDelta implements DeltaCapable.
func (c *Counter) LastDelta() (SnapshotDelta, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.last, true
}

// Snapshot implements Service. The returned bytes must not be modified.
func (c *Counter) Snapshot() ([]byte, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.snap, nil
}

// Restore implements Service.
func (c *Counter) Restore(snapshot []byte) error {
	n, err := strconv.ParseInt(string(snapshot), 10, 64)
	if err != nil {
		return fmt.Errorf("service: restore counter: %w", err)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.n = n
	c.snap = []byte(strconv.FormatInt(n, 10))
	c.last = SnapshotDelta{Unchanged: true}
	return nil
}

// InstallDelta implements DeltaCapable: the snapshot is one number, so
// installing any edit restores it.
func (c *Counter) InstallDelta(next []byte, _ SnapshotDelta) error { return c.Restore(next) }

// Value reports the current count.
func (c *Counter) Value() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n
}

// --- Bank -------------------------------------------------------------

// BankRequest operates on accounts: op is "open", "deposit", "withdraw",
// "transfer" or "balance".
type BankRequest struct {
	Op     string `json:"op"`
	From   string `json:"from,omitempty"`
	To     string `json:"to,omitempty"`
	Amount int64  `json:"amount,omitempty"`
}

// BankResponse reports the outcome and resulting balance of From (when
// meaningful).
type BankResponse struct {
	OK      bool   `json:"ok"`
	Balance int64  `json:"balance"`
	Err     string `json:"err,omitempty"`
}

// bankEntry is the canonical snapshot element: one account, one balance,
// array-ordered by account name.
type bankEntry struct {
	Account string `json:"account"`
	Balance int64  `json:"balance"`
}

// Bank is a deterministic multi-account ledger with non-negative balances.
// Its snapshot is the sorted-by-account array of bankEntry, maintained by
// the sorted-entry editor KV uses.
type Bank struct {
	entries[int64]
}

var (
	_ Service      = (*Bank)(nil)
	_ DeltaCapable = (*Bank)(nil)
)

// NewBank returns a bank with no accounts.
func NewBank() *Bank {
	return &Bank{entries: newEntries("bank", "[]", encodeBankEntry, parseBank)}
}

// encodeBankEntry renders one account entry exactly as json.Marshal renders
// a bankEntry inside the snapshot array.
func encodeBankEntry(k string, v int64) []byte {
	enc, _ := json.Marshal(bankEntry{Account: k, Balance: v})
	return enc
}

// parseBank decodes a bank snapshot; a repeated account keeps its last
// balance.
func parseBank(doc []byte) (map[string]int64, error) {
	var list []bankEntry
	if err := json.Unmarshal(doc, &list); err != nil {
		return nil, err
	}
	accounts := make(map[string]int64, len(list))
	for _, e := range list {
		accounts[e.Account] = e.Balance
	}
	return accounts, nil
}

// Name implements Service.
func (b *Bank) Name() string { return "bank" }

// Deterministic implements Service.
func (b *Bank) Deterministic() bool { return true }

// ReadOnly implements ReadClassifier: "balance" is the ledger's only pure
// read.
func (b *Bank) ReadOnly(req []byte) bool {
	var r BankRequest
	return json.Unmarshal(req, &r) == nil && r.Op == "balance"
}

// Apply implements Service.
func (b *Bank) Apply(req []byte) ([]byte, error) {
	var r BankRequest
	uerr := json.Unmarshal(req, &r)
	b.mu.Lock()
	defer b.mu.Unlock()
	b.last = SnapshotDelta{Unchanged: true}
	if uerr != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadRequest, uerr)
	}
	resp := b.apply(r)
	return json.Marshal(resp)
}

func (b *Bank) apply(r BankRequest) BankResponse {
	fail := func(msg string) BankResponse { return BankResponse{Err: msg} }
	bal, ok := b.data[r.From]
	switch r.Op {
	case "open":
		if ok {
			return fail("account exists")
		}
		b.put(r.From, 0)
		return BankResponse{OK: true}
	case "deposit":
		if !ok {
			return fail("no such account")
		}
		if r.Amount < 0 {
			return fail("negative amount")
		}
		b.put(r.From, bal+r.Amount)
		return BankResponse{OK: true, Balance: bal + r.Amount}
	case "withdraw":
		if !ok {
			return fail("no such account")
		}
		if r.Amount < 0 || bal < r.Amount {
			return fail("insufficient funds")
		}
		b.put(r.From, bal-r.Amount)
		return BankResponse{OK: true, Balance: bal - r.Amount}
	case "transfer":
		if !ok {
			return fail("no such account")
		}
		toBal, ok := b.data[r.To]
		if !ok {
			return fail("no such destination")
		}
		if r.Amount < 0 || bal < r.Amount {
			return fail("insufficient funds")
		}
		if r.From == r.To {
			b.put(r.From, bal)
			return BankResponse{OK: true, Balance: bal}
		}
		b.putPair(r.From, bal-r.Amount, r.To, toBal+r.Amount)
		return BankResponse{OK: true, Balance: bal - r.Amount}
	case "balance":
		if !ok {
			return fail("no such account")
		}
		return BankResponse{OK: true, Balance: bal}
	default:
		return fail("unknown op " + r.Op)
	}
}

// TotalFunds returns the sum over all balances — conserved by transfers,
// used as a property-test invariant.
func (b *Bank) TotalFunds() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	var sum int64
	for _, v := range b.data {
		sum += v
	}
	return sum
}

// --- Nondeterministic wrapper -----------------------------------------

// Nondet wraps a service and injects per-execution nondeterminism (a random
// token folded into every response). A primary-backup system hosts it
// without trouble — only the primary executes, and backups receive state
// updates. An SMR system cannot: replicas executing the same request produce
// divergent responses, which the SMR engine's response voting detects. This
// realizes the paper's motivating example for why PB "can replicate any
// service" (§1).
type Nondet struct {
	inner Service
	mu    sync.Mutex
	rng   *xrand.RNG
}

var _ Service = (*Nondet)(nil)

// NewNondet wraps inner with nondeterminism drawn from rng.
func NewNondet(inner Service, rng *xrand.RNG) *Nondet {
	return &Nondet{inner: inner, rng: rng}
}

// Name implements Service.
func (n *Nondet) Name() string { return "nondet-" + n.inner.Name() }

// Deterministic implements Service.
func (n *Nondet) Deterministic() bool { return false }

// nondetEnvelope is the response format: the inner response plus the token.
type nondetEnvelope struct {
	Inner []byte `json:"inner"`
	Token uint64 `json:"token"`
}

// Apply implements Service.
func (n *Nondet) Apply(req []byte) ([]byte, error) {
	inner, err := n.inner.Apply(req)
	if err != nil {
		return nil, err
	}
	n.mu.Lock()
	token := n.rng.Uint64()
	n.mu.Unlock()
	return json.Marshal(nondetEnvelope{Inner: inner, Token: token})
}

// Snapshot implements Service.
func (n *Nondet) Snapshot() ([]byte, error) { return n.inner.Snapshot() }

// Restore implements Service.
func (n *Nondet) Restore(snapshot []byte) error { return n.inner.Restore(snapshot) }
