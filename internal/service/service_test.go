package service

import (
	"encoding/json"
	"errors"
	"testing"
	"testing/quick"

	"fortress/internal/xrand"
)

func kvReq(t *testing.T, op, key, val string) []byte {
	t.Helper()
	b, err := json.Marshal(KVRequest{Op: op, Key: key, Value: val})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func kvResp(t *testing.T, raw []byte) KVResponse {
	t.Helper()
	var r KVResponse
	if err := json.Unmarshal(raw, &r); err != nil {
		t.Fatal(err)
	}
	return r
}

func TestKVPutGetDelete(t *testing.T) {
	kv := NewKV()
	if _, err := kv.Apply(kvReq(t, "put", "a", "1")); err != nil {
		t.Fatal(err)
	}
	got, err := kv.Apply(kvReq(t, "get", "a", ""))
	if err != nil {
		t.Fatal(err)
	}
	if r := kvResp(t, got); !r.Found || r.Value != "1" {
		t.Fatalf("get = %+v", r)
	}
	got, err = kv.Apply(kvReq(t, "delete", "a", ""))
	if err != nil {
		t.Fatal(err)
	}
	if r := kvResp(t, got); !r.Found {
		t.Fatalf("delete = %+v", r)
	}
	got, err = kv.Apply(kvReq(t, "get", "a", ""))
	if err != nil {
		t.Fatal(err)
	}
	if r := kvResp(t, got); r.Found {
		t.Fatal("deleted key still found")
	}
}

func TestKVBadRequests(t *testing.T) {
	kv := NewKV()
	if _, err := kv.Apply([]byte("{not json")); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("want ErrBadRequest, got %v", err)
	}
	if _, err := kv.Apply(kvReq(t, "fly", "a", "")); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("want ErrBadRequest, got %v", err)
	}
}

func TestKVSnapshotRestore(t *testing.T) {
	kv := NewKV()
	for _, k := range []string{"x", "y", "z"} {
		if _, err := kv.Apply(kvReq(t, "put", k, k+k)); err != nil {
			t.Fatal(err)
		}
	}
	snap, err := kv.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	fresh := NewKV()
	if err := fresh.Restore(snap); err != nil {
		t.Fatal(err)
	}
	got, err := fresh.Apply(kvReq(t, "get", "y", ""))
	if err != nil {
		t.Fatal(err)
	}
	if r := kvResp(t, got); !r.Found || r.Value != "yy" {
		t.Fatalf("restored get = %+v", r)
	}
	if fresh.Len() != 3 {
		t.Fatalf("restored len = %d", fresh.Len())
	}
}

func TestKVRestoreRejectsGarbage(t *testing.T) {
	if err := NewKV().Restore([]byte("?")); err == nil {
		t.Fatal("garbage restore accepted")
	}
}

func TestKVDeterministicReplay(t *testing.T) {
	// Same request sequence on two instances yields identical snapshots —
	// the DSM property SMR requires.
	a, b := NewKV(), NewKV()
	reqs := [][]byte{
		kvReq(t, "put", "k1", "v1"),
		kvReq(t, "put", "k2", "v2"),
		kvReq(t, "delete", "k1", ""),
		kvReq(t, "get", "k2", ""),
	}
	for _, r := range reqs {
		ra, err := a.Apply(r)
		if err != nil {
			t.Fatal(err)
		}
		rb, err := b.Apply(r)
		if err != nil {
			t.Fatal(err)
		}
		if string(ra) != string(rb) {
			t.Fatalf("divergent responses: %s vs %s", ra, rb)
		}
	}
	sa, err := a.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	sb, err := b.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if string(sa) != string(sb) {
		t.Fatal("divergent snapshots after identical request sequence")
	}
	if !a.Deterministic() {
		t.Fatal("KV must report deterministic")
	}
}

func TestCounter(t *testing.T) {
	c := NewCounter()
	if _, err := c.Apply([]byte("inc")); err != nil {
		t.Fatal(err)
	}
	got, err := c.Apply([]byte("add 41"))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "42" {
		t.Fatalf("counter = %s", got)
	}
	got, err = c.Apply([]byte("read"))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "42" || c.Value() != 42 {
		t.Fatalf("read = %s, Value = %d", got, c.Value())
	}
}

func TestCounterBadRequests(t *testing.T) {
	c := NewCounter()
	for _, bad := range []string{"", "bump", "add x", "add"} {
		if _, err := c.Apply([]byte(bad)); !errors.Is(err, ErrBadRequest) {
			t.Errorf("%q: want ErrBadRequest, got %v", bad, err)
		}
	}
}

func TestCounterSnapshotRestore(t *testing.T) {
	c := NewCounter()
	if _, err := c.Apply([]byte("add 7")); err != nil {
		t.Fatal(err)
	}
	snap, err := c.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	fresh := NewCounter()
	if err := fresh.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if fresh.Value() != 7 {
		t.Fatalf("restored = %d", fresh.Value())
	}
	if err := fresh.Restore([]byte("NaN")); err == nil {
		t.Fatal("garbage restore accepted")
	}
}

func bankReq(t *testing.T, r BankRequest) []byte {
	t.Helper()
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func bankResp(t *testing.T, raw []byte) BankResponse {
	t.Helper()
	var r BankResponse
	if err := json.Unmarshal(raw, &r); err != nil {
		t.Fatal(err)
	}
	return r
}

func TestBankLifecycle(t *testing.T) {
	b := NewBank()
	steps := []struct {
		req    BankRequest
		wantOK bool
		bal    int64
	}{
		{BankRequest{Op: "open", From: "alice"}, true, 0},
		{BankRequest{Op: "open", From: "bob"}, true, 0},
		{BankRequest{Op: "deposit", From: "alice", Amount: 100}, true, 100},
		{BankRequest{Op: "transfer", From: "alice", To: "bob", Amount: 30}, true, 70},
		{BankRequest{Op: "withdraw", From: "bob", Amount: 10}, true, 20},
		{BankRequest{Op: "balance", From: "alice"}, true, 70},
	}
	for i, s := range steps {
		raw, err := b.Apply(bankReq(t, s.req))
		if err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		r := bankResp(t, raw)
		if r.OK != s.wantOK {
			t.Fatalf("step %d: OK = %v (%s)", i, r.OK, r.Err)
		}
		if s.req.Op != "open" && r.Balance != s.bal {
			t.Fatalf("step %d: balance = %d, want %d", i, r.Balance, s.bal)
		}
	}
	if b.TotalFunds() != 90 {
		t.Fatalf("total = %d", b.TotalFunds())
	}
}

func TestBankRejections(t *testing.T) {
	b := NewBank()
	if _, err := b.Apply(bankReq(t, BankRequest{Op: "open", From: "a"})); err != nil {
		t.Fatal(err)
	}
	cases := []BankRequest{
		{Op: "open", From: "a"},                             // duplicate
		{Op: "deposit", From: "ghost", Amount: 1},           // no account
		{Op: "deposit", From: "a", Amount: -5},              // negative
		{Op: "withdraw", From: "a", Amount: 1},              // insufficient
		{Op: "transfer", From: "a", To: "ghost", Amount: 0}, // no destination
		{Op: "balance", From: "ghost"},                      // no account
		{Op: "explode"},                                     // unknown op
	}
	for i, c := range cases {
		raw, err := b.Apply(bankReq(t, c))
		if err != nil {
			t.Fatalf("case %d: transport error %v", i, err)
		}
		if r := bankResp(t, raw); r.OK {
			t.Fatalf("case %d (%+v) accepted", i, c)
		}
	}
}

func TestBankSnapshotCanonical(t *testing.T) {
	// Two banks reaching the same state via different routes must produce
	// identical snapshots (map-order independence).
	b1, b2 := NewBank(), NewBank()
	seq1 := []BankRequest{
		{Op: "open", From: "a"}, {Op: "open", From: "b"},
		{Op: "deposit", From: "a", Amount: 5},
	}
	seq2 := []BankRequest{
		{Op: "open", From: "b"}, {Op: "open", From: "a"},
		{Op: "deposit", From: "a", Amount: 5},
	}
	for _, r := range seq1 {
		if _, err := b1.Apply(bankReq(t, r)); err != nil {
			t.Fatal(err)
		}
	}
	for _, r := range seq2 {
		if _, err := b2.Apply(bankReq(t, r)); err != nil {
			t.Fatal(err)
		}
	}
	s1, err := b1.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	s2, err := b2.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if string(s1) != string(s2) {
		t.Fatalf("non-canonical snapshots:\n%s\n%s", s1, s2)
	}
	fresh := NewBank()
	if err := fresh.Restore(s1); err != nil {
		t.Fatal(err)
	}
	if fresh.TotalFunds() != 5 {
		t.Fatalf("restored funds = %d", fresh.TotalFunds())
	}
}

// Property: transfers conserve total funds no matter the request sequence.
func TestBankConservationProperty(t *testing.T) {
	type step struct {
		FromIdx, ToIdx uint8
		Amount         int16
		Op             uint8
	}
	accounts := []string{"a", "b", "c", "d"}
	prop := func(steps []step) bool {
		b := NewBank()
		var deposited int64
		for _, acc := range accounts {
			if _, err := b.Apply([]byte(`{"op":"open","from":"` + acc + `"}`)); err != nil {
				return false
			}
		}
		for _, s := range steps {
			from := accounts[int(s.FromIdx)%len(accounts)]
			to := accounts[int(s.ToIdx)%len(accounts)]
			amt := int64(s.Amount)
			var r BankRequest
			switch s.Op % 3 {
			case 0:
				r = BankRequest{Op: "deposit", From: from, Amount: amt}
			case 1:
				r = BankRequest{Op: "withdraw", From: from, Amount: amt}
			case 2:
				r = BankRequest{Op: "transfer", From: from, To: to, Amount: amt}
			}
			raw, err := json.Marshal(r)
			if err != nil {
				return false
			}
			out, err := b.Apply(raw)
			if err != nil {
				return false
			}
			var resp BankResponse
			if err := json.Unmarshal(out, &resp); err != nil {
				return false
			}
			if resp.OK {
				switch r.Op {
				case "deposit":
					deposited += amt
				case "withdraw":
					deposited -= amt
				}
			}
		}
		return b.TotalFunds() == deposited
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestNondetDiverges(t *testing.T) {
	// Two replicas of a nondeterministic service executing the same request
	// produce different responses — the reason SMR cannot host it.
	r := xrand.New(1)
	a := NewNondet(NewCounter(), r.Split())
	b := NewNondet(NewCounter(), r.Split())
	ra, err := a.Apply([]byte("inc"))
	if err != nil {
		t.Fatal(err)
	}
	rb, err := b.Apply([]byte("inc"))
	if err != nil {
		t.Fatal(err)
	}
	if string(ra) == string(rb) {
		t.Fatal("nondeterministic replicas agreed; wrapper is broken")
	}
	if a.Deterministic() {
		t.Fatal("Nondet reports deterministic")
	}
	if a.Name() != "nondet-counter" {
		t.Fatalf("name = %q", a.Name())
	}
}

func TestNondetStateStillTransfers(t *testing.T) {
	// Primary-backup hosts it fine: state transfers via Snapshot/Restore.
	r := xrand.New(2)
	primary := NewNondet(NewCounter(), r.Split())
	backup := NewNondet(NewCounter(), r.Split())
	if _, err := primary.Apply([]byte("add 9")); err != nil {
		t.Fatal(err)
	}
	snap, err := primary.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if err := backup.Restore(snap); err != nil {
		t.Fatal(err)
	}
	got, err := backup.Apply([]byte("read"))
	if err != nil {
		t.Fatal(err)
	}
	var env struct {
		Inner []byte `json:"inner"`
	}
	if err := json.Unmarshal(got, &env); err != nil {
		t.Fatal(err)
	}
	if string(env.Inner) != "9" {
		t.Fatalf("backup state = %s", env.Inner)
	}
}

func TestNondetPropagatesErrors(t *testing.T) {
	n := NewNondet(NewCounter(), xrand.New(3))
	if _, err := n.Apply([]byte("bogus")); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("want ErrBadRequest, got %v", err)
	}
}

// deltaStep applies one request and checks the DeltaCapable contract: the
// reported edit, spliced onto the previous snapshot, must be byte-identical
// to the service's own next snapshot — and that snapshot must match a
// from-scratch canonical re-encoding of the state.
func deltaStep(t *testing.T, svc Service, req []byte) {
	t.Helper()
	prev, err := svc.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	prev = append([]byte(nil), prev...)
	_, _ = svc.Apply(req) // request-level errors are legal; state must not change then
	delta, ok := LastDeltaOf(svc)
	if !ok {
		t.Fatalf("service %s does not report deltas", svc.Name())
	}
	next, err := svc.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	var spliced []byte
	if delta.Unchanged {
		spliced = prev
	} else {
		if delta.PrefixLen < 0 || delta.SuffixLen < 0 || delta.PrefixLen+delta.SuffixLen > len(prev) {
			t.Fatalf("req %s: delta out of bounds: prefix=%d suffix=%d len(prev)=%d",
				req, delta.PrefixLen, delta.SuffixLen, len(prev))
		}
		spliced = spliceBytes(prev, delta.PrefixLen, delta.Patch, delta.SuffixLen)
	}
	if string(spliced) != string(next) {
		t.Fatalf("req %s: splice diverged from snapshot:\nprev    %s\nspliced %s\nsnap    %s",
			req, prev, spliced, next)
	}
}

// TestKVDeltaEquivalence drives randomized puts, deletes, gets and bad
// requests, checking every reported delta splices to the exact snapshot.
func TestKVDeltaEquivalence(t *testing.T) {
	kv := NewKV()
	rng := xrand.New(11)
	keys := []string{"a", "b", "κλειδί", `qu"ote`, "x\n<y>&", "", "zz"}
	for i := 0; i < 400; i++ {
		k := keys[rng.Intn(len(keys))]
		var req []byte
		switch rng.Intn(5) {
		case 0, 1:
			req = kvReq(t, "put", k, string(rune('A'+rng.Intn(26))))
		case 2:
			req = kvReq(t, "delete", k, "")
		case 3:
			req = kvReq(t, "get", k, "")
		default:
			req = []byte(`{"op":"nope"}`)
		}
		deltaStep(t, kv, req)
	}
	// The maintained snapshot must equal a from-scratch marshal of the map.
	snap, _ := kv.Snapshot()
	want, _ := json.Marshal(kv.data)
	if string(snap) != string(want) {
		t.Fatalf("cached snapshot %s != marshalled %s", snap, want)
	}
}

// TestBankDeltaEquivalence does the same over opens, deposits, withdrawals
// and transfers (including transfer-to-self and failing requests).
func TestBankDeltaEquivalence(t *testing.T) {
	b := NewBank()
	rng := xrand.New(13)
	accts := []string{"alice", "bob", "carol", "dave", "える"}
	for i := 0; i < 400; i++ {
		from := accts[rng.Intn(len(accts))]
		to := accts[rng.Intn(len(accts))]
		var r BankRequest
		switch rng.Intn(5) {
		case 0:
			r = BankRequest{Op: "open", From: from}
		case 1:
			r = BankRequest{Op: "deposit", From: from, Amount: int64(rng.Intn(100))}
		case 2:
			r = BankRequest{Op: "withdraw", From: from, Amount: int64(rng.Intn(120))}
		case 3:
			r = BankRequest{Op: "transfer", From: from, To: to, Amount: int64(rng.Intn(80))}
		default:
			r = BankRequest{Op: "balance", From: from}
		}
		req, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		deltaStep(t, b, req)
	}
	snap, _ := b.Snapshot()
	var entries []bankEntry
	if err := json.Unmarshal(snap, &entries); err != nil {
		t.Fatalf("cached snapshot is not valid: %v", err)
	}
	if len(entries) != len(b.data) {
		t.Fatalf("snapshot has %d entries, state has %d", len(entries), len(b.data))
	}
}

// TestCounterDeltaEquivalence covers the whole-value replacement deltas.
func TestCounterDeltaEquivalence(t *testing.T) {
	c := NewCounter()
	for _, req := range []string{"inc", "read", "add 41", "add -100", "inc", "bogus", "add 7"} {
		deltaStep(t, c, []byte(req))
	}
	if c.Value() != -50 {
		t.Fatalf("value = %d, want -50", c.Value())
	}
}

// TestDeltaSurvivesRestore pins the editor re-canonicalization: a service
// restored from a snapshot keeps reporting correct deltas afterwards.
func TestDeltaSurvivesRestore(t *testing.T) {
	kv := NewKV()
	for _, k := range []string{"b", "a", "c"} {
		if _, err := kv.Apply(kvReq(t, "put", k, "v-"+k)); err != nil {
			t.Fatal(err)
		}
	}
	snap, _ := kv.Snapshot()
	fresh := NewKV()
	if err := fresh.Restore(append([]byte(nil), snap...)); err != nil {
		t.Fatal(err)
	}
	deltaStep(t, fresh, kvReq(t, "put", "ab", "new"))
	deltaStep(t, fresh, kvReq(t, "delete", "b", ""))
	got, _ := fresh.Snapshot()
	want, _ := json.Marshal(fresh.data)
	if string(got) != string(want) {
		t.Fatalf("post-restore snapshot %s != marshalled %s", got, want)
	}
}
