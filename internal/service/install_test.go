package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"slices"
	"strings"
	"testing"

	"fortress/internal/xrand"
)

// Edit forms a primary can ship for one Apply.
const (
	shipReported = iota // LastDelta as reported (Unchanged kept)
	shipWire            // LastDelta as the PB wire carries it (Unchanged as an identity splice)
	shipDiff            // the minimal byte diff, blind to entry boundaries
	shipForms
)

// installTwin is a primary and two backups of one service type: inst
// installs every edit through InstallDelta, rest restores the spliced
// snapshot whole. After every step the backups must hold byte-identical
// snapshots — the primary's — and give identical answers to reads.
type installTwin struct {
	primary, inst, rest Service
	reads               func() [][]byte
}

func newTwin(mk func() Service, reads func() [][]byte) *installTwin {
	return &installTwin{primary: mk(), inst: mk(), rest: mk(), reads: reads}
}

func snapOf(t testing.TB, svc Service) []byte {
	t.Helper()
	s, err := svc.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// minimalDiff is the longest-common-prefix/suffix edit from old to new.
func minimalDiff(old, new []byte) SnapshotDelta {
	p, s := 0, 0
	for p < min(len(old), len(new)) && old[p] == new[p] {
		p++
	}
	for s < min(len(old), len(new))-p && old[len(old)-1-s] == new[len(new)-1-s] {
		s++
	}
	return SnapshotDelta{PrefixLen: p, Patch: new[p : len(new)-s], SuffixLen: s}
}

// step applies req on the primary and ships its edit in the given form.
func (w *installTwin) step(t testing.TB, req []byte, form int) {
	t.Helper()
	prev := bytes.Clone(snapOf(t, w.primary))
	_, _ = w.primary.Apply(req) // request-level errors are legal
	d, ok := LastDeltaOf(w.primary)
	if !ok {
		t.Fatalf("%s reports no deltas", w.primary.Name())
	}
	next := snapOf(t, w.primary)
	switch form {
	case shipWire:
		if d.Unchanged {
			d = SnapshotDelta{PrefixLen: len(prev)}
		}
	case shipDiff:
		d = minimalDiff(prev, next)
	}
	w.ship(t, string(req), prev, d)
	if got := snapOf(t, w.inst); !bytes.Equal(got, next) {
		t.Fatalf("after %s: installed snapshot\n%s\nprimary\n%s", req, got, next)
	}
}

// ship hands one edit of prev to both backups and compares them.
func (w *installTwin) ship(t testing.TB, what string, prev []byte, d SnapshotDelta) {
	t.Helper()
	next := prev
	if !d.Unchanged {
		next = spliceBytes(prev, d.PrefixLen, d.Patch, d.SuffixLen)
	}
	ierr := InstallDelta(w.inst, next, d)
	rerr := w.rest.Restore(next)
	if (ierr == nil) != (rerr == nil) {
		t.Fatalf("%s: InstallDelta err %v, Restore err %v", what, ierr, rerr)
	}
	if a, b := snapOf(t, w.inst), snapOf(t, w.rest); !bytes.Equal(a, b) {
		t.Fatalf("%s: installed snapshot\n%s\nrestored\n%s", what, a, b)
	}
	for _, r := range w.reads() {
		a, aerr := w.inst.Apply(r)
		b, berr := w.rest.Apply(r)
		if !bytes.Equal(a, b) || (aerr == nil) != (berr == nil) {
			t.Fatalf("%s: read %s: installed %s (%v), restored %s (%v)", what, r, a, aerr, b, berr)
		}
	}
}

// fallbacksOf reports a KV or Bank editor's full re-parse count.
func fallbacksOf(svc Service) int {
	switch s := svc.(type) {
	case *KV:
		return s.fallbacks
	case *Bank:
		return s.fallbacks
	}
	return 0
}

var (
	installKeys   = []string{"", " lead", "a", "b", "m", "mm", "z", "zz", `qu"ote`, "<tag>", "é", "x y"}
	installValues = []string{"", "v", `say "hi"`, "<b>&</b>", "café é", "two  spaces", strings.Repeat("w", 300)}
)

func kvReads() [][]byte {
	reads := make([][]byte, 0, len(installKeys))
	for _, k := range installKeys {
		b, _ := json.Marshal(KVRequest{Op: "get", Key: k})
		reads = append(reads, b)
	}
	return reads
}

// kvOp draws one request against the twin's primary: puts and deletes over
// a small key set, deletes aimed at the first, middle and last entry, the
// occasional emptying of the whole state (returned as several requests),
// reads and malformed requests.
func kvOp(rng *xrand.RNG, kv *KV) [][]byte {
	mk := func(op, k, v string) []byte {
		b, _ := json.Marshal(KVRequest{Op: op, Key: k, Value: v})
		return b
	}
	kv.mu.Lock()
	keys := slices.Clone(kv.keys)
	kv.mu.Unlock()
	switch n := rng.Intn(20); {
	case n < 9:
		return [][]byte{mk("put", installKeys[rng.Intn(len(installKeys))], installValues[rng.Intn(len(installValues))])}
	case n < 12 && len(keys) > 0:
		pick := []int{0, len(keys) / 2, len(keys) - 1}[rng.Intn(3)]
		return [][]byte{mk("delete", keys[pick], "")}
	case n < 14:
		return [][]byte{mk("delete", installKeys[rng.Intn(len(installKeys))], "")}
	case n < 16:
		return [][]byte{mk("get", installKeys[rng.Intn(len(installKeys))], "")}
	case n == 16:
		return [][]byte{[]byte(`{"op":"nope"}`), []byte("{not json")}
	case n == 17:
		var all [][]byte
		for _, k := range keys {
			all = append(all, mk("delete", k, ""))
		}
		return all
	default:
		return [][]byte{mk("put", installKeys[rng.Intn(len(installKeys))], installValues[rng.Intn(len(installValues))])}
	}
}

// TestKVInstallDeltaMatchesRestore is the install property for KV: every
// edit the primary ships, installed, equals restoring the spliced snapshot
// — and an edit reported by the service or the wire never falls back.
func TestKVInstallDeltaMatchesRestore(t *testing.T) {
	for form := 0; form < shipForms; form++ {
		w := newTwin(func() Service { return NewKV() }, kvReads)
		rng := xrand.New(uint64(40 + form))
		for i := 0; i < 1500; i++ {
			for _, req := range kvOp(rng, w.primary.(*KV)) {
				w.step(t, req, form)
			}
		}
		if f := fallbacksOf(w.inst); form != shipDiff && f != 0 {
			t.Errorf("form %d: %d installs fell back to a full re-parse", form, f)
		}
	}
}

var installAccounts = func() []string {
	a := []string{"", "é", `o"brien`, "<z>"}
	for i := 0; i < 24; i++ {
		a = append(a, fmt.Sprintf("acct-%02d", i))
	}
	return a
}()

func bankReads() [][]byte {
	reads := make([][]byte, 0, len(installAccounts))
	for _, a := range installAccounts {
		b, _ := json.Marshal(BankRequest{Op: "balance", From: a})
		reads = append(reads, b)
	}
	return reads
}

// TestBankInstallDeltaMatchesRestore is the install property for Bank,
// with transfers between the first and last accounts so one edit spans
// the whole ledger.
func TestBankInstallDeltaMatchesRestore(t *testing.T) {
	for form := 0; form < shipForms; form++ {
		w := newTwin(func() Service { return NewBank() }, bankReads)
		rng := xrand.New(uint64(50 + form))
		acct := func() string { return installAccounts[rng.Intn(len(installAccounts))] }
		for i := 0; i < 1500; i++ {
			var r BankRequest
			switch rng.Intn(7) {
			case 0:
				r = BankRequest{Op: "open", From: acct()}
			case 1:
				r = BankRequest{Op: "deposit", From: acct(), Amount: int64(rng.Intn(1000))}
			case 2:
				r = BankRequest{Op: "withdraw", From: acct(), Amount: int64(rng.Intn(500))}
			case 3:
				r = BankRequest{Op: "transfer", From: acct(), To: acct(), Amount: int64(rng.Intn(300))}
			case 4: // distant: the lowest and highest account names
				lo, hi := "", "é"
				if rng.Intn(2) == 0 {
					lo, hi = hi, lo
				}
				r = BankRequest{Op: "transfer", From: lo, To: hi, Amount: int64(rng.Intn(50))}
			case 5:
				r = BankRequest{Op: "balance", From: acct()}
			default:
				r = BankRequest{Op: "bogus"}
			}
			req, _ := json.Marshal(r)
			w.step(t, req, form)
		}
		if f := fallbacksOf(w.inst); form != shipDiff && f != 0 {
			t.Errorf("form %d: %d installs fell back to a full re-parse", form, f)
		}
	}
}

// TestCounterInstallDeltaMatchesRestore covers the one-number snapshot.
func TestCounterInstallDeltaMatchesRestore(t *testing.T) {
	for form := 0; form < shipForms; form++ {
		w := newTwin(func() Service { return NewCounter() }, func() [][]byte { return [][]byte{[]byte("read")} })
		rng := xrand.New(uint64(60 + form))
		for i := 0; i < 300; i++ {
			req := []string{"inc", "read", fmt.Sprintf("add %d", rng.Intn(2000)-1000), "bogus"}[rng.Intn(4)]
			w.step(t, []byte(req), form)
		}
	}
}

// TestInstallDeltaMisalignedFallsBack hand-makes edits the sorted-entry
// editor cannot place on canonical whole entries: each must take the full
// re-parse and still equal Restore(next), or fail exactly when it does.
func TestInstallDeltaMisalignedFallsBack(t *testing.T) {
	base := `{"a":"1","b":"2","c":"3"}`
	cases := []struct {
		name, next string
		whole      bool // ship as one replacement touching both brackets
	}{
		{name: "bracket", next: `{"a":"1","b":"X","c":"3"}`, whole: true},
		{name: "whitespace", next: `{"a":"1","b": "2","c":"3"}`},
		{name: "out of order", next: `{"a":"1","d":"2","c":"3"}`},
		{name: "duplicate", next: `{"a":"1","a":"2","c":"3"}`},
		{name: "escaping", next: `{"a":"1","b":"\u0032","c":"3"}`},
		{name: "stray comma", next: `{"a":"1",,"c":"3"}`},
		{name: "extra bracket", next: `{"a":"1","b":"2","c":"3"}}`},
		{name: "trailing comma", next: `{"a":"1","b":"2","c":"3",}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := newTwin(func() Service { return NewKV() }, kvReads)
			for _, svc := range []Service{w.inst, w.rest} {
				if err := svc.Restore([]byte(base)); err != nil {
					t.Fatal(err)
				}
			}
			d := minimalDiff([]byte(base), []byte(tc.next))
			if tc.whole {
				d = SnapshotDelta{Patch: []byte(tc.next)}
			}
			w.ship(t, tc.name, []byte(base), d)
			if got := fallbacksOf(w.inst); got != 1 {
				t.Errorf("fallbacks = %d, want 1", got)
			}
		})
	}
	// Bank: an edit that renames an account past its neighbour.
	w := newTwin(func() Service { return NewBank() }, bankReads)
	bankBase := `[{"account":"acct-01","balance":1},{"account":"acct-02","balance":2},{"account":"acct-03","balance":3}]`
	for _, svc := range []Service{w.inst, w.rest} {
		if err := svc.Restore([]byte(bankBase)); err != nil {
			t.Fatal(err)
		}
	}
	next := strings.Replace(bankBase, "acct-02", "acct-09", 1)
	w.ship(t, "bank rename", []byte(bankBase), minimalDiff([]byte(bankBase), []byte(next)))
	if got := fallbacksOf(w.inst); got != 1 {
		t.Errorf("bank fallbacks = %d, want 1", got)
	}
}

// TestRestoreEncodesLikeMarshal pins the checkpoint install: Restore
// builds its snapshot by joining entry encodings, and the result must be
// byte-identical to json.Marshal of the same state, whatever encoding the
// input used.
func TestRestoreEncodesLikeMarshal(t *testing.T) {
	rng := xrand.New(70)
	for round := 0; round < 50; round++ {
		data := make(map[string]string)
		accounts := make(map[string]int64)
		for i := rng.Intn(12); i > 0; i-- {
			k := installKeys[rng.Intn(len(installKeys))] + installValues[rng.Intn(3)]
			data[k] = installValues[rng.Intn(len(installValues))]
			accounts[k] = int64(rng.Intn(2000) - 1000)
		}
		indented, _ := json.MarshalIndent(data, "", "  ")
		kv := NewKV()
		if err := kv.Restore(indented); err != nil {
			t.Fatal(err)
		}
		want, _ := json.Marshal(data)
		if got := snapOf(t, kv); !bytes.Equal(got, want) {
			t.Fatalf("kv restore %s, marshal %s", got, want)
		}

		list := make([]bankEntry, 0, len(accounts))
		for k, v := range accounts {
			list = append(list, bankEntry{Account: k, Balance: v})
		}
		shuffled, _ := json.MarshalIndent(list, "", " ")
		slices.SortFunc(list, func(a, b bankEntry) int { return strings.Compare(a.Account, b.Account) })
		b := NewBank()
		if err := b.Restore(shuffled); err != nil {
			t.Fatal(err)
		}
		want, _ = json.Marshal(list)
		if got := snapOf(t, b); !bytes.Equal(got, want) {
			t.Fatalf("bank restore %s, marshal %s", got, want)
		}
	}
	empty := NewBank()
	if err := empty.Restore([]byte("[]")); err != nil {
		t.Fatal(err)
	}
	if got := snapOf(t, empty); string(got) != "[]" {
		t.Fatalf("empty bank restore = %s", got)
	}
}

// FuzzKVInstallDelta drives a KV primary from fuzz bytes — each byte pair
// picks an op, a key and a value, and how the edit ships — and checks the
// install property after every step. The seed corpus runs in plain
// go test.
func FuzzKVInstallDelta(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7})
	f.Add([]byte{0x10, 0x21, 0x32, 0x43, 0x54, 0x65, 0x76, 0x87, 0x98, 0xa9})
	f.Add(bytes.Repeat([]byte{0x31, 0x07}, 12))
	f.Add([]byte("delete the first, middle and last entry, then empty it all"))
	f.Fuzz(func(t *testing.T, ops []byte) {
		w := newTwin(func() Service { return NewKV() }, kvReads)
		for i := 0; i+1 < len(ops); i += 2 {
			op, arg := ops[i], ops[i+1]
			k := installKeys[int(arg)%len(installKeys)]
			v := installValues[int(arg>>4)%len(installValues)]
			var req []byte
			switch op % 4 {
			case 0, 1:
				req, _ = json.Marshal(KVRequest{Op: "put", Key: k, Value: v})
			case 2:
				req, _ = json.Marshal(KVRequest{Op: "delete", Key: k})
			default:
				req, _ = json.Marshal(KVRequest{Op: "get", Key: k})
			}
			w.step(t, req, int(op/4)%shipForms)
		}
	})
}
