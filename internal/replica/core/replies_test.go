package core

import (
	"fmt"
	"maps"
	"slices"
	"testing"

	"fortress/internal/netsim"
)

// evictionOrder records filler ids into t one at a time until every entry
// it held at the start is gone, and returns those in the order they left.
func evictionOrder(t *Replies) []string {
	var out []string
	for i := 0; ; i++ {
		before := t.Export()
		t.Record(fmt.Sprintf("\x00%d", i), nil)
		after := t.Export()
		live := 0
		for _, id := range slices.Sorted(maps.Keys(before)) {
			if id[0] == 0 {
				continue // a filler
			}
			if _, ok := after[id]; ok {
				live++
			} else {
				out = append(out, id)
			}
		}
		if live == 0 {
			return out
		}
	}
}

func TestRepliesBoundAndEvictionOrder(t *testing.T) {
	cases := []struct {
		name   string
		limit  int
		record []string
		held   []string // sorted
		evicts []string // order the held ids leave in
	}{
		{"under the bound", 4, []string{"a", "b", "c"}, []string{"a", "b", "c"}, []string{"a", "b", "c"}},
		{"at the bound", 3, []string{"a", "b", "c"}, []string{"a", "b", "c"}, []string{"a", "b", "c"}},
		{"oldest evicted first", 3, []string{"c", "a", "d", "b", "e"}, []string{"b", "d", "e"}, []string{"d", "b", "e"}},
		{"re-recording keeps the slot", 3, []string{"a", "b", "a", "c", "a"}, []string{"a", "b", "c"}, []string{"a", "b", "c"}},
		{"re-recording does not duplicate", 2, []string{"a", "a", "a", "b"}, []string{"a", "b"}, []string{"a", "b"}},
		{"limit one", 1, []string{"a", "b", "c"}, []string{"c"}, []string{"c"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tab := NewReplies(tc.limit)
			last := make(map[string]int) // id → index of its latest record
			for i, id := range tc.record {
				tab.Record(id, []byte{byte(i)})
				last[id] = i
				if n := len(tab.Export()); n > tc.limit {
					t.Fatalf("after %d records the table holds %d, limit %d", i+1, n, tc.limit)
				}
				if len(tab.order) != len(tab.payload) {
					t.Fatalf("order list (%d) and payload map (%d) disagree", len(tab.order), len(tab.payload))
				}
			}
			held := tab.Export()
			if got := slices.Sorted(maps.Keys(held)); !slices.Equal(got, tc.held) {
				t.Fatalf("held = %v, want %v", got, tc.held)
			}
			for id, p := range held {
				if int(p[0]) != last[id] {
					t.Errorf("%s holds the payload of record %d, want its latest, %d", id, p[0], last[id])
				}
			}
			if got := evictionOrder(tab); !slices.Equal(got, tc.evicts) {
				t.Fatalf("eviction order = %v, want %v", got, tc.evicts)
			}
		})
	}
}

func reversed(s []string) []string {
	r := slices.Clone(s)
	slices.Reverse(r)
	return r
}

// TestRepliesImport: the same entries imported from maps built in different
// orders leave the same eviction order, and Import never overwrites (or
// re-slots) a live entry.
func TestRepliesImport(t *testing.T) {
	ids := []string{"m", "c", "x", "a", "q", "f"}
	build := func(order []string) map[string][]byte {
		m := make(map[string][]byte)
		for _, id := range order {
			m[id] = []byte("imported-" + id)
		}
		return m
	}
	var want []string
	for trial, order := range [][]string{ids, reversed(ids), {"q", "a", "f", "x", "m", "c"}} {
		tab := NewReplies(6)
		tab.Record("x", []byte("live-x")) // live before the import: keeps its payload and the oldest slot
		tab.Import(build(order))
		if p, _ := tab.Lookup("x"); string(p) != "live-x" {
			t.Fatalf("trial %d: Import overwrote a live entry: %q", trial, p)
		}
		if p, _ := tab.Lookup("q"); string(p) != "imported-q" {
			t.Fatalf("trial %d: imported payload = %q", trial, p)
		}
		// x went in first and stays first out; the imported ids follow in
		// sorted order whatever order the map was built in.
		got := evictionOrder(tab)
		if trial == 0 {
			want = got
			if !slices.Equal(got, []string{"x", "a", "c", "f", "m", "q"}) {
				t.Fatalf("eviction order after import = %v", got)
			}
		}
		if !slices.Equal(got, want) {
			t.Fatalf("trial %d: eviction order %v differs from trial 0's %v", trial, got, want)
		}
	}
}

// TestRepliesParked: Record hands back an id's parked connections exactly
// once; Import does the same for the ids it newly answers; Unpark takes the
// rest.
func TestRepliesParked(t *testing.T) {
	c1, c2, c3, c4 := new(netsim.Conn), new(netsim.Conn), new(netsim.Conn), new(netsim.Conn)
	tab := NewReplies(8)
	tab.Park("a", c1)
	tab.Park("a", c2)
	tab.Park("b", c3)
	tab.Park("z", c4)

	w := tab.Record("a", []byte("A"))
	if w.ID != "a" || string(w.Payload) != "A" || !slices.Equal(w.Conns, []*netsim.Conn{c1, c2}) {
		t.Fatalf("Record(a) = %+v, want both parked connections in park order", w)
	}
	if again := tab.Record("a", []byte("A")); len(again.Conns) != 0 {
		t.Fatalf("Record(a) handed its connections back twice: %v", again.Conns)
	}
	if idle := tab.Record("nobody", nil); len(idle.Conns) != 0 {
		t.Fatalf("Record of an unparked id returned connections: %v", idle.Conns)
	}

	woken := tab.Import(map[string][]byte{"a": []byte("other"), "b": []byte("B"), "c": []byte("C")})
	if len(woken) != 1 || woken[0].ID != "b" || string(woken[0].Payload) != "B" || !slices.Equal(woken[0].Conns, []*netsim.Conn{c3}) {
		t.Fatalf("Import woke %+v, want exactly b's connection", woken)
	}

	if rest := tab.Unpark(); !slices.Equal(rest, []*netsim.Conn{c4}) {
		t.Fatalf("Unpark = %v, want the one connection still parked", rest)
	}
	if rest := tab.Unpark(); len(rest) != 0 {
		t.Fatalf("second Unpark = %v, want nothing", rest)
	}
}

// TestRepliesClaim: an id is claimable once until recorded, not at all
// while recorded, and again once evicted — "claimed until recorded" plus
// "recorded" is the predicate smr's sequencer tests.
func TestRepliesClaim(t *testing.T) {
	tab := NewReplies(2)
	steps := []struct {
		op   string // "claim" or "record"
		id   string
		want bool // claim result
	}{
		{"claim", "a", true},
		{"claim", "a", false}, // in flight
		{"claim", "b", true},
		{"record", "a", false},
		{"claim", "a", false}, // executed, inside the horizon
		{"record", "x", false},
		{"claim", "x", false}, // recorded without a claim (a follower's execution)
		{"record", "y", false},
		{"claim", "a", true},  // evicted: indistinguishable from new
		{"claim", "b", false}, // never recorded: its claim outlives any eviction
	}
	for i, s := range steps {
		switch s.op {
		case "record":
			tab.Record(s.id, nil)
		case "claim":
			if got := tab.Claim(s.id); got != s.want {
				t.Fatalf("step %d: Claim(%s) = %v, want %v", i, s.id, got, s.want)
			}
		}
	}
	if len(tab.claimed) != 2 { // a (re-claimed) and b
		t.Fatalf("claims outstanding = %v, want a and b", tab.claimed)
	}
}

// TestRepliesSeen: Seen is false only for a table nothing was ever recorded
// in — it survives full eviction, where Export is empty again (limit 0 is
// the degenerate table that evicts everything at once).
func TestRepliesSeen(t *testing.T) {
	tab := NewReplies(0)
	if tab.Seen() {
		t.Fatal("virgin table reports Seen")
	}
	tab.Claim("a")
	tab.Park("a", new(netsim.Conn))
	if tab.Seen() {
		t.Fatal("claiming and parking count as Seen")
	}
	tab.Import(map[string][]byte{"a": []byte("1")})
	if n := len(tab.Export()); n != 0 {
		t.Fatalf("limit-0 table retains %d entries", n)
	}
	if !tab.Seen() {
		t.Fatal("Seen forgot an evicted entry")
	}
}
