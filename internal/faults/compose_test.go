package faults_test

import (
	"reflect"
	"testing"

	"fortress/internal/faults"
	"fortress/internal/xrand"
)

func ats(s faults.Schedule) []uint64 {
	out := make([]uint64, len(s.Events))
	for i, e := range s.Events {
		out[i] = e.At
	}
	return out
}

func TestMergeKeepsArgumentOrderOnTies(t *testing.T) {
	a := faults.Schedule{}.Append(faults.DropRate(5, 0.1))
	b := faults.Schedule{}.Append(faults.DropRate(5, 0.9), faults.HealAll(1))
	m := faults.Merge(a, b)
	if len(m.Events) != 3 {
		t.Fatalf("merged %d events", len(m.Events))
	}
	// Merge preserves argument order; the injector's stable sort then
	// keeps a's t=5 event ahead of b's.
	if m.Events[0].Rate != 0.1 || m.Events[1].Rate != 0.9 {
		t.Fatalf("merge order: %+v", m.Events)
	}
}

func TestJitterDeterministicAndOrderPreserving(t *testing.T) {
	s := faults.Schedule{}.Append(
		faults.Partition(2, []string{"a"}, []string{"b"}),
		faults.Heal(4, []string{"a"}, []string{"b"}),
		faults.HealAll(4),
		faults.DropRate(9, 0),
	)
	j1 := faults.Jitter(s, 5, xrand.New(11))
	j2 := faults.Jitter(s, 5, xrand.New(11))
	if !reflect.DeepEqual(j1, j2) {
		t.Fatal("same seed produced different jitters")
	}
	// Forward-only and order-preserving, in the stable-by-timestamp order.
	prev := uint64(0)
	for i, e := range j1.Events {
		if e.At < s.Events[i].At {
			t.Fatalf("event %d jittered backwards: %d < %d", i, e.At, s.Events[i].At)
		}
	}
	for _, e := range []int{0, 1, 2, 3} { // already timestamp-sorted here
		if j1.Events[e].At < prev {
			t.Fatalf("jitter reordered events: %v", ats(j1))
		}
		prev = j1.Events[e].At
	}
	// Zero delta or nil rng: a plain copy.
	if got := faults.Jitter(s, 0, xrand.New(1)); !reflect.DeepEqual(ats(got), ats(s)) {
		t.Fatalf("zero-delta jitter moved events: %v", ats(got))
	}
	if got := faults.Jitter(s, 3, nil); !reflect.DeepEqual(ats(got), ats(s)) {
		t.Fatalf("nil-rng jitter moved events: %v", ats(got))
	}
}

func TestJitterListingOrderIrrelevant(t *testing.T) {
	// The draw stream follows replay (timestamp) order, so listing the
	// same events differently yields the same per-event delays.
	a := faults.Schedule{}.Append(faults.HealAll(1), faults.HealAll(5))
	b := faults.Schedule{}.Append(faults.HealAll(5), faults.HealAll(1))
	ja := faults.Jitter(a, 4, xrand.New(3))
	jb := faults.Jitter(b, 4, xrand.New(3))
	find := func(s faults.Schedule, orig uint64, origSched faults.Schedule) uint64 {
		for i, e := range origSched.Events {
			if e.At == orig {
				return s.Events[i].At
			}
		}
		t.Fatalf("event at %d not found", orig)
		return 0
	}
	if find(ja, 1, a) != find(jb, 1, b) || find(ja, 5, a) != find(jb, 5, b) {
		t.Fatalf("listing order changed jitter: %v vs %v", ats(ja), ats(jb))
	}
}

func TestCompoundPresetComposes(t *testing.T) {
	p, err := faults.PresetByName("compound")
	if err != nil {
		t.Fatal(err)
	}
	s := p.Build(faults.Shape{Servers: 3, Proxies: 3}, 24)
	kinds := map[faults.EventKind]int{}
	for _, e := range s.Events {
		kinds[e.Kind]++
	}
	if kinds[faults.EvPartition] == 0 || kinds[faults.EvDropRate] == 0 || kinds[faults.EvCrash] == 0 {
		t.Fatalf("compound preset missing a disaster: %v", kinds)
	}
	if kinds[faults.EvHeal] == 0 || kinds[faults.EvRestart] == 0 {
		t.Fatalf("compound preset never recovers: %v", kinds)
	}
}
