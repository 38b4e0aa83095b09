// Package faults is a deterministic fault-injection scheduler for live
// FORTRESS campaigns: the machinery that drives netsim's
// Partition/Heal/drop-rate primitives and the system's node lifecycle over
// time instead of leaving live campaigns to run on a pristine network.
//
// A Schedule is a declarative list of timed events, each one of seven
// kinds: partition or heal a cut between two address groups, heal every
// cut, crash or restart a fortress.Target (one server, one proxy, or All —
// whose crash is a whole-cluster power loss), change the lossy-link drop
// rate, or stall one server's disk. Each event is stamped with a virtual
// time. The clock is the campaign's own step counter (or any other logical
// counter the driver advances: message count, repetition index), never
// wall time, so a given schedule replays bit-identically at any worker
// count and on any machine.
//
// An Injector binds a schedule to one deployment (a netsim.Network plus a
// fortress.System) and fires every event whose timestamp has arrived each
// time the driver calls Advance. attack.Campaign advances its injector once
// per unit time-step, before the step's probes, so an event At step t is in
// force for all of step t's traffic.
package faults

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"fortress/internal/fortress"
	"fortress/internal/netsim"
	"fortress/internal/xrand"
)

// EventKind enumerates the fault actions a schedule can take.
type EventKind int

const (
	// EvPartition severs every cross pair between two address groups.
	EvPartition EventKind = iota + 1
	// EvHeal removes the cross-pair partitions between two address groups.
	EvHeal
	// EvHealAll removes every partition on the network.
	EvHealAll
	// EvCrash fault-crashes the event's Node target (down until an
	// EvRestart); see fortress.System.Crash.
	EvCrash
	// EvRestart brings the fault-crashed nodes of the event's Node target
	// back; see fortress.System.Restart.
	EvRestart
	// EvDropRate sets the network-wide lossy-link drop probability.
	EvDropRate
	// EvDiskStall injects synchronous storage latency on one server's store.
	EvDiskStall
)

// String implements fmt.Stringer.
func (k EventKind) String() string {
	switch k {
	case EvPartition:
		return "partition"
	case EvHeal:
		return "heal"
	case EvHealAll:
		return "heal-all"
	case EvCrash:
		return "crash"
	case EvRestart:
		return "restart"
	case EvDropRate:
		return "drop-rate"
	case EvDiskStall:
		return "disk-stall"
	default:
		return fmt.Sprintf("EventKind(%d)", int(k))
	}
}

// Event is one timed fault action. At is virtual time: the injector fires
// the event on the first Advance(now) with now >= At. Events sharing a
// timestamp fire in schedule order.
type Event struct {
	At   uint64
	Kind EventKind
	// A and B are the address groups of a partition/heal cut.
	A, B []string
	// Node is the crash/restart target, or the server whose disk stalls.
	Node fortress.Target
	// Rate is the EvDropRate probability.
	Rate float64
	// Stall is the EvDiskStall injected sync latency; non-positive clears
	// a previously injected stall.
	Stall time.Duration
}

// Partition returns an event severing every (a, b) cross pair at time t.
func Partition(t uint64, a, b []string) Event {
	return Event{At: t, Kind: EvPartition, A: a, B: b}
}

// Heal returns an event removing the (a, b) cross-pair partitions at time t.
func Heal(t uint64, a, b []string) Event {
	return Event{At: t, Kind: EvHeal, A: a, B: b}
}

// HealAll returns an event removing every partition at time t.
func HealAll(t uint64) Event { return Event{At: t, Kind: EvHealAll} }

// Crash returns an event fault-crashing target at time t. Crashing
// fortress.All power-fails the whole deployment: every server and proxy
// goes down, and any durable store loses writes it had not yet synced.
func Crash(t uint64, target fortress.Target) Event {
	return Event{At: t, Kind: EvCrash, Node: target}
}

// Restart returns an event restarting target's fault-crashed nodes at time
// t; for fortress.All, servers (in index order) before proxies.
func Restart(t uint64, target fortress.Target) Event {
	return Event{At: t, Kind: EvRestart, Node: target}
}

// DropRate returns an event setting the lossy-link drop probability at
// time t.
func DropRate(t uint64, p float64) Event {
	return Event{At: t, Kind: EvDropRate, Rate: p}
}

// DiskStall returns an event injecting d of synchronous storage latency on
// server i's store at time t. A non-positive d clears the stall. The event
// is a no-op for servers without a stall-capable store (e.g. the in-memory
// default).
func DiskStall(t uint64, i int, d time.Duration) Event {
	return Event{At: t, Kind: EvDiskStall, Node: fortress.Server(i), Stall: d}
}

// Schedule is a declarative fault plan: events over virtual time. The zero
// value is an empty (pristine-network) schedule.
type Schedule struct {
	Events []Event
}

// Append adds events to the schedule and returns it, for fluent building.
func (s Schedule) Append(events ...Event) Schedule {
	s.Events = append(s.Events, events...)
	return s
}

// ServerAddrs returns the netsim addresses of servers [0, n) — the group
// arguments partition events aim at the server tier.
func ServerAddrs(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fortress.ServerAddr(i)
	}
	return out
}

// GroupServerAddrs returns the netsim addresses of replica group g on a
// deployment with serversPerGroup servers per group: the global indices
// [g·serversPerGroup, (g+1)·serversPerGroup) — the address group a
// shard-scoped partition aims at.
func GroupServerAddrs(g, serversPerGroup int) []string {
	out := make([]string, serversPerGroup)
	for i := range out {
		out[i] = fortress.ServerAddr(g*serversPerGroup + i)
	}
	return out
}

// ProxyAddrs returns the netsim addresses of proxies [0, n).
func ProxyAddrs(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fortress.ProxyAddr(i)
	}
	return out
}

// Injector binds a schedule to one live deployment and replays it against
// the deployment's virtual clock. It is single-driver: only the campaign
// loop calls Advance, between steps, so no locking is needed beyond what
// the network and system already do.
type Injector struct {
	events []Event // sorted stably by At
	next   int
	sys    *fortress.System
	net    *netsim.Network
	rng    *xrand.RNG
}

// NewInjector prepares sched to run against sys (events act on sys and on
// sys.Net()). rng feeds drop-rate events' sampling; it may be nil for
// schedules without EvDropRate events. The schedule is copied and stably
// sorted by timestamp, so a caller may reuse one Schedule value across many
// concurrent deployments.
func NewInjector(sched Schedule, sys *fortress.System, rng *xrand.RNG) (*Injector, error) {
	if sys == nil {
		return nil, errors.New("faults: injector needs a system")
	}
	events := make([]Event, len(sched.Events))
	copy(events, sched.Events)
	sort.SliceStable(events, func(i, j int) bool { return events[i].At < events[j].At })
	for _, e := range events {
		if e.Kind == EvDropRate && e.Rate > 0 && rng == nil {
			return nil, errors.New("faults: drop-rate events need an rng")
		}
	}
	return &Injector{events: events, sys: sys, net: sys.Net(), rng: rng}, nil
}

// Advance fires, in order, every not-yet-fired event with At <= now. The
// virtual clock only moves forward; a now below an earlier call's is simply
// a no-op. It returns the first event application error.
func (in *Injector) Advance(now uint64) error {
	for in.next < len(in.events) && in.events[in.next].At <= now {
		e := in.events[in.next]
		in.next++
		if err := in.apply(e); err != nil {
			return fmt.Errorf("faults: event %d (%s at t=%d): %w", in.next-1, e.Kind, e.At, err)
		}
	}
	return nil
}

// Fired reports how many events have been applied so far.
func (in *Injector) Fired() int { return in.next }

// Pending reports how many events have not yet fired.
func (in *Injector) Pending() int { return len(in.events) - in.next }

func (in *Injector) apply(e Event) error {
	switch e.Kind {
	case EvPartition:
		in.net.PartitionGroup(e.A, e.B)
	case EvHeal:
		in.net.HealGroup(e.A, e.B)
	case EvHealAll:
		in.net.HealAll()
	case EvDropRate:
		in.net.SetDropRate(e.Rate, in.rng)
	case EvCrash:
		return in.sys.Crash(e.Node)
	case EvRestart:
		return in.sys.Restart(e.Node)
	case EvDiskStall:
		return in.sys.StallDisk(e.Node.Index(), e.Stall)
	default:
		return fmt.Errorf("unknown event kind %v", e.Kind)
	}
	return nil
}
