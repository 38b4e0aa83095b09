package faults

import (
	"sort"

	"fortress/internal/xrand"
)

// Schedule combinators: schedules are values on a shared virtual clock, so
// compound disasters — a partition while the link is lossy while a node is
// down — compose out of simple ones instead of being hand-written event
// lists. Both combinators copy; the inputs are never mutated, so one
// building-block schedule can feed many compositions.

// Merge overlays schedules on one clock: the union of all events. Events
// sharing a timestamp fire in argument order (the injector's sort is
// stable), so Merge(a, b) lets a's same-tick events take effect before
// b's.
func Merge(parts ...Schedule) Schedule {
	var out Schedule
	for _, p := range parts {
		out.Events = append(out.Events, p.Events...)
	}
	return out
}

// Jitter returns a copy of s with every event's timestamp delayed by a
// uniform draw from [0, maxDelta], drawn in timestamp order from rng —
// seeded, so a given (schedule, seed) pair jitters identically on every
// deployment and at any worker count. Delays are forward-only and
// order-preserving: an event never fires before its scheduled time, and an
// event never overtakes one that preceded it (a heal cannot jump in front
// of its partition, a restart in front of its crash) — a later event's
// jittered time is clamped up to the latest jittered time before it.
func Jitter(s Schedule, maxDelta uint64, rng *xrand.RNG) Schedule {
	out := Schedule{Events: make([]Event, len(s.Events))}
	copy(out.Events, s.Events)
	if maxDelta == 0 || rng == nil || len(out.Events) == 0 {
		return out
	}
	// Draw in the injector's replay order (stable sort by timestamp), so
	// the stream of draws an event consumes does not depend on how the
	// schedule happens to be listed.
	order := make([]int, len(out.Events))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return out.Events[order[a]].At < out.Events[order[b]].At })
	var floor uint64
	for _, i := range order {
		at := out.Events[i].At + rng.Uint64n(maxDelta+1)
		if at < floor {
			at = floor
		}
		out.Events[i].At = at
		floor = at
	}
	return out
}
