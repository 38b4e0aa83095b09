package faults

import (
	"fmt"
	"time"
)

// Shape describes the deployment a preset schedule is built for.
type Shape struct {
	// Groups is the replica-group count; zero means the classic
	// single-group deployment.
	Groups int
	// Servers is the per-group server count n_s.
	Servers int
	// Proxies is the proxy count n_p.
	Proxies int
}

// groups resolves the zero value to one group.
func (s Shape) groups() int {
	if s.Groups < 1 {
		return 1
	}
	return s.Groups
}

// TotalServers is the global server count across all groups.
func (s Shape) TotalServers() int { return s.groups() * s.Servers }

// Preset is a named, parameterized schedule family: given a deployment shape
// (group, server and proxy counts) and a campaign horizon it produces the
// concrete schedule. Presets are what experiments.Sweep's preset axis and
// the `fortress faults` CLI select by name.
type Preset struct {
	// Name selects the preset on the CLI and labels sweep rows.
	Name string
	// Description is one line for CLI help.
	Description string
	// Build produces the schedule for a deployment of the given shape over
	// a campaign of horizon unit time-steps.
	Build func(shape Shape, horizon uint64) Schedule
}

// Presets returns the catalog, in presentation order.
func Presets() []Preset {
	return []Preset{
		{
			Name:        "none",
			Description: "pristine network — the no-faults baseline",
			Build: func(shape Shape, horizon uint64) Schedule {
				return Schedule{}
			},
		},
		{
			Name: "rolling-partition",
			Description: "isolate one server at a time from its peers for 2 steps, " +
				"rotating through the tier — replication and failover under a moving cut",
			Build: buildRollingPartition,
		},
		{
			Name: "quorum-partition",
			Description: "island a server quorum (majority, primary included) from the " +
				"proxy tier for the middle half of the horizon — requests cannot commit " +
				"until the cut heals",
			Build: buildQuorumPartition,
		},
		{
			Name: "proxy-outage",
			Description: "fault-crash the highest-indexed proxy for the middle half of " +
				"the horizon, then restart it — the tier shrinks and regrows",
			Build: buildProxyOutage,
		},
		{
			Name: "lossy",
			Description: "2% network-wide message drop for the middle half of the " +
				"horizon (drop sampling draws from per-directed-pair streams, so " +
				"outcomes reproduce bitwise at any worker count)",
			Build: buildLossy,
		},
		{
			Name: "blackout",
			Description: "whole-cluster power loss for the middle half of the horizon: " +
				"every server and proxy crashes at once and durable stores drop their " +
				"unsynced tail — WAL-backed deployments recover their state from disk on " +
				"restart, the in-memory default restarts empty and loses committed data",
			Build: buildBlackout,
		},
		{
			Name: "slow-disk",
			Description: "inject 20ms of synchronous storage latency on server 0's store " +
				"for the middle half of the horizon — fsync-per-append deployments feel " +
				"every write, batched-sync and in-memory ones shrug it off",
			Build: buildSlowDisk,
		},
		{
			Name: "shard-cut",
			Description: "island a quorum of the last replica group's servers from the " +
				"proxy tier for the middle half of the horizon — only that shard's slice " +
				"of the keyspace goes dark while every other group keeps committing; on " +
				"a single-group deployment it degenerates to quorum-partition",
			Build: buildShardCut,
		},
		{
			Name: "compound",
			Description: "compound disaster, composed with Merge: the quorum cut, the " +
				"lossy window and the proxy outage all on one clock",
			Build: func(shape Shape, horizon uint64) Schedule {
				return Merge(
					buildQuorumPartition(shape, horizon),
					buildLossy(shape, horizon),
					buildProxyOutage(shape, horizon),
				)
			},
		},
	}
}

// buildRollingPartition isolates one server at a time from its peers,
// rotating through the whole global index space.
func buildRollingPartition(shape Shape, horizon uint64) Schedule {
	var s Schedule
	total := shape.TotalServers()
	if total < 2 {
		return s
	}
	all := ServerAddrs(total)
	k := 0
	for t := uint64(1); t+2 < horizon; t += 4 {
		victim := []string{all[k%total]}
		rest := others(all, k%total)
		s = s.Append(Partition(t, victim, rest), Heal(t+2, victim, rest))
		k++
	}
	return s
}

// buildQuorumPartition islands a server majority — of the first group, on a
// sharded deployment — from the proxy tier for the middle half of the
// horizon.
func buildQuorumPartition(shape Shape, horizon uint64) Schedule {
	maj := shape.Servers/2 + 1
	quorum := ServerAddrs(maj)
	front := ProxyAddrs(shape.Proxies)
	from, to := middleHalf(horizon)
	return Schedule{}.Append(
		Partition(from, quorum, front),
		Heal(to, quorum, front),
	)
}

// buildProxyOutage crashes the highest-indexed proxy for the middle half of
// the horizon.
func buildProxyOutage(shape Shape, horizon uint64) Schedule {
	from, to := middleHalf(horizon)
	return Schedule{}.Append(
		CrashProxy(from, shape.Proxies-1),
		RestartProxy(to, shape.Proxies-1),
	)
}

// buildLossy turns a 2% drop rate on for the middle half of the horizon.
func buildLossy(shape Shape, horizon uint64) Schedule {
	from, to := middleHalf(horizon)
	return Schedule{}.Append(
		DropRate(from, 0.02),
		DropRate(to, 0),
	)
}

// buildBlackout power-fails the whole deployment for the middle half of the
// horizon.
func buildBlackout(shape Shape, horizon uint64) Schedule {
	from, to := middleHalf(horizon)
	return Schedule{}.Append(
		CrashAll(from),
		RestartAll(to),
	)
}

// buildSlowDisk stalls server 0's store by 20ms per sync for the middle half
// of the horizon.
func buildSlowDisk(shape Shape, horizon uint64) Schedule {
	from, to := middleHalf(horizon)
	return Schedule{}.Append(
		DiskStall(from, 0, 20*time.Millisecond),
		DiskStall(to, 0, 0),
	)
}

// buildShardCut islands a quorum of the LAST replica group's servers from
// the proxy tier for the middle half of the horizon. The last group (rather
// than group 0, which also absorbs keyless traffic and attack probes by
// routing convention) makes the isolation claim cleanest: the cut shard's
// availability collapses while every other shard — attack pressure
// included — stays at 1.0. With one group it is exactly quorum-partition.
func buildShardCut(shape Shape, horizon uint64) Schedule {
	g := shape.groups() - 1
	maj := shape.Servers/2 + 1
	quorum := GroupServerAddrs(g, shape.Servers)[:maj]
	front := ProxyAddrs(shape.Proxies)
	from, to := middleHalf(horizon)
	return Schedule{}.Append(
		Partition(from, quorum, front),
		Heal(to, quorum, front),
	)
}

// middleHalf returns the [from, to) window spanning the middle half of the
// horizon, degenerating gracefully on tiny horizons.
func middleHalf(horizon uint64) (from, to uint64) {
	from, to = horizon/4, 3*horizon/4
	if to <= from {
		to = from + 1
	}
	return from, to
}

// PresetByName looks a preset up by name.
func PresetByName(name string) (Preset, error) {
	for _, p := range Presets() {
		if p.Name == name {
			return p, nil
		}
	}
	return Preset{}, fmt.Errorf("faults: unknown preset %q", name)
}

// PresetNames returns the catalog names, in presentation order.
func PresetNames() []string {
	ps := Presets()
	out := make([]string, len(ps))
	for i, p := range ps {
		out[i] = p.Name
	}
	return out
}

// others returns all addresses except index i.
func others(addrs []string, i int) []string {
	out := make([]string, 0, len(addrs)-1)
	for j, a := range addrs {
		if j != i {
			out = append(out, a)
		}
	}
	return out
}
