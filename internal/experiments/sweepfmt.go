package experiments

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// column is one rendered field of a sweep row.
type column struct {
	header string
	width  int // table padding; 0 on the last table column and in CSV
	format func(SweepRow) string
}

// Columns is one rendering of sweep rows: the table and CSV column lists,
// and the grid coordinates that label a cell in errors and metrics dumps.
type Columns struct{ table, csv, ident []column }

// The columns shared by both renderings.
var (
	colBackend  = column{"backend", 8, func(r SweepRow) string { return r.Backend }}
	colProxies  = column{"proxies", 8, func(r SweepRow) string { return strconv.Itoa(r.Proxies) }}
	colGroups   = column{"groups", 7, func(r SweepRow) string { return strconv.Itoa(r.Groups) }}
	colWorkload = column{"workload", 15, func(r SweepRow) string { return r.Workload }}
	colReadFrac = column{"readfrac", 9, func(r SweepRow) string { return fmt.Sprintf("%g", r.ReadFrac) }}
	colLeases   = column{"leases", 7, func(r SweepRow) string { return strconv.FormatBool(r.Leases) }}
	colDetector = column{"detector", 9, func(r SweepRow) string { return strconv.FormatBool(r.Detector) }}
	colPace     = column{"pace", 6, func(r SweepRow) string { return strconv.FormatUint(r.OmegaIndirect, 10) }}
	colPreset   = column{"preset", 18, func(r SweepRow) string { return r.Preset }}
	colDrop     = column{"drop", 6, func(r SweepRow) string { return fmt.Sprintf("%g", r.DropRate) }}
	colPersist  = column{"persist", 8, func(r SweepRow) string { return r.Persist }}
	colFsync    = column{"fsync", 6, func(r SweepRow) string { return strconv.Itoa(r.FsyncEvery) }}
	colJitter   = column{"jitter", 7, func(r SweepRow) string { return strconv.FormatUint(r.Jitter, 10) }}

	tableOutcome = []column{
		{"reps", 6, func(r SweepRow) string { return strconv.FormatUint(r.Reps, 10) }},
		{"compromised", 12, func(r SweepRow) string { return strconv.FormatUint(r.Compromised, 10) }},
		{"meanLifetime", 14, func(r SweepRow) string { return fmt.Sprintf("%.6g", r.MeanLifetime) }},
		{"ci95", 10, func(r SweepRow) string { return fmt.Sprintf("%.3g", r.CI95) }},
		{"availability", 13, func(r SweepRow) string { return fmt.Sprintf("%.4g", r.Availability) }},
		{"p50ms", 7, func(r SweepRow) string { return formatOptFloat(r.P50) }},
		{"p99ms", 7, func(r SweepRow) string { return formatOptFloat(r.P99) }},
		{"p999ms", 7, func(r SweepRow) string { return formatOptFloat(r.P999) }},
		{"shards", 18, func(r SweepRow) string { return formatOptFloats(r.ShardAvailability) }},
		{"shardp99", 18, func(r SweepRow) string { return formatOptFloats(r.ShardP99) }},
		{"routes", 0, func(r SweepRow) string { return formatRoutes(r.Routes) }},
	}
	// csvTail is every CSV column from the workload on; empty cells stand
	// for NaN and for the "-" of measurement-off cells.
	csvTail = []column{
		{"workload", 0, func(r SweepRow) string {
			if r.Workload == "-" {
				return ""
			}
			return r.Workload
		}},
		{"read_frac", 0, func(r SweepRow) string { return formatFloat(r.ReadFrac) }},
		{"leases", 0, colLeases.format},
		{"reps", 0, tableOutcome[0].format},
		{"compromised", 0, tableOutcome[1].format},
		{"mean_lifetime", 0, func(r SweepRow) string { return formatFloat(r.MeanLifetime) }},
		{"ci95", 0, func(r SweepRow) string { return formatFloat(r.CI95) }},
		{"availability", 0, func(r SweepRow) string { return formatFloat(r.Availability) }},
		{"availability_ci95", 0, func(r SweepRow) string { return formatFloat(r.AvailabilityCI95) }},
		{"p50_ms", 0, func(r SweepRow) string { return formatFloat(r.P50) }},
		{"p99_ms", 0, func(r SweepRow) string { return formatFloat(r.P99) }},
		{"p999_ms", 0, func(r SweepRow) string { return formatFloat(r.P999) }},
		{"groups", 0, colGroups.format},
		{"shard_availability", 0, func(r SweepRow) string { return formatFloatList(r.ShardAvailability) }},
		{"shard_p99_ms", 0, func(r SweepRow) string { return formatFloatList(r.ShardP99) }},
		{"route_server_indirect", 0, func(r SweepRow) string { return strconv.FormatUint(r.Routes["server-indirect"], 10) }},
		{"route_server_launchpad", 0, func(r SweepRow) string { return strconv.FormatUint(r.Routes["server-launchpad"], 10) }},
		{"route_all_proxies", 0, func(r SweepRow) string { return strconv.FormatUint(r.Routes["all-proxies"], 10) }},
	}

	// campaignColumns renders a campaign grid: the paper's axes, with "-"
	// for the read share of cells that measured nothing.
	campaignColumns = Columns{
		table: concat([]column{colBackend, colProxies, colGroups, colDetector, colPace, colWorkload,
			{"readfrac", 9, func(r SweepRow) string { return formatOptFloat(r.ReadFrac) }}, colLeases}, tableOutcome),
		csv: concat([]column{colBackend, colProxies, colDetector,
			{"omega_indirect", 0, colPace.format}}, csvTail),
		ident: []column{colBackend, colProxies, colGroups, colDetector, colPace, colWorkload, colReadFrac, colLeases},
	}
	// faultColumns renders a fault grid: the network and durability axes.
	faultColumns = Columns{
		table: concat(faultIdentity, tableOutcome),
		csv: concat([]column{colBackend, colPreset,
			{"drop_rate", 0, func(r SweepRow) string { return formatFloat(r.DropRate) }},
			colProxies, colPersist, {"fsync_every", 0, colFsync.format}, colJitter}, csvTail),
		ident: faultIdentity,
	}
	faultIdentity = []column{colBackend, colPreset, colDrop, colProxies, colGroups, colPersist, colFsync, colJitter, colWorkload, colReadFrac, colLeases}
)

func concat(a, b []column) []column { return append(a[:len(a):len(a)], b...) }

// Format renders rows as an aligned text table. The p50/p99/p999 columns
// are virtual-latency percentiles in milliseconds ("-" when the cell
// observed no requests); shardp99 breaks p99 down per replica group.
func (c Columns) Format(rows []SweepRow) string {
	var b strings.Builder
	line := func(text func(column) string) {
		for i, col := range c.table {
			if i > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, "%-*s", col.width, text(col))
		}
		b.WriteByte('\n')
	}
	line(func(col column) string { return col.header })
	for _, r := range rows {
		line(func(col column) string { return col.format(r) })
	}
	return b.String()
}

// WriteCSV emits rows as CSV with a header row. shard_availability and
// shard_p99_ms hold per-group vectors, semicolon-joined in group order
// (empty on single-group cells).
func (c Columns) WriteCSV(w io.Writer, rows []SweepRow) error {
	fields := make([]string, len(c.csv))
	for i, col := range c.csv {
		fields[i] = col.header
	}
	if _, err := fmt.Fprintln(w, strings.Join(fields, ",")); err != nil {
		return err
	}
	for _, r := range rows {
		for i, col := range c.csv {
			fields[i] = col.format(r)
		}
		if _, err := fmt.Fprintln(w, strings.Join(fields, ",")); err != nil {
			return err
		}
	}
	return nil
}

// CellMetrics pairs every row that carries a metrics snapshot with its cell
// label, for WriteCellMetricsJSON.
func (c Columns) CellMetrics(rows []SweepRow) []CellMetrics {
	cells := make([]CellMetrics, 0, len(rows))
	for _, r := range rows {
		if r.Metrics != nil {
			cells = append(cells, CellMetrics{Cell: c.label(r), Snapshot: *r.Metrics})
		}
	}
	return cells
}

// label names a cell by its grid coordinates ("backend=pb proxies=2 ...").
func (c Columns) label(r SweepRow) string {
	parts := make([]string, len(c.ident))
	for i, col := range c.ident {
		parts[i] = col.header + "=" + col.format(r)
	}
	return strings.Join(parts, " ")
}

// formatOptFloat renders a millisecond latency column ("-" for NaN).
func formatOptFloat(ms float64) string {
	if math.IsNaN(ms) {
		return "-"
	}
	return fmt.Sprintf("%.3g", ms)
}

// formatOptFloats renders a per-group vector semicolon-joined ("-" when
// the cell ran single-group or measured nothing).
func formatOptFloats(vs []float64) string {
	if len(vs) == 0 {
		return "-"
	}
	parts := make([]string, len(vs))
	for i, v := range vs {
		parts[i] = formatOptFloat(v)
	}
	return strings.Join(parts, ";")
}

// formatRoutes renders a route histogram compactly and deterministically.
func formatRoutes(routes map[string]uint64) string {
	if len(routes) == 0 {
		return "-"
	}
	keys := make([]string, 0, len(routes))
	for k := range routes {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, 0, len(keys))
	for _, k := range keys {
		parts = append(parts, fmt.Sprintf("%s:%d", k, routes[k]))
	}
	return strings.Join(parts, " ")
}
