package experiments

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"testing"
)

// renderRows covers what the renderers distinguish: measurement-off and
// measured cells, sharded vectors, NaN and +Inf summaries, and empty and
// multi-route histograms.
func renderRows() []SweepRow {
	nan := math.NaN()
	return []SweepRow{
		{
			Backend: "pb", Preset: "none", Proxies: 2, Groups: 1, Persist: "mem",
			Workload: "-", ReadFrac: nan, Reps: 8, Compromised: 7,
			MeanLifetime: 12.3456789, CI95: 0.000123456,
			P50: nan, P99: nan, P999: nan,
			Routes: map[string]uint64{"server-indirect": 3, "all-proxies": 4},
		},
		{
			Backend: "smr", Preset: "rolling-partition", DropRate: 0.05, Proxies: 3, Groups: 2,
			Detector: true, OmegaIndirect: 2, Persist: "wal", FsyncEvery: 4, Jitter: 1,
			Workload: "zipf-poisson", ReadFrac: 1.0 / 3, Leases: true, Reps: 2,
			MeanLifetime: math.Inf(1), CI95: 0, Availability: 0.987654321, AvailabilityCI95: 0.0123,
			ShardAvailability: []float64{1, 0.9753},
			P50:               0.51234, P99: 249.999, P999: 250,
			ShardP99: []float64{1.25, 250},
		},
	}
}

// render is everything a sweep subcommand prints or writes for rows: the
// table, the CSV and the cell labels of -metrics-out.
func render(cols Columns, rows []SweepRow) []byte {
	var b bytes.Buffer
	b.WriteString(cols.Format(rows))
	if err := cols.WriteCSV(&b, rows); err != nil {
		panic(err)
	}
	for _, r := range rows {
		fmt.Fprintln(&b, cols.label(r))
	}
	return b.Bytes()
}

// TestSweepRenderingMatchesGolden pins both renderings byte for byte. The
// golden files were written by the separate campaign and fault-sweep
// renderers this one replaced, from the same rows.
func TestSweepRenderingMatchesGolden(t *testing.T) {
	for _, tc := range []struct {
		file string
		cols Columns
	}{
		{"testdata/render_campaign.golden", campaignColumns},
		{"testdata/render_faults.golden", faultColumns},
	} {
		want, err := os.ReadFile(tc.file)
		if err != nil {
			t.Fatal(err)
		}
		if got := render(tc.cols, renderRows()); !bytes.Equal(got, want) {
			t.Errorf("%s differs:\n got:\n%s\nwant:\n%s", tc.file, got, want)
		}
	}
}
