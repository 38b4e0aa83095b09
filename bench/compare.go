package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
	"text/tabwriter"
)

// A result file is what one or more runs printed, one after the other:
// `for s in 1 2 3; do go run ./bench -seed $s; done > old.json`. The
// driver's result lines between the reports are skipped.

// readRuns returns, per workload and end-to-end metric, the values of every
// run in the file, in file order.
func readRuns(path string) (map[string]map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := make(map[string]map[string][]float64)
	dec := json.NewDecoder(f)
	for {
		var r report
		if err := dec.Decode(&r); errors.Is(err, io.EOF) {
			break
		} else if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		for _, w := range r.Workloads {
			if out[w.Name] == nil {
				out[w.Name] = make(map[string][]float64)
			}
			for name, m := range w.EndToEnd {
				out[w.Name][name] = append(out[w.Name][name], m.Value)
			}
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no end-to-end results", path)
	}
	return out, nil
}

// Verdicts of one (workload, metric) pair.
const (
	verdictOK         = "ok"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved"
)

// verdict applies def's bound to the runs of one metric on one workload.
// The new median may be worse than the old one by the bound and no more.
// When either side's own run-to-run spread is wider than the bound the
// medians cannot tell, and the pair is unresolved, unless every new run
// reads better than every old one.
func verdict(def metricDef, old, new []float64) string {
	oldMed, newMed := median(old), median(new)
	bound := def.rel * math.Abs(oldMed)
	if def.abs > bound {
		bound = def.abs
	}
	worse := newMed - oldMed
	if def.higher {
		worse = -worse
	}
	wide := false
	for _, side := range [][]float64{old, new} {
		if spread(side)*math.Abs(median(side)) > bound {
			wide = true
		}
	}
	switch {
	case wide && allBetter(def, old, new):
		return verdictOK
	case wide:
		return verdictUnresolved
	case worse > bound:
		return verdictRegressed
	}
	return verdictOK
}

// allBetter reports whether every new run reads better than every old one.
func allBetter(def metricDef, old, new []float64) bool {
	for _, o := range old {
		for _, n := range new {
			if def.higher && n <= o || !def.higher && n >= o {
				return false
			}
		}
	}
	return true
}

// compareFiles prints one row per workload with a verdict per end-to-end
// metric, and reports whether any pair regressed.
func compareFiles(out io.Writer, oldPath, newPath string) (regressed bool, err error) {
	old, err := readRuns(oldPath)
	if err != nil {
		return false, err
	}
	new, err := readRuns(newPath)
	if err != nil {
		return false, err
	}
	tw := tabwriter.NewWriter(out, 0, 0, 2, ' ', 0)
	header := []string{"workload"}
	for _, def := range endToEndDefs {
		header = append(header, def.name)
	}
	fmt.Fprintln(tw, strings.Join(header, "\t"))
	for _, w := range workloads {
		if old[w.name] == nil || new[w.name] == nil {
			continue
		}
		row := []string{w.name}
		for _, def := range endToEndDefs {
			o, n := old[w.name][def.name], new[w.name][def.name]
			if len(o) == 0 || len(n) == 0 {
				row = append(row, "-")
				continue
			}
			v := verdict(def, o, n)
			regressed = regressed || v == verdictRegressed
			row = append(row, fmt.Sprintf("%s (%.4g→%.4g %s, n=%d/%d)", v, median(o), median(n), def.unit, len(o), len(n)))
		}
		fmt.Fprintln(tw, strings.Join(row, "\t"))
	}
	return regressed, tw.Flush()
}
