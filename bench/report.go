package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os/exec"
	"runtime"
	"runtime/debug"
	"strings"
)

// metric is one named measurement with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// check is one output check; a failed check fails the run.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// workloadReport is everything measured on one workload. EndToEnd comes
// from the untraced run only, PerLayer from the traced run only.
type workloadReport struct {
	Name       string            `json:"name"`
	Why        string            `json:"why"`
	GOMAXPROCS int               `json:"gomaxprocs"`
	EndToEnd   map[string]metric `json:"end_to_end,omitempty"`
	Attempted  int               `json:"attempted,omitempty"`
	Failed     int               `json:"failed,omitempty"`
	MeasuredS  float64           `json:"measured_s,omitempty"`
	Tail       *tail             `json:"latency_tail,omitempty"`
	MaxLateMs  float64           `json:"max_late_ms,omitempty"`
	TempFS     string            `json:"temp_fs,omitempty"`
	PerLayer   map[string]metric `json:"per_layer,omitempty"`
	TracedOps  int               `json:"traced_ops,omitempty"`
	Checks     []check           `json:"checks"`
}

func (r *workloadReport) correct() bool {
	for _, c := range r.Checks {
		if !c.OK {
			return false
		}
	}
	return true
}

func (r *workloadReport) check(name string, err error) {
	c := check{Name: name, OK: err == nil}
	if err != nil {
		c.Detail = err.Error()
	}
	r.Checks = append(r.Checks, c)
}

// report is the one JSON document a run prints.
type report struct {
	Go         string           `json:"go"`
	NumCPU     int              `json:"nproc"`
	GOMAXPROCS int              `json:"gomaxprocs"`
	Seed       uint64           `json:"seed"`
	Seconds    float64          `json:"seconds"`
	WarmupS    float64          `json:"warmup_s"`
	Commit     string           `json:"commit"`
	Smoke      bool             `json:"smoke,omitempty"`
	Correct    bool             `json:"correct"`
	Workloads  []workloadReport `json:"workloads"`
}

func newReport(o options) report {
	return report{
		Go: runtime.Version(), NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Seed: o.seed, Seconds: o.window.Seconds(), WarmupS: o.warmup.Seconds(),
		Commit: commit(), Smoke: o.smoke, Correct: true,
	}
}

// commit is the revision the binary was built from: stamped by the
// toolchain, else asked of git, else "unknown" (a checkout without git).
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		return strings.TrimSpace(string(out))
	}
	return "unknown"
}

func (r *report) add(w workloadReport) {
	r.Workloads = append(r.Workloads, w)
	r.Correct = r.Correct && w.correct()
}

func (r *report) write(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// resultLine is the driver's contract: the last line of standard output of
// a single-workload run, carrying the end-to-end metrics of an untraced run
// or the per-layer metrics of a traced one.
func resultLine(w workloadReport, traced bool) string {
	metrics := make(map[string]metric)
	attempted, failed := w.Attempted, w.Failed
	if traced {
		metrics, attempted, failed = w.PerLayer, w.TracedOps, 0
	} else {
		for _, def := range endToEndDefs {
			if def.contract {
				metrics[def.name] = w.EndToEnd[def.name]
			}
		}
	}
	b, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{w.correct(), attempted, failed, metrics})
	if err != nil {
		panic(fmt.Sprintf("bench: marshal result line: %v", err))
	}
	return string(b)
}
