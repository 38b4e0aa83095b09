// Command bench is the request-path benchmark: it drives the live FORTRESS
// stack (client → proxy tier → replica group → store) through its public
// functions only, on six workloads, and prints every end-to-end and
// per-layer metric by name and unit as one JSON document, after checking
// that what the system returned and kept is correct. See README.md.
//
//	go run ./bench -seed 1                  # every workload, both runs
//	go run ./bench -workload pb_write -trace 0 -seconds 12
//	go run ./bench -smoke                   # every workload, 1 s, checks only
//	go run ./bench -compare old.json new.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"
)

// options are the knobs of one run; every workload gets the same ones.
type options struct {
	seed     uint64
	window   time.Duration // the measured window
	warmup   time.Duration // discarded, a fifth of the window
	tmp      string        // parent of WAL directories, inside the checkout
	traceOut string
	smoke    bool
}

func main() {
	var (
		name     = flag.String("workload", "", "run only this workload (default: all six)")
		seed     = flag.Uint64("seed", 1, "seed of the generated inputs, also passed as Config.Seed")
		seconds  = flag.Float64("seconds", 15, "measured window of every workload, in seconds; warm-up is a fifth of it")
		trace    = flag.String("trace", "both", "0: the untraced end-to-end run, 1: the traced per-layer run, both: one after the other")
		traceOut = flag.String("trace-out", "", "write the traced run's spans to this file as JSON")
		procs    = flag.Int("procs", 2, "GOMAXPROCS, pinned because go1.24 ignores container CPU quotas")
		smoke    = flag.Bool("smoke", false, "every workload for 1 s, output checks only")
		compare  = flag.Bool("compare", false, "compare two result files: bench -compare old.json new.json")
		tmp      = flag.String("tmp", ".bench_build", "directory for WAL files, created if absent")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("usage: bench -compare old.json new.json"))
		}
		regressed, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if regressed {
			os.Exit(1)
		}
		return
	}
	if *trace != "0" && *trace != "1" && *trace != "both" {
		fatal(fmt.Errorf("-trace must be 0, 1 or both, not %q", *trace))
	}
	if *smoke {
		*seconds, *trace = 1, "0"
	}
	if *seconds <= 0 {
		fatal(fmt.Errorf("-seconds must be positive"))
	}
	runtime.GOMAXPROCS(*procs)
	o := options{
		seed: *seed, tmp: *tmp, traceOut: *traceOut, smoke: *smoke,
		window: time.Duration(*seconds * float64(time.Second)),
	}
	o.warmup = o.window / 5

	selected := workloads
	if *name != "" {
		w, ok := findWorkload(*name)
		if !ok {
			fatal(fmt.Errorf("unknown workload %q", *name))
		}
		selected = []workload{w}
	}

	rep := newReport(o)
	var spans []span
	for _, w := range selected {
		wr, sp, err := runWorkload(w, o, *trace)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", w.name, err))
		}
		spans = append(spans, sp...)
		rep.add(wr)
	}
	if o.traceOut != "" {
		b, err := json.Marshal(spans)
		if err == nil {
			err = os.WriteFile(o.traceOut, b, 0o644)
		}
		if err != nil {
			fatal(fmt.Errorf("write spans: %w", err))
		}
	}
	if err := rep.write(os.Stdout); err != nil {
		fatal(err)
	}
	// The driver's contract: one workload, one kind of run, one last line.
	if *name != "" && *trace != "both" {
		fmt.Println(resultLine(rep.Workloads[0], *trace == "1"))
	}
	if !rep.Correct {
		for _, w := range rep.Workloads {
			for _, c := range w.Checks {
				if !c.OK {
					fmt.Fprintf(os.Stderr, "bench: %s: check %s failed: %s\n", w.Name, c.Name, c.Detail)
				}
			}
		}
		os.Exit(1)
	}
}

// runWorkload makes the untraced run, the traced run or both of one
// workload, under the CPU confinement the workload asks for.
func runWorkload(w workload, o options, trace string) (workloadReport, []span, error) {
	wr := workloadReport{Name: w.name, Why: w.why, GOMAXPROCS: runtime.GOMAXPROCS(0)}
	if w.oneCPU {
		restore, err := confine(1)
		if err != nil {
			return wr, nil, err
		}
		defer restore()
		wr.GOMAXPROCS = 1
	}
	if trace != "1" {
		if err := runEndToEnd(w, o, &wr); err != nil {
			return wr, nil, err
		}
	}
	if trace == "0" {
		return wr, nil, nil
	}
	spans, err := runTraced(w, o, &wr)
	if err != nil {
		return wr, nil, fmt.Errorf("traced run: %w", err)
	}
	return wr, spans, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}
