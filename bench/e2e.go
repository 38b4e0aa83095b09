package main

import (
	"errors"
	"fmt"
	"syscall"
	"time"
)

// metricDef names one end-to-end metric and the bound -compare holds it
// to: it may worsen by rel of the old median, or by abs when that is more.
type metricDef struct {
	name, unit string
	higher     bool // higher is better
	rel, abs   float64
	// contract marks the metrics every workload reports and none reports
	// as 0, which BENCHMARK.json can therefore list; see the README.
	contract bool
}

var endToEndDefs = []metricDef{
	{name: "throughput_ops_s", unit: "ops/s", higher: true, rel: 0.10, contract: true},
	{name: "latency_p50_ms", unit: "ms", rel: 0.10, contract: true},
	{name: "latency_p99_ms", unit: "ms", rel: 0.15, contract: true},
	{name: "error_rate", unit: "ratio", abs: 0.01},
	{name: "cpu_us_per_op", unit: "us", rel: 0.10, contract: true},
	{name: "outage_ms", unit: "ms", rel: 0.10},
	{name: "setup_s", unit: "s", rel: 0.25, abs: 0.1, contract: true},
}

// A run sets the deployment up at least minSetups times and goes on, up to
// maxSetups, until setupBudget has gone into it: a set-up of a tenth of a
// second needs more repeats for a steady median than one of two seconds
// can afford. setup_s is the median.
const (
	minSetups   = 3
	maxSetups   = 7
	setupBudget = 1500 * time.Millisecond
)

func deployFull(w workload, o options) (*deployment, error) {
	return deploy(w, o, deployOpts{nodes: 3, clients: loaders})
}

// repeatSetups sets the workload up and tears it down again until there
// are enough set-up times for a median, first being the time of the
// deployment the run measured. The repeats come after the measured window
// on purpose: a process starts packed on one CPU as often as not (see
// workload.oneCPU) and only a saturated second or two spreads it, which
// doubles a set-up that takes a tenth of a second and says nothing about
// the code.
func repeatSetups(w workload, o options, first time.Duration) (float64, error) {
	times, spent := []float64{first.Seconds()}, first
	for len(times) < maxSetups && (len(times) < minSetups || spent < setupBudget) {
		d, err := deployFull(w, o)
		if err != nil {
			return 0, err
		}
		d.stop()
		times, spent = append(times, d.setup.Seconds()), spent+d.setup
	}
	return median(times), nil
}

// runEndToEnd measures one workload with tracing off and fills rep's
// end-to-end half: set-up, warm-up, one measured window, the output checks,
// then the set-up repeats. A smoke run, which is after the checks only,
// skips the repeats.
func runEndToEnd(w workload, o options, rep *workloadReport) error {
	d, err := deployFull(w, o)
	if err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	defer d.stop()
	if w.wal {
		rep.TempFS = fsType(d.walDir)
	}

	// Every input exists before the first timed request.
	warm, run := make([][]request, loaders), make([][]request, loaders)
	for c := range run {
		if w.openRate > 0 {
			warm[c] = genInputs(w, o.seed, "warm", c, loaders, int(o.warmup.Seconds()*float64(w.openRate))/loaders+1)
			run[c] = genInputs(w, o.seed, "run", c, loaders, int(o.window.Seconds()*float64(w.openRate))/loaders+1)
		} else {
			warm[c] = genInputs(w, o.seed, "warm", c, loaders, inputBudget(w, o.warmup))
			run[c] = genInputs(w, o.seed, "run", c, loaders, inputBudget(w, o.window))
		}
	}
	d.runWindow(warm, o.warmup, w.openRate, false)
	win, err := d.runWindow(run, o.window, w.openRate, w.openRate > 0)
	if err != nil {
		return fmt.Errorf("fault schedule: %w", err)
	}

	e := summarize(win)
	rep.Attempted, rep.Failed, rep.MeasuredS = e.attempted, e.failed, e.measured.Seconds()
	rep.MaxLateMs = ms(e.maxLate)
	if e.tail.Percentile > 0 {
		rep.Tail = &e.tail
	}
	rep.check("no_failures", errIf(w.openRate == 0 && e.failed > 0,
		"%d of %d requests failed on a fault-free workload, last: %v", e.failed, e.attempted, d.lastErr()))
	d.sys.Net().SetLinkDelay(0)
	d.outputChecks(rep)
	d.stop()

	setupS := d.setup.Seconds()
	if !o.smoke {
		if setupS, err = repeatSetups(w, o, d.setup); err != nil {
			return fmt.Errorf("set-up repeat: %w", err)
		}
	}
	values := map[string]float64{
		"throughput_ops_s": e.throughput, "latency_p50_ms": e.p50, "latency_p99_ms": e.p99,
		"error_rate": e.errorRate, "cpu_us_per_op": e.cpuPerOp, "outage_ms": e.outage,
		"setup_s": setupS,
	}
	rep.EndToEnd = make(map[string]metric)
	for _, def := range endToEndDefs {
		if def.name == "outage_ms" && w.openRate == 0 {
			continue // no fault, no outage
		}
		rep.EndToEnd[def.name] = metric{values[def.name], def.unit}
	}
	return nil
}

func (d *deployment) lastErr() error {
	var errs []error
	for _, c := range d.clients {
		errs = append(errs, c.lastErr)
	}
	return errors.Join(errs...)
}

// outputChecks are the checks every run ends with: no response ever
// contradicted its client's own writes, every key reads back as its last
// acknowledged value (or one issued later whose outcome is unknown), the
// live replicas agree on how much they executed, and, with a WAL, nothing
// acknowledged is lost when the whole cluster loses power.
func (d *deployment) outputChecks(rep *workloadReport) {
	wrong := 0
	for _, c := range d.clients {
		wrong += c.wrong
	}
	rep.check("responses", errIf(wrong > 0, "%d responses contradicted the client's own writes, last: %v", wrong, d.lastErr()))
	rep.check("readback", d.readback("readback"))
	rep.check("converged", d.converged())
	if d.w.wal {
		err := d.sys.CrashAll()
		if err == nil {
			err = d.sys.RestartAll()
		}
		if err == nil {
			// Every replica recovers from its own disk as a backup; one
			// of them has to notice the silence and take over first.
			err = waitFor(5*time.Second, "a primary after the blackout", func() bool { _, ok := d.leader(nil); return ok })
		}
		if err == nil {
			err = d.readback("recovered")
		}
		rep.check("durable", err)
	}
}

// readback reads every key through the client that owns it.
func (d *deployment) readback(tag string) error {
	for c, cl := range d.clients {
		for k := c; k < d.w.keys; k += len(d.clients) {
			if !cl.do(request{id: fmt.Sprintf("%s-%s-%d", d.w.name, tag, k), body: getBody(k), read: true, key: k}) {
				return cl.lastErr
			}
		}
	}
	return nil
}

func (d *deployment) converged() error {
	var seen []uint64
	err := waitFor(5*time.Second, "the replicas to converge", func() bool {
		seen = seen[:0]
		for _, s := range d.sys.Servers() {
			seen = append(seen, s.Executed())
		}
		for _, e := range seen {
			if e != seen[0] {
				return false
			}
		}
		return true
	})
	if err != nil {
		return fmt.Errorf("%w: executed %v", err, seen)
	}
	return nil
}

// fsType names the filesystem dir lives on, for the workload whose latency
// is fsync: tmpfs and a disk are different benchmarks.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0xEF53:
		return "ext2/3/4"
	case 0x01021994:
		return "tmpfs"
	case 0x794c7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	}
	return fmt.Sprintf("0x%x", uint32(st.Type))
}
