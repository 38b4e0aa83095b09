package main

import (
	"fmt"
	"sort"
	"sync"
	"syscall"
	"time"
)

// sample is one request of a measured window. Times are offsets from the
// window's start; in a closed loop a request is due when it is sent.
type sample struct {
	due, sent, done time.Duration
	ok              bool
}

// window is what one measured (or warm-up) interval produced.
type window struct {
	samples []sample
	elapsed time.Duration
	cpu     time.Duration   // process user+sys time over the interval
	crashes []time.Duration // when each injected crash happened
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// runWindow drives every client of d for dur and returns what happened.
// inputs[c] is client c's pre-generated request sequence; a client stops
// at dur or when its inputs run out. A positive rate makes the loop open:
// requests are due on one schedule of rate slots per second that the
// clients share, whatever the system does. With faults set the leader is crashed
// and restarted four times along the way.
func (d *deployment) runWindow(inputs [][]request, dur time.Duration, rate int, faults bool) (window, error) {
	var (
		wg      sync.WaitGroup
		perC    = make([][]sample, len(d.clients))
		win     window
		faultEr error
	)
	interval := time.Duration(0)
	if rate > 0 {
		interval = time.Second / time.Duration(rate)
	}
	cpu0, start := cpuTime(), time.Now()
	for c := range d.clients {
		perC[c] = make([]sample, 0, len(inputs[c]))
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i, rq := range inputs[c] {
				if interval == 0 {
					d.think(rq)
				}
				now := time.Since(start)
				due := now
				if interval > 0 {
					// Client c sends every len(clients)-th request of the
					// one schedule, each due somewhere in its own slot: on
					// the dot, every request would meet the 5 ms heartbeats
					// at the same phase for a whole run, and at another
					// phase the next run.
					due = time.Duration((float64(i*len(d.clients)+c) + rq.jitter) * float64(interval))
					if due > now {
						time.Sleep(due - now)
						now = time.Since(start)
					}
				}
				if due >= dur {
					return
				}
				ok := d.clients[c].do(rq)
				perC[c] = append(perC[c], sample{due: due, sent: now, done: time.Since(start), ok: ok})
			}
		}(c)
	}
	if faults {
		win.crashes, faultEr = d.crashCycles(start, dur)
	}
	wg.Wait()
	win.elapsed, win.cpu = time.Since(start), cpuTime()-cpu0
	for _, s := range perC {
		win.samples = append(win.samples, s...)
	}
	return win, faultEr
}

// think pauses a closed-loop client before rq for a seeded random share of
// the injected link delay; with no delay there is no pause. Two clients
// that send back to back over a delayed link fall, from one run to the next,
// into one of two modes 10% apart: in step, where their CPU bursts collide at
// every hop, or out of step, where they never do. The pause keeps the phase
// moving, so a run measures the mixture instead of whichever mode it fell
// into. Latency is timed from the send, after the pause.
func (d *deployment) think(rq request) {
	if delay := d.sys.Net().LinkDelay(); delay > 0 {
		time.Sleep(time.Duration(rq.jitter * float64(delay)))
	}
}

// crashCycles splits dur into four cycles and, in each, crashes the
// current leader a quarter of the way in and restarts it at three
// quarters. It returns the crash times as offsets from start.
func (d *deployment) crashCycles(start time.Time, dur time.Duration) ([]time.Duration, error) {
	const cycles = 4
	cycle := dur / cycles
	var crashes []time.Duration
	for c := 0; c < cycles; c++ {
		time.Sleep(time.Until(start.Add(time.Duration(c)*cycle + cycle/4)))
		leader, ok := d.leader(nil)
		if !ok {
			return crashes, fmt.Errorf("cycle %d: no replica claims to lead", c)
		}
		crashes = append(crashes, time.Since(start))
		if err := d.sys.CrashServer(leader); err != nil {
			return crashes, err
		}
		time.Sleep(time.Until(start.Add(time.Duration(c)*cycle + 3*cycle/4)))
		if err := d.sys.RestartServer(leader); err != nil {
			return crashes, err
		}
	}
	return crashes, nil
}

// tail is the highest percentile a window's sample count supports.
type tail struct {
	Percentile float64 `json:"percentile"`
	Ms         float64 `json:"ms"`
	Samples    int     `json:"samples"`
}

// endToEnd is the seven end-to-end metrics of one workload, plus what is
// printed beside them without a bound.
type endToEnd struct {
	throughput, p50, p99, errorRate, cpuPerOp, outage float64
	attempted, failed                                 int
	tail                                              tail
	maxLate                                           time.Duration
	measured                                          time.Duration
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// summarize turns a measured window into the end-to-end metrics.
func summarize(win window) endToEnd {
	e := endToEnd{attempted: len(win.samples), measured: win.elapsed}
	var lat []float64
	for _, s := range win.samples {
		if late := s.sent - s.due; late > e.maxLate {
			e.maxLate = late
		}
		if !s.ok {
			e.failed++
			continue
		}
		lat = append(lat, ms(s.done-s.due))
	}
	sort.Float64s(lat)
	ok := float64(len(lat))
	e.throughput = ok / win.elapsed.Seconds()
	e.p50, e.p99 = percentile(lat, 50), percentile(lat, 99)
	if p := highestPercentile(len(lat)); p > 0 {
		e.tail = tail{Percentile: p, Ms: percentile(lat, p), Samples: len(lat)}
	}
	if e.attempted > 0 {
		e.errorRate = float64(e.failed) / float64(e.attempted)
	}
	if ok > 0 {
		e.cpuPerOp = us(win.cpu) / ok
	}
	e.outage = outage(win)
	return e
}

// outage is the median, over the injected crashes, of the time from the
// crash to the first successful completion of a request that was due after
// it; 0 without crashes. A crash no later request survived counts as the
// rest of the window.
func outage(win window) float64 {
	var outs []float64
	for _, crash := range win.crashes {
		first := win.elapsed
		for _, s := range win.samples {
			if s.ok && s.due > crash && s.done < first {
				first = s.done
			}
		}
		outs = append(outs, ms(first-crash))
	}
	return median(outs)
}
