package main

import (
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"fortress/internal/fortress"
	"fortress/internal/metrics"
	"fortress/internal/netsim"
	"fortress/internal/proxy"
	"fortress/internal/replica/pb"
	"fortress/internal/replica/store"
	"fortress/internal/service"
	"fortress/internal/sig"
)

// span is one timed call into a layer. Spans of one request share its id;
// parent names the span that caused this one, empty for the root.
type span struct {
	ID      string `json:"id"`
	Parent  string `json:"parent"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.EndNs - s.StartNs) }

// tracer keeps spans in memory; they are written out when the run ends.
type tracer struct {
	epoch time.Time
	spans []span
}

// root is the name of the span every request gets.
const root = "client.invoke"

// record times f as a span of request id. Anything but the root span is a
// replay made from outside the program after the request returned, so a
// child's interval follows its parent's and self time is a difference of
// durations (selfTime), not of intervals.
func (t *tracer) record(id, name string, f func()) {
	parent := root
	if name == root {
		parent = ""
	}
	start := time.Since(t.epoch)
	f()
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, StartNs: int64(start), EndNs: int64(time.Since(t.epoch))})
}

// sampleEvery is how often a traced request also gets its per-layer spans.
const sampleEvery = 8

// byRequest groups span durations by request id, then by span name.
func byRequest(spans []span) map[string]map[string]time.Duration {
	out := make(map[string]map[string]time.Duration)
	for _, s := range spans {
		if out[s.ID] == nil {
			out[s.ID] = make(map[string]time.Duration)
		}
		out[s.ID][s.Name] = s.dur()
	}
	return out
}

// selfTime is one request's span `of` minus its spans `minus`; ok is
// false when the request lacks any of them.
func selfTime(durs map[string]time.Duration, of string, minus ...string) (self time.Duration, ok bool) {
	self, ok = durs[of]
	for _, m := range minus {
		d, has := durs[m]
		ok = ok && has
		self -= d
	}
	return self, ok
}

// p50us is the median, in microseconds, of selfTime(of, minus...) over the
// requests that have those spans.
func p50us(reqs map[string]map[string]time.Duration, of string, minus ...string) float64 {
	var vals []float64
	for _, durs := range reqs {
		if d, ok := selfTime(durs, of, minus...); ok {
			vals = append(vals, us(d))
		}
	}
	return median(vals)
}

// sumLabels folds a registry snapshot into totals per instrument name
// with the {node=…} labels stripped: counters as they are, histograms as
// name#sum and name#count. A labelled counter also stays under its full
// name, for the one ratio that must come from a single node.
func sumLabels(s metrics.Snapshot) map[string]float64 {
	out := make(map[string]float64)
	base := func(name string) string {
		if i := strings.IndexByte(name, '{'); i >= 0 {
			return name[:i]
		}
		return name
	}
	for _, counters := range []map[string]uint64{s.Counters, s.Timing} {
		for name, v := range counters {
			out[base(name)] += float64(v)
			if base(name) != name {
				out[name] = float64(v)
			}
		}
	}
	for name, h := range s.Histograms {
		out[base(name)+"#sum"] += float64(h.Sum)
		out[base(name)+"#count"] += float64(h.Count)
	}
	return out
}

// counts accumulates registry deltas over the stretches of a run between
// begin and end, so that the per-layer replays in between are not counted
// as requests.
type counts struct {
	reg   *metrics.Registry
	from  map[string]float64
	total map[string]float64
}

func (c *counts) begin() { c.from = sumLabels(c.reg.Snapshot()) }

func (c *counts) end() {
	for name, v := range sumLabels(c.reg.Snapshot()) {
		c.total[name] += v - c.from[name]
	}
}

// probes are the bench-owned instances of each layer that sampled requests
// are replayed against.
type probes struct {
	d        *deployment
	serverKP *sig.KeyPair
	proxyKP  *sig.KeyPair
	verifier *sig.VerifierSet
	kv       *service.KV
	wal      *store.WAL // nil unless the workload journals
	walSeq   uint64
	out, in  *netsim.Conn
	listener *netsim.Listener
}

func newProbes(d *deployment, seed uint64) (p *probes, err error) {
	p = &probes{d: d, kv: service.NewKV(), verifier: sig.NewVerifierSet()}
	defer func() {
		if err != nil {
			p.close()
		}
	}()
	if p.serverKP, err = sig.NewKeyPair(); err != nil {
		return nil, err
	}
	if p.proxyKP, err = sig.NewKeyPair(); err != nil {
		return nil, err
	}
	p.verifier.Servers[0] = p.serverKP.Public()
	p.verifier.Proxies["bench-proxy"] = p.proxyKP.Public()
	for _, rq := range preloadInputs(d.w, seed, 0, 1) {
		if _, err := p.kv.Apply(rq.body); err != nil {
			return nil, err
		}
	}
	if d.w.wal {
		if p.wal, err = store.Open(walConfig(filepath.Join(d.walDir, "probe"), nil)); err != nil {
			return nil, err
		}
	}
	if p.listener, err = d.sys.Net().Listen("bench-hop"); err != nil {
		return nil, err
	}
	// Dial returns once the listener accepts; closing the listener (close,
	// on any error) ends the accepting goroutine.
	accepted := make(chan *netsim.Conn, 1)
	go func() {
		conn, _ := p.listener.Accept()
		accepted <- conn
	}()
	if p.out, err = d.sys.Net().Dial("bench-probe", "bench-hop"); err != nil {
		return nil, err
	}
	p.in = <-accepted
	return p, nil
}

func (p *probes) close() {
	if p.wal != nil {
		p.wal.Close()
	}
	if p.out != nil {
		p.out.Close()
	}
	if p.in != nil {
		p.in.Close()
	}
	if p.listener != nil {
		p.listener.Close()
	}
}

// replay records the per-layer spans of one sampled request.
func (p *probes) replay(t *tracer, rq request) error {
	leader, ok := p.d.leader(nil)
	if !ok {
		return errors.New("no replica claims to lead")
	}
	var resp sig.ServerResponse
	var err error
	t.record(rq.id, "replica.request", func() {
		resp, err = pb.RequestTagged(p.d.sys.Net(), "bench-probe", fortress.ServerAddr(leader), rq.id+"-replay", rq.body, rq.read, p.d.w.clientTimeout)
	})
	if err != nil {
		return fmt.Errorf("replica.request: %w", err)
	}
	t.record(rq.id, "sig.sign", func() { resp = sig.SignServerResponse(p.serverKP, resp.RequestID, resp.Body, 0) })
	t.record(rq.id, "sig.verify", func() { err = sig.VerifyServerResponse(p.serverKP.Public(), resp) })
	if err != nil {
		return err
	}
	var doubly sig.DoublySigned
	t.record(rq.id, "sig.oversign", func() { doubly, err = sig.OverSign(p.proxyKP, "bench-proxy", resp) })
	if err != nil {
		return err
	}
	t.record(rq.id, "sig.verify_doubly", func() { err = p.verifier.VerifyDoublySigned(doubly) })
	if err != nil {
		return err
	}
	t.record(rq.id, "service.apply", func() { _, err = p.kv.Apply(rq.body) })
	if err != nil {
		return err
	}
	t.record(rq.id, "service.snapshot", func() { _, err = p.kv.Snapshot() })
	if err != nil {
		return err
	}
	wire := proxy.EncodeRequest(rq.id, rq.body)
	if p.wal != nil {
		p.walSeq++
		t.record(rq.id, "store.append_sync", func() { err = p.wal.Append(p.walSeq, wire) })
		if err != nil {
			return err
		}
	}
	t.record(rq.id, "netsim.hop", func() {
		if err = p.out.Send(wire); err == nil {
			var got []byte
			got, err = p.in.Recv()
			netsim.Release(got)
		}
	})
	return err
}

// runTraced is the separate traced run of one workload: one sequential
// client against a deployment with a registry, with spans recorded around
// calls into each layer's public functions; then the same loop with
// neither registry nor spans, whose difference is the tracing overhead; then
// the single-node baseline. It fills rep.PerLayer and returns the spans.
func runTraced(w workload, o options, rep *workloadReport) ([]span, error) {
	window := o.window / 3
	reg := metrics.New()
	d, err := deploy(w, o, deployOpts{nodes: 3, clients: 1, metrics: reg})
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer d.stop()
	p, err := newProbes(d, o.seed)
	if err != nil {
		return nil, err
	}
	defer p.close()
	inputs := genInputs(w, o.seed, "trace", 0, 1, inputBudget(w, window))
	cl := d.clients[0]
	d.warm(o.seed, window/5)

	t := &tracer{epoch: time.Now()}
	cnt := &counts{reg: reg, total: make(map[string]float64)}
	ops, failed, requestBytes := 0, 0, 0
	cnt.begin()
	for i, rq := range inputs {
		if time.Since(t.epoch) >= window {
			break
		}
		ok := false
		d.think(rq)
		t.record(rq.id, root, func() { ok = cl.do(rq) })
		ops++
		requestBytes += len(proxy.EncodeRequest(rq.id, rq.body))
		if !ok {
			failed++
			continue
		}
		if i%sampleEvery == 0 {
			cnt.end()
			if err := p.replay(t, rq); err != nil {
				return nil, fmt.Errorf("replay of %s: %w", rq.id, err)
			}
			cnt.begin()
		}
	}
	cnt.end()
	d.sys.Net().SetLinkDelay(0)
	rep.check("traced_no_failures", errIf(failed > 0, "%d of %d traced requests failed, last: %v", failed, ops, cl.lastErr))

	m := make(map[string]float64)
	if w.openRate > 0 {
		if m["fortress.rejoin_catchup_ms"], err = d.rejoinCatchup(o.seed); err != nil {
			return nil, fmt.Errorf("rejoin: %w", err)
		}
	}
	start := time.Now()
	if err := d.sys.Rerandomize(); err != nil {
		return nil, fmt.Errorf("rerandomize: %w", err)
	}
	m["fortress.rerandomize_ms"] = ms(time.Since(start))
	rep.check("traced_readback", d.readback("rerandomized"))

	reqs := byRequest(t.spans)
	m["client.invoke_p50_us"] = p50us(reqs, root)
	m["proxy.tier_self_p50_us"] = p50us(reqs, root, "replica.request")
	inReplica := []string{"service.apply", "sig.sign"}
	if p.wal != nil {
		inReplica = append(inReplica, "store.append_sync")
	}
	m["replica.self_p50_us"] = p50us(reqs, "replica.request", inReplica...)
	for _, name := range []string{"replica.request", "sig.sign", "sig.verify", "sig.oversign", "sig.verify_doubly", "service.apply", "service.snapshot", "store.append_sync", "netsim.hop"} {
		m[name+"_p50_us"] = p50us(reqs, name)
	}

	c, n := cnt.total, float64(ops)
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	m["proxy.requests_per_op"] = ratio(c["proxy_requests_total"], n)
	m["proxy.no_response_per_op"] = ratio(c["proxy_no_response_total"], n)
	m["proxy.request_bytes"] = ratio(float64(requestBytes), n)
	m["pb.delta_updates_per_op"] = ratio(c["pb_updates_delta_total"], n)
	m["pb.checkpoint_updates_per_op"] = ratio(c["pb_updates_checkpoint_total"], n)
	// Backups count the deltas they apply under the same name, so the
	// share of deltas the primary spliced without a snapshot is the
	// primary's own ratio.
	if lead, ok := d.leader(nil); ok {
		node := fmt.Sprintf("{node=%q}", fortress.ServerAddr(lead))
		m["pb.delta_fast_share"] = ratio(c["pb_updates_delta_fast_total"+node], c["pb_updates_delta_total"+node])
	}
	m["pb.ack_stall_fires"] = c["pb_ack_stall_fires_total"]
	m["core.flush_msgs_per_op"] = ratio(c["core_flush_messages_total"], n)
	m["core.flush_batch_mean"] = ratio(c["core_flush_messages_total"], c["core_flush_batches_total"])
	m["core.inbound_msgs_per_op"] = ratio(c["core_inbound_messages_total"], n)
	m["core.peer_send_failures"] = c["core_peer_send_failures_total"]
	m["store.fsync_mean_us"] = ratio(c["store_sync_ns#sum"], c["store_sync_ns#count"]) / 1e3
	m["store.appends_per_op"] = ratio(c["store_appends_total"], n)
	m["store.syncs_per_op"] = ratio(c["store_sync_ns#count"], n)
	m["smr.lease_read_share"] = ratio(c["smr_lease_reads_total"], c["smr_lease_reads_total"]+c["smr_ordered_read_fallbacks_total"])

	// The same loop with Metrics nil and no spans: its p50 against the
	// traced p50 is what tracing costs, and its allocations are the
	// request path's own.
	plainD, err := deploy(w, o, deployOpts{nodes: 3, clients: 1})
	if err != nil {
		return nil, fmt.Errorf("set-up of the untraced deployment: %w", err)
	}
	defer plainD.stop()
	plain, mem := plainD.sequential(o.seed, window)
	m["trace.overhead_pct"] = 100 * ratio(m["client.invoke_p50_us"]-1e3*plain.p50, 1e3*plain.p50)
	okOps := float64(plain.attempted - plain.failed)
	m["proc.allocs_per_op"] = ratio(float64(mem.Mallocs), okOps)
	m["proc.alloc_bytes_per_op"] = ratio(float64(mem.TotalAlloc), okOps)
	m["proc.gc_pause_ms"] = float64(mem.PauseTotalNs) / 1e6
	if w.openRate > 0 {
		// An open loop's generator is timed at its own rate with no fault
		// in the way: how far behind schedule it fell is its own doing.
		paced, _ := plainD.runWindow([][]request{genInputs(w, o.seed, "paced", 0, 1, inputBudget(w, window/5))}, window/5, w.openRate, false)
		e := summarize(paced)
		m["loadgen.max_late_ms"] = ms(e.maxLate)
		plain.attempted, plain.failed = plain.attempted+e.attempted, plain.failed+e.failed
	}
	rep.check("untraced_no_failures", failures(plain))
	plainD.stop()

	singleD, err := deploy(w, o, deployOpts{nodes: 1, clients: 1})
	if err != nil {
		return nil, fmt.Errorf("set-up of the single-node deployment: %w", err)
	}
	defer singleD.stop()
	single, _ := singleD.sequential(o.seed, o.window*2/15)
	rep.check("single_node_no_failures", failures(single))
	m["fortress.single_node_p50_us"] = 1e3 * single.p50

	rep.TracedOps = ops
	rep.PerLayer = make(map[string]metric)
	for _, def := range perLayerDefs {
		rep.PerLayer[def.name] = metric{m[def.name], def.unit}
	}
	return t.spans, nil
}

func failures(e endToEnd) error {
	return errIf(e.failed > 0, "%d of %d requests failed", e.failed, e.attempted)
}

// sequential warms d up, then loads it with its one client for dur on the
// traced run's inputs, tracing nothing. It returns what that closed loop
// measured and what the process allocated meanwhile.
func (d *deployment) sequential(seed uint64, dur time.Duration) (endToEnd, runtime.MemStats) {
	inputs := [][]request{genInputs(d.w, seed, "trace", 0, 1, inputBudget(d.w, dur))}
	d.warm(seed, dur/5)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	win, _ := d.runWindow(inputs, dur, 0, false)
	runtime.ReadMemStats(&after)
	after.Mallocs -= before.Mallocs
	after.TotalAlloc -= before.TotalAlloc
	after.PauseTotalNs -= before.PauseTotalNs
	return summarize(win), after
}

// warm loads a single-client deployment for dur and discards what it
// measures; a request that fails here fails the read-back later.
func (d *deployment) warm(seed uint64, dur time.Duration) {
	d.runWindow([][]request{genInputs(d.w, seed, "twarm", 0, 1, inputBudget(d.w, dur))}, dur, 0, false)
}

// rejoinCatchup crashes the leader, writes through its successor, restarts
// it and times how long the rejoined replica takes to have executed as
// much as the new leader.
func (d *deployment) rejoinCatchup(seed uint64) (float64, error) {
	old, ok := d.leader(nil)
	if !ok {
		return 0, errors.New("no replica claims to lead")
	}
	if err := d.sys.CrashServer(old); err != nil {
		return 0, err
	}
	down := map[int]bool{old: true}
	if err := waitFor(3*time.Second, "a successor to take over", func() bool { _, ok := d.leader(down); return ok }); err != nil {
		return 0, err
	}
	for _, rq := range genInputs(d.w, seed, "rejoin", 0, 1, 32) {
		d.clients[0].do(rq) // a put the successor has not settled in to serve may fail; the read-back decides
	}
	start := time.Now()
	if err := d.sys.RestartServer(old); err != nil {
		return 0, err
	}
	err := waitFor(5*time.Second, "the rejoined replica to catch up", func() bool {
		now, ok := d.leader(nil)
		servers := d.sys.Servers()
		return ok && servers[old].Executed() == servers[now].Executed()
	})
	return ms(time.Since(start)), err
}

// perLayerDefs lists the per-layer metrics in the order the README
// explains them; BENCHMARK.json lists the same names and units.
var perLayerDefs = []struct{ name, unit string }{
	{"client.invoke_p50_us", "us"},
	{"proxy.tier_self_p50_us", "us"},
	{"proxy.requests_per_op", "count"},
	{"proxy.no_response_per_op", "count"},
	{"proxy.request_bytes", "bytes"},
	{"replica.request_p50_us", "us"},
	{"replica.self_p50_us", "us"},
	{"sig.sign_p50_us", "us"},
	{"sig.verify_p50_us", "us"},
	{"sig.oversign_p50_us", "us"},
	{"sig.verify_doubly_p50_us", "us"},
	{"service.apply_p50_us", "us"},
	{"service.snapshot_p50_us", "us"},
	{"pb.delta_updates_per_op", "count"},
	{"pb.checkpoint_updates_per_op", "count"},
	{"pb.delta_fast_share", "ratio"},
	{"pb.ack_stall_fires", "count"},
	{"core.flush_msgs_per_op", "count"},
	{"core.flush_batch_mean", "count"},
	{"core.inbound_msgs_per_op", "count"},
	{"core.peer_send_failures", "count"},
	{"store.append_sync_p50_us", "us"},
	{"store.fsync_mean_us", "us"},
	{"store.appends_per_op", "count"},
	{"store.syncs_per_op", "count"},
	{"smr.lease_read_share", "ratio"},
	{"netsim.hop_p50_us", "us"},
	{"fortress.single_node_p50_us", "us"},
	{"fortress.rerandomize_ms", "ms"},
	{"fortress.rejoin_catchup_ms", "ms"},
	{"proc.allocs_per_op", "count"},
	{"proc.alloc_bytes_per_op", "bytes"},
	{"proc.gc_pause_ms", "ms"},
	{"loadgen.max_late_ms", "ms"},
	{"trace.overhead_pct", "%"},
}
