package main

import (
	"fmt"
	"hash/fnv"
	"strings"
	"time"

	"fortress/internal/replica"
	"fortress/internal/xrand"
)

// workload is one row of the workload table: the deployment and traffic
// properties that differ from the common deployment (3 servers, 3 proxies,
// one group, KV service, 5 ms heartbeats, no detector, link delay 0).
type workload struct {
	name string
	// why is the one-line reason the workload exists; BENCHMARK.json and
	// the README carry the same text.
	why        string
	backend    replica.Backend
	leases     bool
	keys       int
	valueBytes int
	// readPct is the share of requests that are gets sent with InvokeRead;
	// the rest are puts.
	readPct int
	// wal journals every server through store.Open{SyncEvery: 1} in a
	// temporary directory instead of the in-memory store.
	wal bool
	// linkDelay is the one-way netsim delay injected after set-up.
	linkDelay time.Duration
	// openRate, when positive, makes the workload an open loop at that
	// many requests per second with the leader crashed four times.
	openRate      int
	clientTimeout time.Duration
	// oneCPU confines the process to one CPU and GOMAXPROCS to 1 while the
	// workload runs. The two workloads that leave the CPU mostly idle need
	// it to be measurable at all: the kernel this was written on wakes a
	// thread on the waker's CPU or where it last ran and looks no further,
	// so a mostly idle process stays, for its whole life, either packed on
	// one CPU or spread over two, whichever it started as, and the two
	// differ by 2x in set-up time and 10 to 20% in latency. A saturated
	// process is spread within a second by the load balancer and stays so.
	oneCPU bool
}

// workloads is the fixed table; later issues cite these names.
var workloads = []workload{
	{
		name: "pb_write", backend: replica.BackendPB, keys: 64, valueBytes: 16, clientTimeout: 5 * time.Second,
		why: "the paper's S2 primary-backup deployment under writes: CPU-bound on signatures and JSON, so sig and codec work shows here first",
	},
	{
		name: "smr_lease_read", backend: replica.BackendSMR, leases: true, keys: 64, valueBytes: 16, readPct: 95, clientTimeout: 5 * time.Second,
		why: "95% leased reads bypass ordering: a write-path gain that costs the read path, or a change to proxy read fan-out, shows here",
	},
	{
		name: "pb_wal_fsync", backend: replica.BackendPB, keys: 64, valueBytes: 16, wal: true, clientTimeout: 5 * time.Second,
		why: "every update is fsynced, so the store is a third of the latency: group commit shows here and must not move the in-memory workloads",
	},
	{
		name: "pb_large_state", backend: replica.BackendPB, keys: 256, valueBytes: 4096, clientTimeout: 5 * time.Second,
		why: "1 MiB of state: per-request cost is JSON and hashing over the state, so delta and checkpoint work shows here and sig work should not",
	},
	{
		name: "pb_wan_2ms", backend: replica.BackendPB, keys: 64, valueBytes: 16, linkDelay: 2 * time.Millisecond, clientTimeout: 5 * time.Second, oneCPU: true,
		why: "2 ms injected one-way delay: latency is hops times delay with the CPU idle, so fewer round trips show here and CPU work should not",
	},
	{
		name: "smr_failover_open", backend: replica.BackendSMR, keys: 64, valueBytes: 16, openRate: 100, clientTimeout: time.Second, oneCPU: true,
		why: "the only fault: an open loop at 100 req/s while the leader is crashed four times, so requests due with no leader are counted",
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// loaders is the number of load-generating clients of an end-to-end run:
// no more than the two cores the benchmark pins itself to. Of n clients,
// client c owns the keys whose index is c modulo n, so the last
// acknowledged value of every key is known to exactly one goroutine.
const loaders = 2

// request is one pre-generated client request.
type request struct {
	id    string
	body  []byte
	read  bool
	key   int
	value string // the value a put writes; empty for a get
	// jitter is a seeded draw from [0, 1) that keeps the load loop from
	// falling in step with anything periodic in the system: the share of
	// the link delay a closed-loop client pauses before the request
	// (deployment.think), and where in its slot of the schedule an
	// open-loop request is due (runWindow).
	jitter float64
}

func keyName(i int) string { return fmt.Sprintf("k%04d", i) }

func putBody(key int, value string) []byte {
	return []byte(`{"op":"put","key":"` + keyName(key) + `","value":"` + value + `"}`)
}

func getBody(key int) []byte {
	return []byte(`{"op":"get","key":"` + keyName(key) + `"}`)
}

// value returns a JSON-safe value of exactly n bytes that is unique to
// (stream, i): a hex tag followed by filler drawn from rng.
func value(rng *xrand.RNG, stream string, i, n int) string {
	var b strings.Builder
	b.Grow(n + 16)
	fmt.Fprintf(&b, "%s.%x.", stream, i)
	for b.Len() < n {
		fmt.Fprintf(&b, "%016x", rng.Uint64())
	}
	return b.String()[:n]
}

// streamRNG derives the generator of one named input stream from the
// seed, so every stream is a pure function of (workload, seed, stream).
func streamRNG(w workload, seed uint64, stream string) *xrand.RNG {
	h := fnv.New64a()
	h.Write([]byte(w.name + "\x00" + stream))
	return xrand.New(seed ^ h.Sum64())
}

// preloadInputs returns the puts that fill the keys of client c of n
// before timing.
func preloadInputs(w workload, seed uint64, c, n int) []request {
	stream := fmt.Sprintf("pre%d", c)
	rng := streamRNG(w, seed, stream)
	var out []request
	for k := c; k < w.keys; k += n {
		v := value(rng, stream, k, w.valueBytes)
		out = append(out, request{id: fmt.Sprintf("%s-%s-%d", w.name, stream, k), body: putBody(k, v), key: k, value: v})
	}
	return out
}

// genInputs returns count requests for client c of n on the named stream:
// the key sequence is uniform over the client's own keys, the op mix
// follows readPct, and every put carries a value no other request carries.
// It is a pure function of its arguments.
func genInputs(w workload, seed uint64, stream string, c, n, count int) []request {
	stream = fmt.Sprintf("%s%d", stream, c)
	rng := streamRNG(w, seed, stream)
	owned := (w.keys - c + n - 1) / n
	out := make([]request, count)
	for i := range out {
		k := c + n*rng.Intn(owned)
		id := fmt.Sprintf("%s-%s-%d", w.name, stream, i)
		jitter := rng.Float64()
		if rng.Intn(100) < w.readPct {
			out[i] = request{id: id, body: getBody(k), read: true, key: k, jitter: jitter}
			continue
		}
		v := value(rng, stream, i, w.valueBytes)
		out[i] = request{id: id, body: putBody(k, v), key: k, value: v, jitter: jitter}
	}
	return out
}

// inputBudget is how many requests to pre-generate for one client over d:
// ten times today's per-client rate, capped so the bodies of one client
// stay under 32 MiB. A client that exhausts its inputs ends its window
// early and the measured seconds say so.
func inputBudget(w workload, d time.Duration) int {
	n := int(5000 * d.Seconds())
	if max := (32 << 20) / (w.valueBytes + 64); n > max {
		n = max
	}
	if n < 1 {
		n = 1
	}
	return n
}
