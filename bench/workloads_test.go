package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
	"time"

	"fortress/internal/service"
)

// The inputs are a pure function of (workload, seed): the same arguments
// give the same requests, another seed gives others.
func TestInputsArePureFunctionOfSeed(t *testing.T) {
	for _, w := range workloads {
		a := genInputs(w, 7, "run", 1, loaders, 200)
		b := genInputs(w, 7, "run", 1, loaders, 200)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: the same seed gave different inputs", w.name)
		}
		if c := genInputs(w, 8, "run", 1, loaders, 200); reflect.DeepEqual(a, c) {
			t.Errorf("%s: another seed gave the same inputs", w.name)
		}
		if !reflect.DeepEqual(preloadInputs(w, 7, 0, loaders), preloadInputs(w, 7, 0, loaders)) {
			t.Errorf("%s: the same seed gave different preload inputs", w.name)
		}
	}
}

func TestInputsShape(t *testing.T) {
	for _, w := range workloads {
		ids, values := map[string]bool{}, map[string]bool{}
		reads, total := 0, 0
		for c := 0; c < loaders; c++ {
			for _, streams := range [][]request{preloadInputs(w, 3, c, loaders), genInputs(w, 3, "warm", c, loaders, 500), genInputs(w, 3, "run", c, loaders, 500)} {
				for _, rq := range streams {
					if rq.key%loaders != c || rq.key >= w.keys {
						t.Fatalf("%s: client %d got key %d of %d", w.name, c, rq.key, w.keys)
					}
					if ids[rq.id] {
						t.Fatalf("%s: request id %s used twice", w.name, rq.id)
					}
					ids[rq.id] = true
					var body service.KVRequest
					if err := json.Unmarshal(rq.body, &body); err != nil {
						t.Fatalf("%s: body %q: %v", w.name, rq.body, err)
					}
					total++
					if rq.read {
						reads++
						if body.Op != "get" || body.Key != keyName(rq.key) {
							t.Fatalf("%s: read body %q", w.name, rq.body)
						}
						continue
					}
					if body.Op != "put" || body.Key != keyName(rq.key) || body.Value != rq.value || len(rq.value) != w.valueBytes {
						t.Fatalf("%s: put body %q for value of %d bytes", w.name, rq.body, len(rq.value))
					}
					if values[rq.value] {
						t.Fatalf("%s: value %q written twice", w.name, rq.value)
					}
					values[rq.value] = true
				}
			}
		}
		// Preload puts are counted too, hence the slack below readPct.
		if share := 100 * reads / total; share > w.readPct || share < w.readPct*8/10 {
			t.Errorf("%s: %d%% reads, want about %d%%", w.name, share, w.readPct)
		}
	}
}

func TestPreloadCoversEveryKeyOnce(t *testing.T) {
	w, _ := findWorkload("pb_large_state")
	for _, n := range []int{1, loaders} {
		seen := map[int]int{}
		for c := 0; c < n; c++ {
			for _, rq := range preloadInputs(w, 1, c, n) {
				seen[rq.key]++
			}
		}
		if len(seen) != w.keys {
			t.Errorf("%d clients preload %d keys, want %d", n, len(seen), w.keys)
		}
		for k, times := range seen {
			if times != 1 {
				t.Errorf("%d clients preload key %d %d times", n, k, times)
			}
		}
	}
}

func TestInputBudget(t *testing.T) {
	small, _ := findWorkload("pb_write")
	large, _ := findWorkload("pb_large_state")
	if got := inputBudget(small, 2*time.Second); got != 10000 {
		t.Errorf("budget for 2 s of small requests = %d, want 10000", got)
	}
	if got := inputBudget(large, time.Minute); got*(large.valueBytes+64) > 32<<20 {
		t.Errorf("budget for large requests = %d, more than 32 MiB of bodies", got)
	}
}

func TestKeyStateAllows(t *testing.T) {
	ks := keyState{acked: "a", maybe: []string{"b", "c"}}
	for v, want := range map[string]bool{"a": true, "b": true, "c": true, "d": false, "": false} {
		if ks.allows(v) != want {
			t.Errorf("allows(%q) = %v, want %v", v, !want, want)
		}
	}
}

// BENCHMARK.json is the driver's view of the tables in this package; the
// two must not drift apart.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type row struct {
		Name, Unit, Better, Why string
		Bound                   float64
	}
	var b struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []row
		EndToEnd   []row `json:"end_to_end"`
		PerLayer   []row `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads listed, want %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why {
			t.Errorf("workload %d is %q (%q), want %q (%q)", i, b.Workloads[i].Name, b.Workloads[i].Why, w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("%s: why has %d characters, the limit is 200", w.name, len(w.why))
		}
	}
	var want []row
	for _, def := range endToEndDefs {
		if def.contract {
			better := "lower"
			if def.higher {
				better = "higher"
			}
			want = append(want, row{Name: def.name, Unit: def.unit, Better: better, Bound: def.rel})
		}
	}
	if !reflect.DeepEqual(b.EndToEnd, want) {
		t.Errorf("end_to_end is %+v, want %+v", b.EndToEnd, want)
	}
	if len(b.PerLayer) != len(perLayerDefs) {
		t.Fatalf("%d per-layer metrics listed, want %d", len(b.PerLayer), len(perLayerDefs))
	}
	for i, def := range perLayerDefs {
		if b.PerLayer[i].Name != def.name || b.PerLayer[i].Unit != def.unit {
			t.Errorf("per_layer %d is %s (%s), want %s (%s)", i, b.PerLayer[i].Name, b.PerLayer[i].Unit, def.name, def.unit)
		}
	}
}
