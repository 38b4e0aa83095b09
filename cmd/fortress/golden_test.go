package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from this build")

// artifact extracts one pinned output of a run from its stdout and from the
// files it wrote under dir.
type artifact func(stdout []byte, dir string) ([]byte, error)

func stdout(out []byte, _ string) ([]byte, error) { return out, nil }

// file is the file the run wrote at dir/name.
func file(name string) artifact {
	return func(_ []byte, dir string) ([]byte, error) { return os.ReadFile(filepath.Join(dir, name)) }
}

// counters is the deterministic part of a -metrics-out file: each cell's
// label and its Stable-class counters, one per line in name order.
func counters(name string) artifact {
	return func(_ []byte, dir string) ([]byte, error) {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			return nil, err
		}
		var cells []struct {
			Cell     string `json:"cell"`
			Snapshot struct {
				Counters map[string]uint64 `json:"counters"`
			} `json:"snapshot"`
		}
		if err := json.Unmarshal(data, &cells); err != nil {
			return nil, err
		}
		var b bytes.Buffer
		for _, c := range cells {
			fmt.Fprintf(&b, "cell %s\n", c.Cell)
			names := make([]string, 0, len(c.Snapshot.Counters))
			for n := range c.Snapshot.Counters {
				names = append(names, n)
			}
			slices.Sort(names)
			for _, n := range names {
				fmt.Fprintf(&b, "  %s %d\n", n, c.Snapshot.Counters[n])
			}
		}
		return b.Bytes(), nil
	}
}

// goldenRuns are the pinned CLI invocations. args builds the command line
// given the run's scratch directory; goldens maps testdata/<name>.golden to
// the artifact it pins. Runs whose subcommand takes -workers are made at
// -workers 1 and 4 and both must match. Only stdout of runs that write no
// file is pinned: "# CSV written to <path>" names a temporary directory.
var goldenRuns = []struct {
	name    string
	args    func(dir string) []string
	workers bool
	goldens map[string]artifact
}{
	{
		name: "fig1",
		args: func(dir string) []string {
			return []string{"fig1", "-trials", "2000", "-csv", filepath.Join(dir, "fig1.csv")}
		},
		workers: true,
		goldens: map[string]artifact{"fig1.csv": file("fig1.csv")},
	},
	{
		name: "fig2",
		args: func(dir string) []string {
			return []string{"fig2", "-trials", "2000", "-csv", filepath.Join(dir, "fig2.csv")}
		},
		workers: true,
		goldens: map[string]artifact{"fig2.csv": file("fig2.csv")},
	},
	{
		name:    "ordering",
		args:    func(string) []string { return []string{"ordering", "-trials", "2000"} },
		workers: true,
		goldens: map[string]artifact{"ordering.txt": stdout},
	},
	{
		name:    "fortify",
		args:    func(string) []string { return []string{"fortify", "-trials", "2000"} },
		workers: true,
		goldens: map[string]artifact{"fortify.txt": stdout},
	},
	{
		name:    "alphas",
		args:    func(string) []string { return []string{"alphas"} },
		goldens: map[string]artifact{"alphas.txt": stdout},
	},
	{
		// A fault sweep in which the node lifecycle fires: every campaign
		// survives past the middle-half fault window, so the proxy outage
		// and the blackout (power loss, then restart) both run.
		name: "faults_lifecycle",
		args: func(dir string) []string {
			return []string{"faults", "-reps", "2", "-chi", "200", "-steps", "12",
				"-preset", "proxy-outage,blackout",
				"-csv", filepath.Join(dir, "faults.csv"),
				"-metrics-out", filepath.Join(dir, "metrics.json")}
		},
		workers: true,
		goldens: map[string]artifact{
			"faults_lifecycle.csv":          file("faults.csv"),
			"faults_lifecycle_counters.txt": counters("metrics.json"),
		},
	},
}

// runCaptured runs the CLI with args and returns what it printed to stdout.
func runCaptured(t *testing.T, args []string) []byte {
	t.Helper()
	out, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	saved := os.Stdout
	os.Stdout = out
	err = run(args)
	os.Stdout = saved
	if err != nil {
		t.Fatalf("fortress %s: %v", strings.Join(args, " "), err)
	}
	data, err := os.ReadFile(out.Name())
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// firstDiff describes the first line where got and want differ.
func firstDiff(got, want []byte) string {
	g, w := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(g) || i < len(w); i++ {
		var gl, wl string
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if gl != wl {
			return fmt.Sprintf("line %d:\n  got  %q\n  want %q", i+1, gl, wl)
		}
	}
	return "no line differs"
}

// TestGoldenOutputsDeterministicAcrossWorkers regenerates every pinned
// artifact at -workers 1 and 4 and compares it byte for byte with
// testdata/<name>.golden. Run with -update to rewrite the goldens from the
// -workers 1 run; a change that rewrites one must say which and why.
func TestGoldenOutputsDeterministicAcrossWorkers(t *testing.T) {
	for _, g := range goldenRuns {
		t.Run(g.name, func(t *testing.T) {
			workers := []string{""}
			if g.workers {
				workers = []string{"1", "4"}
			}
			for i, w := range workers {
				dir := t.TempDir()
				args := g.args(dir)
				if w != "" {
					args = append(args, "-workers", w)
				}
				out := runCaptured(t, args)
				for name, extract := range g.goldens {
					got, err := extract(out, dir)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					path := filepath.Join("testdata", name+".golden")
					if *update && i == 0 {
						if err := os.WriteFile(path, got, 0o644); err != nil {
							t.Fatal(err)
						}
					}
					want, err := os.ReadFile(path)
					if err != nil {
						t.Fatalf("%v (run with -update to create it)", err)
					}
					if !bytes.Equal(got, want) {
						t.Errorf("%s at -workers %q differs from %s, %s", name, w, path, firstDiff(got, want))
					}
				}
			}
		})
	}
}
