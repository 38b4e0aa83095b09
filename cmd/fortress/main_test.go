package main

import (
	"os"
	"strings"
	"testing"
)

func TestRunRequiresSubcommand(t *testing.T) {
	if err := run(nil); err == nil {
		t.Fatal("no subcommand accepted")
	}
	if err := run([]string{"frobnicate"}); err == nil {
		t.Fatal("unknown subcommand accepted")
	}
}

func TestRunFig1AnalyticOnly(t *testing.T) {
	if err := run([]string{"fig1", "-trials", "0"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunFig2AnalyticOnly(t *testing.T) {
	if err := run([]string{"fig2", "-trials", "0"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunOrdering(t *testing.T) {
	if err := run([]string{"ordering", "-trials", "0", "-alpha", "0.01"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunFortify(t *testing.T) {
	if err := run([]string{"fortify", "-trials", "5000", "-alpha", "0.01"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunAlphas(t *testing.T) {
	if err := run([]string{"alphas", "-steps", "5"}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"alphas", "-alpha", "-3"}); err == nil {
		t.Fatal("negative alpha accepted")
	}
}

func TestRunDemo(t *testing.T) {
	if err := run([]string{"demo"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunAttack(t *testing.T) {
	if err := run([]string{"attack", "-chi", "16", "-steps", "40", "-seed", "3"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunAttackPO(t *testing.T) {
	if err := run([]string{"attack", "-chi", "12", "-steps", "8", "-po", "-seed", "4"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunCampaign(t *testing.T) {
	if err := run([]string{"campaign",
		"-chi", "16", "-reps", "2", "-steps", "20",
		"-proxies", "2", "-pacing", "1", "-detector", "off",
		"-servers", "2", "-workers", "4", "-seed", "2",
	}); err != nil {
		t.Fatal(err)
	}
}

func TestRunCampaignCSV(t *testing.T) {
	path := t.TempDir() + "/campaign.csv"
	if err := run([]string{"campaign",
		"-chi", "16", "-reps", "2", "-steps", "20",
		"-proxies", "2", "-pacing", "0", "-detector", "off",
		"-servers", "2", "-workers", "4", "-csv", path,
	}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), "backend,proxies,detector,omega_indirect") {
		t.Fatalf("campaign csv header wrong: %.60s", data)
	}
}

func TestRunCampaignBadFlags(t *testing.T) {
	if err := run([]string{"campaign", "-detector", "sideways"}); err == nil {
		t.Fatal("bad -detector value accepted")
	}
	if err := run([]string{"campaign", "-proxies", "2,x"}); err == nil {
		t.Fatal("bad -proxies list accepted")
	}
	if err := run([]string{"campaign", "-proxies", "2x"}); err == nil {
		t.Fatal("trailing garbage in -proxies entry accepted")
	}
	if err := run([]string{"campaign", "-pacing", "3.5"}); err == nil {
		t.Fatal("fractional -pacing entry accepted")
	}
	if err := run([]string{"campaign", "-pacing", "1,,2"}); err == nil {
		t.Fatal("bad -pacing list accepted")
	}
}

func TestRunFaults(t *testing.T) {
	if err := run([]string{"faults",
		"-preset", "none,quorum-partition", "-persist", "mem,wal",
		"-reps", "1", "-steps", "6", "-chi", "12", "-servers", "2", "-proxies", "2",
		"-workers", "4", "-seed", "2",
	}); err != nil {
		t.Fatal(err)
	}
}

func TestRunFaultsCSV(t *testing.T) {
	path := t.TempDir() + "/faults.csv"
	if err := run([]string{"faults",
		"-preset", "none", "-reps", "1", "-steps", "4", "-chi", "12",
		"-servers", "2", "-proxies", "2", "-workers", "4", "-csv", path,
	}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), "backend,preset,drop_rate,proxies,persist,fsync_every,jitter,workload,read_frac,leases,") {
		t.Fatalf("faults csv header wrong: %.90s", data)
	}
	if lines := strings.Split(strings.TrimSpace(string(data)), "\n"); len(lines) != 2 || !strings.HasPrefix(lines[1], "pb,none,0,2,mem,0,0,closed,1,false,1,") {
		t.Fatalf("faults csv rows wrong:\n%s", data)
	}
}

func TestRunFaultsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-preset", "nope"},
		{"-persist", "disk"},
		{"-drops", "x"},
		{"-fsync-every", "-1"},
		{"-jitter", "1.5"},
		{"-workload", ""},
		{"-reps", "0"},
		{"-chi", "0"},
		{"-steps", "0"},
		{"-servers", "0"},
	} {
		if err := run(append([]string{"faults"}, args...)); err == nil {
			t.Errorf("faults %v accepted", args)
		}
	}
}

func TestFlagErrorsSurface(t *testing.T) {
	err := run([]string{"fig1", "-trials", "not-a-number"})
	if err == nil || !strings.Contains(err.Error(), "invalid") {
		t.Fatalf("flag parse error not surfaced: %v", err)
	}
}

func TestRunFig1CSV(t *testing.T) {
	path := t.TempDir() + "/fig1.csv"
	if err := run([]string{"fig1", "-trials", "0", "-csv", path}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), "system,alpha,kappa") {
		t.Fatalf("csv header wrong: %.60s", data)
	}
	if !strings.Contains(string(data), "S2PO") {
		t.Fatal("csv missing S2PO series")
	}
}

func TestRunCampaignRejectsExplicitZeros(t *testing.T) {
	if err := run([]string{"campaign", "-reps", "0"}); err == nil {
		t.Fatal("-reps 0 accepted")
	}
	if err := run([]string{"campaign", "-detector-threshold", "0"}); err == nil {
		t.Fatal("-detector-threshold 0 accepted")
	}
}
