package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunFastSections(t *testing.T) {
	// Sections that need no simulation run instantly at any scale.
	for _, section := range []string{"table1", "fig3", "fig5", "fig6", "fig7"} {
		if err := run([]string{"-only", section}); err != nil {
			t.Errorf("%s: %v", section, err)
		}
	}
}

func TestRunSimulatedSections(t *testing.T) {
	// The three-scheduler comparison is memoized inside the experiments
	// package, so after fig10 pays its cost the rest are cheap.
	sections := []string{"fig10", "fig11", "fig12", "fig13", "fig14", "fig2", "sec6e", "sec6g", "table2"}
	for _, section := range sections {
		if err := run([]string{"-scale", "tiny", "-only", section}); err != nil {
			t.Errorf("%s: %v", section, err)
		}
	}
}

func TestRunMultiSeedSection(t *testing.T) {
	// The multiseed section sweeps seeds across the worker pool; -parallel 2
	// exercises the parallel path, -parallel 1 the sequential one.
	if err := run([]string{"-scale", "tiny", "-only", "multiseed", "-runs", "2", "-parallel", "2"}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-scale", "tiny", "-only", "multiseed", "-runs", "2", "-parallel", "1"}); err != nil {
		t.Fatal(err)
	}
}

func TestMemGateSection(t *testing.T) {
	// The tiny gate runs three streamed FIFO sims (1x, 4x, 8x jobs) in about
	// a second and must pass with the default threshold.
	out := filepath.Join(t.TempDir(), "memgate.json")
	if err := run([]string{"-scale", "tiny", "-only", "memgate", "-bench-json", out}); err != nil {
		t.Fatalf("memgate: %v", err)
	}
	info, err := os.Stat(out)
	if err != nil || info.Size() == 0 {
		t.Errorf("memgate json: %v (size %d)", err, info.Size())
	}
	// A negative threshold is unsatisfiable (the slope is clamped at zero),
	// so this exercises the failure path deterministically.
	if err := run([]string{"-scale", "tiny", "-only", "memgate", "-memgate-bytes-per-job", "-1"}); err == nil {
		t.Error("unsatisfiable memgate threshold should fail")
	}
}

func TestRunErrors(t *testing.T) {
	if err := run([]string{"-scale", "galactic"}); err == nil {
		t.Error("unknown scale should fail")
	}
	if err := run([]string{"-bogus"}); err == nil {
		t.Error("unknown flag should fail")
	}
	if err := run([]string{"-runs", "0"}); err == nil {
		t.Error("zero runs should fail")
	}
}

func TestCSVExport(t *testing.T) {
	dir := t.TempDir()
	if err := run([]string{"-scale", "tiny", "-only", "table1", "-csv", dir}); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{
		"fig3_util_vs_cores.csv",
		"fig1_weekly_trend.csv",
		"fig11_gpu_queue_cdf.csv",
		"fig11_cpu_queue_cdf.csv",
		"fig12_per_user_p99.csv",
		"fig14_core_deltas.csv",
	} {
		info, err := os.Stat(filepath.Join(dir, name))
		if err != nil || info.Size() == 0 {
			t.Errorf("%s: %v (size %d)", name, err, info.Size())
		}
	}
}

// TestCompareBenchBaselineCounts: equal work counts pass the gate, and a
// moved event or placement-query count fails it and names the variant,
// whatever the throughput.
func TestCompareBenchBaselineCounts(t *testing.T) {
	baseline := []benchEntry{
		{Name: "macro-fifo", Events: 35710, PlacementQueries: 44366, EventsPerSec: 100, QueriesPerSec: 100},
		{Name: "macro-coda", Events: 20346, PlacementQueries: 7167, EventsPerSec: 100, QueriesPerSec: 100},
	}
	path := filepath.Join(t.TempDir(), "baseline.json")
	if err := writeBenchJSON(path, baseline); err != nil {
		t.Fatal(err)
	}
	run := append([]benchEntry(nil), baseline...)
	if err := compareBenchBaseline(path, run, 0.2); err != nil {
		t.Fatalf("equal counts and rates: %v", err)
	}
	for _, mutate := range []func(e *benchEntry){
		func(e *benchEntry) { e.Events++ },
		func(e *benchEntry) { e.PlacementQueries-- },
	} {
		run := append([]benchEntry(nil), baseline...)
		run[1].EventsPerSec, run[1].QueriesPerSec = 1000, 1000 // faster never excuses a moved count
		mutate(&run[1])
		err := compareBenchBaseline(path, run, 0.2)
		if err == nil || !strings.Contains(err.Error(), "macro-coda") || strings.Contains(err.Error(), "macro-fifo") {
			t.Errorf("moved macro-coda count: error %v, want one naming macro-coda only", err)
		}
	}
}
