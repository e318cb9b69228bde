package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"github.com/coda-repro/coda/internal/experiments"
)

// benchEntry is one machine-readable macro-benchmark measurement. The JSON
// files these serialize into (BENCH_<name>.json) are the perf trajectory
// every optimization PR diffs against; CI replays the short-mode variant
// and fails on events/sec regressions.
type benchEntry struct {
	Name             string  `json:"name"`
	Scale            string  `json:"scale"`
	Scheduler        string  `json:"scheduler"`
	Invariants       bool    `json:"invariants"`
	Seed             int64   `json:"seed"`
	Events           int64   `json:"events"`
	PlacementQueries int64   `json:"placement_queries"`
	WallNs           int64   `json:"wall_ns"`
	NsPerEvent       float64 `json:"ns_per_event"`
	EventsPerSec     float64 `json:"events_per_sec"`
	QueriesPerSec    float64 `json:"placement_queries_per_sec"`
	Allocs           uint64  `json:"allocs"`
	AllocsPerEvent   float64 `json:"allocs_per_event"`
}

// macroVariants are the engine configurations the macro benchmark times:
// the lightest scheduler (placement-dominated), the full CODA stack, CODA
// with the per-event invariant checker on (the O(Δ) target), and the DRF
// baseline's per-tenant fill pass.
var macroVariants = []struct {
	scheduler  string
	invariants bool
}{
	{"fifo", false},
	{"coda", false},
	{"coda", true},
	{"drf", false},
}

// printMacro runs the macro-benchmark at the chosen scale, prints the
// measurements, optionally writes them as JSON, and — when a baseline file
// is given — fails on a >tolerance events/sec regression against it.
func printMacro(sc experiments.Scale, jsonPath, baselinePath string, tolerance float64) error {
	header(fmt.Sprintf("Macro-benchmark — %s scale, seed %d", sc.Name, sc.Seed))
	entries := make([]benchEntry, 0, len(macroVariants))
	for _, v := range macroVariants {
		e, err := runMacroVariant(sc, v.scheduler, v.invariants)
		if err != nil {
			return err
		}
		entries = append(entries, e)
		fmt.Printf("  %-16s %9d events  %8.0f events/sec  %8.0f queries/sec  %6.1f allocs/event  (%v)\n",
			e.Name, e.Events, e.EventsPerSec, e.QueriesPerSec, e.AllocsPerEvent,
			time.Duration(e.WallNs).Truncate(time.Millisecond))
	}
	if jsonPath != "" {
		if err := writeBenchJSON(jsonPath, entries); err != nil {
			return err
		}
		fmt.Printf("  wrote %s\n", jsonPath)
	}
	if baselinePath != "" {
		return compareBenchBaseline(baselinePath, entries, tolerance)
	}
	return nil
}

// runMacroVariant times one full simulation run and derives the throughput
// measurements from the run's own event and placement-query counters.
func runMacroVariant(sc experiments.Scale, scheduler string, invariants bool) (benchEntry, error) {
	spec, err := experiments.BenchSpec(sc, scheduler, invariants)
	if err != nil {
		return benchEntry{}, err
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	res, err := spec.Run()
	wall := time.Since(start)
	runtime.ReadMemStats(&after)
	if err != nil {
		return benchEntry{}, fmt.Errorf("%s: %w", spec.Name, err)
	}
	e := benchEntry{
		Name:             spec.Name,
		Scale:            sc.Name,
		Scheduler:        scheduler,
		Invariants:       invariants,
		Seed:             sc.Seed,
		Events:           res.Events,
		PlacementQueries: res.PlacementQueries,
		WallNs:           wall.Nanoseconds(),
		Allocs:           after.Mallocs - before.Mallocs,
	}
	if e.Events > 0 {
		e.NsPerEvent = float64(e.WallNs) / float64(e.Events)
		e.AllocsPerEvent = float64(e.Allocs) / float64(e.Events)
	}
	if secs := wall.Seconds(); secs > 0 {
		e.EventsPerSec = float64(e.Events) / secs
		e.QueriesPerSec = float64(e.PlacementQueries) / secs
	}
	return e, nil
}

func writeBenchJSON(path string, entries []benchEntry) error {
	data, err := json.MarshalIndent(entries, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// allocTolerance is how far a variant's allocation count may rise above the
// baseline's before compareBenchBaseline fails. Repeated runs agree to a few
// allocations; 5% leaves room for the runtime and nothing for a new
// per-event or per-job allocation.
const allocTolerance = 0.05

// compareBenchBaseline fails when any variant's events/sec or placement
// queries/sec fell more than tolerance below the committed baseline — the
// CI regression gate. Gating query throughput separately catches a
// placement-path regression even when event processing elsewhere masks it.
// It also fails when a variant's event or placement-query count differs
// from the baseline's at all: the counts are the same on every machine, so
// any change to them is a change in what the engine decided. It fails when
// a variant allocates more than allocTolerance above the baseline, and when
// a variant has no baseline entry, so a new variant is gated from the
// change that adds it.
func compareBenchBaseline(path string, entries []benchEntry, tolerance float64) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("bench baseline: %w", err)
	}
	var baseline []benchEntry
	if err := json.Unmarshal(data, &baseline); err != nil {
		return fmt.Errorf("bench baseline %s: %w", path, err)
	}
	byName := make(map[string]benchEntry, len(baseline))
	for _, b := range baseline {
		byName[b.Name] = b
	}
	var missing, moved, regressed, allocs []string
	for _, e := range entries {
		b, ok := byName[e.Name]
		if !ok {
			missing = append(missing, e.Name)
			continue
		}
		if e.Events != b.Events || e.PlacementQueries != b.PlacementQueries {
			moved = append(moved, fmt.Sprintf("%s: %d events / %d placement queries, baseline %d / %d",
				e.Name, e.Events, e.PlacementQueries, b.Events, b.PlacementQueries))
		}
		if float64(e.Allocs) > float64(b.Allocs)*(1+allocTolerance) {
			allocs = append(allocs, fmt.Sprintf("%s: %d allocations, baseline %d", e.Name, e.Allocs, b.Allocs))
		}
		if b.EventsPerSec <= 0 {
			continue
		}
		ratio := e.EventsPerSec / b.EventsPerSec
		fmt.Printf("  %-16s %8.0f events/sec vs baseline %8.0f (%.2fx)\n",
			e.Name, e.EventsPerSec, b.EventsPerSec, ratio)
		if ratio < 1-tolerance {
			regressed = append(regressed, fmt.Sprintf("%s: %.0f -> %.0f events/sec (%.0f%% drop)",
				e.Name, b.EventsPerSec, e.EventsPerSec, (1-ratio)*100))
		}
		if b.QueriesPerSec <= 0 {
			continue
		}
		qratio := e.QueriesPerSec / b.QueriesPerSec
		fmt.Printf("  %-16s %8.0f queries/sec vs baseline %8.0f (%.2fx)\n",
			e.Name, e.QueriesPerSec, b.QueriesPerSec, qratio)
		if qratio < 1-tolerance {
			regressed = append(regressed, fmt.Sprintf("%s: %.0f -> %.0f queries/sec (%.0f%% drop)",
				e.Name, b.QueriesPerSec, e.QueriesPerSec, (1-qratio)*100))
		}
	}
	if len(missing) > 0 {
		return fmt.Errorf("variants without a baseline entry in %s: %v", path, missing)
	}
	if len(moved) > 0 {
		return fmt.Errorf("work counts moved: %v", moved)
	}
	if len(allocs) > 0 {
		return fmt.Errorf("allocations grew beyond %.0f%%: %v", allocTolerance*100, allocs)
	}
	if len(regressed) > 0 {
		return fmt.Errorf("throughput regression beyond %.0f%%: %v", tolerance*100, regressed)
	}
	return nil
}
