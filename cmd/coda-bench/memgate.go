package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"github.com/coda-repro/coda/internal/experiments"
	"github.com/coda-repro/coda/internal/sim"
)

// memGateEntry is one machine-readable memory/scale measurement. The
// memgate section emits one per job-count multiplier; the scalecurve
// section emits one per preset (BENCH_scale_curve.json).
type memGateEntry struct {
	Name             string  `json:"name"`
	Scale            string  `json:"scale"`
	Jobs             int     `json:"jobs"`
	Nodes            int     `json:"nodes"`
	Days             float64 `json:"days"`
	Events           int64   `json:"events"`
	PlacementQueries int64   `json:"placement_queries"`
	WallNs           int64   `json:"wall_ns"`
	EventsPerSec     float64 `json:"events_per_sec"`
	QueriesPerSec    float64 `json:"placement_queries_per_sec"`
	PeakHeapBytes    uint64  `json:"peak_heap_bytes"`
	LiveHeapBytes    uint64  `json:"live_heap_bytes"`
	// BytesPerJob is this point's peak heap growth over the process baseline
	// divided by its job count — an upper bound on intake cost per job.
	BytesPerJob float64 `json:"bytes_per_job"`
}

// heapWatcher samples the live heap in the background and remembers the
// peak. Peak live heap — not retained heap after the run — is what decides
// whether a warehouse run fits in memory, and Go exposes no direct peak
// counter, so we poll.
type heapWatcher struct {
	stop chan struct{}
	done chan struct{}
	peak uint64
}

func watchHeap() *heapWatcher {
	w := &heapWatcher{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(w.done)
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		var ms runtime.MemStats
		for {
			select {
			case <-w.stop:
				return
			case <-tick.C:
				runtime.ReadMemStats(&ms)
				if ms.HeapAlloc > w.peak {
					w.peak = ms.HeapAlloc
				}
			}
		}
	}()
	return w
}

// Peak stops the watcher and returns the highest live heap it saw.
func (w *heapWatcher) Peak() uint64 {
	close(w.stop)
	<-w.done
	return w.peak
}

// runInstrumented executes one spec while watching the heap. It returns the
// run result plus wall time, peak live heap above the pre-run baseline, and
// the retained heap with the result still reachable.
func runInstrumented(spec sim.RunSpec) (res *sim.Result, wall time.Duration, peakAbove, live uint64, err error) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	w := watchHeap()
	start := time.Now()
	res, err = spec.Run()
	wall = time.Since(start)
	peak := w.Peak()
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(res)
	if err != nil {
		return nil, 0, 0, 0, fmt.Errorf("%s: %w", spec.Name, err)
	}
	if peak > before.HeapAlloc {
		peakAbove = peak - before.HeapAlloc
	}
	if after.HeapAlloc > before.HeapAlloc {
		live = after.HeapAlloc - before.HeapAlloc
	}
	return res, wall, peakAbove, live, nil
}

// measureEntry runs spec, a run of the scale sc's trace, and reduces it to
// one measurement row.
func measureEntry(spec sim.RunSpec, scaleName string, sc experiments.Scale) (memGateEntry, time.Duration, error) {
	res, wall, peak, live, err := runInstrumented(spec)
	if err != nil {
		return memGateEntry{}, 0, err
	}
	jobs := sc.CPUJobs + sc.GPUJobs
	e := memGateEntry{
		Name:             spec.Name,
		Scale:            scaleName,
		Jobs:             jobs,
		Nodes:            sc.Nodes,
		Days:             sc.Days,
		Events:           res.Events,
		PlacementQueries: res.PlacementQueries,
		WallNs:           wall.Nanoseconds(),
		PeakHeapBytes:    peak,
		LiveHeapBytes:    live,
		BytesPerJob:      float64(peak) / float64(jobs),
	}
	if secs := wall.Seconds(); secs > 0 {
		e.EventsPerSec = float64(e.Events) / secs
		e.QueriesPerSec = float64(e.PlacementQueries) / secs
	}
	return e, wall, nil
}

// memGateMultipliers are the job-count factors the gate compares. Duration
// scales with the job count so the arrival rate — and hence the in-flight
// population, the one legitimate O(load) consumer — stays fixed; only the
// trace length grows.
var memGateMultipliers = []int{1, 4, 8}

// printMemGate is the CI memory gate: it runs MemGateSpec at growing
// multiples of the chosen scale's job count and fails when peak heap grows
// faster than maxBytesPerJob per extra job. With streaming intake the slope
// is near zero; a rematerialized trace (~500+ bytes/job) trips the gate
// immediately.
func printMemGate(sc experiments.Scale, scaleName, jsonPath string, maxBytesPerJob float64) error {
	header(fmt.Sprintf("Memory gate — %s scale x%v, seed %d", scaleName, memGateMultipliers, sc.Seed))
	entries := make([]memGateEntry, 0, len(memGateMultipliers))
	for _, mult := range memGateMultipliers {
		pt := sc
		pt.Days = sc.Days * float64(mult)
		pt.CPUJobs = sc.CPUJobs * mult
		pt.GPUJobs = sc.GPUJobs * mult
		spec, err := experiments.MemGateSpec(pt)
		if err != nil {
			return err
		}
		e, wall, err := measureEntry(spec, scaleName, pt)
		if err != nil {
			return err
		}
		entries = append(entries, e)
		fmt.Printf("  %-18s %8d jobs  peak heap %7.1f MiB  live %6.1f MiB  %6.1f B/job  (%v)\n",
			e.Name, e.Jobs, float64(e.PeakHeapBytes)/(1<<20), float64(e.LiveHeapBytes)/(1<<20),
			e.BytesPerJob, wall.Truncate(time.Millisecond))
	}
	if jsonPath != "" {
		if err := writeMemGateJSON(jsonPath, entries); err != nil {
			return err
		}
		fmt.Printf("  wrote %s\n", jsonPath)
	}
	first, last := entries[0], entries[len(entries)-1]
	slope := 0.0
	if dj := last.Jobs - first.Jobs; dj > 0 && last.PeakHeapBytes > first.PeakHeapBytes {
		slope = float64(last.PeakHeapBytes-first.PeakHeapBytes) / float64(dj)
	}
	fmt.Printf("  peak-heap slope %.1f bytes/job across %dx job growth (gate: %.0f)\n",
		slope, memGateMultipliers[len(memGateMultipliers)-1], maxBytesPerJob)
	if slope > maxBytesPerJob {
		return fmt.Errorf("intake memory is not flat: peak heap grew %.1f bytes per extra job (gate %.0f) — %d jobs: %.1f MiB, %d jobs: %.1f MiB",
			slope, maxBytesPerJob, first.Jobs, float64(first.PeakHeapBytes)/(1<<20),
			last.Jobs, float64(last.PeakHeapBytes)/(1<<20))
	}
	return nil
}

// scaleCurvePresets are the committed BENCH_scale_curve.json presets,
// tiny through warehouse.
var scaleCurvePresets = []struct {
	name  string
	scale func() experiments.Scale
}{
	{"tiny", experiments.TinyScale},
	{"small", experiments.SmallScale},
	{"full", experiments.FullScale},
	{"warehouse", experiments.WarehouseScale},
}

// printScaleCurveBench measures events/sec and peak heap at every preset,
// two rows each: FIFO streaming with bounded results (MemGateSpec), and
// CODA as the macro benchmark runs it (BenchSpec, whose results are
// bounded above 200k jobs). It backs EXPERIMENTS.md's scale-curve table;
// the warehouse rows are the million-job / 5,000-node runs the streaming
// refactor exists for.
func printScaleCurveBench(seed int64, jsonPath string) error {
	header(fmt.Sprintf("Scale curve — streaming FIFO and CODA at every preset, seed %d", seed))
	entries := make([]memGateEntry, 0, 2*len(scaleCurvePresets))
	for _, p := range scaleCurvePresets {
		sc := p.scale()
		sc.Seed = seed
		fifo, err := experiments.MemGateSpec(sc)
		if err != nil {
			return err
		}
		fifo.Name = "curve-" + p.name
		coda, err := experiments.BenchSpec(sc, "coda", false)
		if err != nil {
			return err
		}
		coda.Name = "curve-" + p.name + "-coda"
		for _, spec := range []sim.RunSpec{fifo, coda} {
			e, wall, err := measureEntry(spec, p.name, sc)
			if err != nil {
				return err
			}
			entries = append(entries, e)
			fmt.Printf("  %-21s %8d jobs  %5d nodes  %9d events  %8.0f events/sec  %8.0f queries/sec  peak heap %7.1f MiB  (%v)\n",
				e.Name, e.Jobs, e.Nodes, e.Events, e.EventsPerSec, e.QueriesPerSec,
				float64(e.PeakHeapBytes)/(1<<20), wall.Truncate(time.Millisecond))
		}
	}
	if jsonPath != "" {
		if err := writeMemGateJSON(jsonPath, entries); err != nil {
			return err
		}
		fmt.Printf("  wrote %s\n", jsonPath)
	}
	return nil
}

func writeMemGateJSON(path string, entries []memGateEntry) error {
	data, err := json.MarshalIndent(entries, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
