package experiments

import (
	"fmt"

	"github.com/coda-repro/coda/internal/core"
	"github.com/coda-repro/coda/internal/sched"
	"github.com/coda-repro/coda/internal/sim"
)

// BenchInvariantsEvery is the full-audit cadence the invariants bench
// variant runs with: the O(Δ) delta check fires after every event and the
// full audit every this many events — the production-shaped configuration
// the delta checker was built for (tests still audit fully per event).
const BenchInvariantsEvery = 1000

// benchBoundedAbove is the job count past which BenchSpec bounds its result
// containers: per-job history capped and queue CDFs sketched. Below it the
// macro numbers stay byte-compatible with the historical exact-result runs;
// above it an unbounded result would itself be O(jobs) memory and defeat
// the streaming intake (a warehouse run's 1M JobStats records dwarf the
// engine's working set).
const benchBoundedAbove = 200_000

// benchMaxJobStats is the per-job history cap for bounded macro runs.
const benchMaxJobStats = 10_000

// BenchSpec declares one macro-benchmark run: the scale's trace streamed
// under one scheduler ("fifo", "drf" or "coda"), optionally with the
// invariant checker on in its delta-plus-cadence configuration.
// cmd/coda-bench times spec.Run() around this to report events/sec and
// placement-queries/sec.
func BenchSpec(sc Scale, scheduler string, invariants bool) (sim.RunSpec, error) {
	if err := sc.Validate(); err != nil {
		return sim.RunSpec{}, err
	}
	cfg := sc.traceConfig()
	opts := sc.simOptions()
	opts.Invariants = invariants
	if invariants {
		opts.InvariantsEvery = BenchInvariantsEvery
	}
	if sc.CPUJobs+sc.GPUJobs > benchBoundedAbove {
		opts.MaxJobStats = benchMaxJobStats
		opts.CompactCDFs = true
	}
	var newScheduler func() (sched.Scheduler, error)
	switch scheduler {
	case "fifo":
		newScheduler = newFIFO()
	case "drf":
		newScheduler = newDRF(opts.Cluster)
	case "coda":
		newScheduler = newCODA(core.DefaultConfig(), opts.Cluster)
	default:
		return sim.RunSpec{}, fmt.Errorf("experiments: unknown bench scheduler %q", scheduler)
	}
	name := "macro-" + scheduler
	if invariants {
		name += "-inv"
	}
	return sim.RunSpec{Name: name, Options: opts, Trace: &cfg, NewScheduler: newScheduler}, nil
}

// MemGateSpec builds the run the intake memory gate times: the scale's
// trace streamed under FIFO with per-job history capped and queue CDFs
// sketched, so every deliberately-O(jobs) consumer is off. What remains —
// intake, event queue, in-flight population, sampled series — must be flat
// in the job count; cmd/coda-bench's memgate section asserts that by
// running this spec at growing job counts with a fixed arrival rate and
// comparing retained heap per job.
func MemGateSpec(sc Scale) (sim.RunSpec, error) {
	if err := sc.Validate(); err != nil {
		return sim.RunSpec{}, err
	}
	cfg := sc.traceConfig()
	opts := sc.simOptions()
	opts.MaxJobStats = 2000
	opts.CompactCDFs = true
	// Hold the sampled-series length constant across scale points so the
	// gate measures intake, not sampling cadence.
	opts.SampleInterval = sc.Duration() / 256
	return sim.RunSpec{
		Name:         fmt.Sprintf("memgate-%dj", sc.CPUJobs+sc.GPUJobs),
		Options:      opts,
		Trace:        &cfg,
		NewScheduler: newFIFO(),
	}, nil
}
