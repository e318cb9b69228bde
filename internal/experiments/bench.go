package experiments

import (
	"fmt"

	"github.com/coda-repro/coda/internal/core"
	"github.com/coda-repro/coda/internal/sim"
)

// BenchInvariantsEvery is the full-audit cadence the invariants bench
// variant runs with: the O(Δ) delta check fires after every event and the
// full audit every this many events — the production-shaped configuration
// the delta checker was built for (tests still audit fully per event).
const BenchInvariantsEvery = 1000

// BenchSpec declares one macro-benchmark run: the scale's trace streamed
// under one scheduler ("fifo", "drf" or "coda"), optionally with the
// invariant checker on in its delta-plus-cadence configuration, with
// results bounded above 200,000 jobs (BoundResults). cmd/coda-bench times
// spec.Run() around this to report events/sec and placement-queries/sec.
func BenchSpec(sc Scale, scheduler string, invariants bool) (sim.RunSpec, error) {
	if err := sc.Validate(); err != nil {
		return sim.RunSpec{}, err
	}
	spec := sc.Spec(scheduler, core.DefaultConfig())
	spec.Name = "macro-" + scheduler
	if invariants {
		spec.Name += "-inv"
		spec.Options.Invariants = true
		spec.Options.InvariantsEvery = BenchInvariantsEvery
	}
	BoundResults(&spec.Options, sc.CPUJobs+sc.GPUJobs)
	return spec, nil
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
	spec := sc.Spec("fifo", core.DefaultConfig())
	spec.Name = fmt.Sprintf("memgate-%dj", sc.CPUJobs+sc.GPUJobs)
	spec.Options.MaxJobStats = 2000
	spec.Options.CompactCDFs = true
	// Hold the sampled-series length constant across scale points so the
	// gate measures intake, not sampling cadence.
	spec.Options.SampleInterval = sc.Duration() / 256
	return spec, nil
}
