package sim

import (
	"fmt"

	"github.com/coda-repro/coda/internal/sched"
	"github.com/coda-repro/coda/internal/trace"
)

// Clone returns a deep copy of the options. Options is a value type except
// for the fault plan's fixed-fault slice; CheckpointSink is a function
// value and is shared by the copy — give each run its own sink explicitly
// when runs must not write into the same checkpoint stream.
func (o Options) Clone() Options {
	o.Faults = o.Faults.Clone()
	return o
}

// RunSpec is a self-contained description of one simulation run: options,
// trace config and scheduler recipe. A spec is a plain value that can be
// cloned, so one spec can seed many runs (a seed sweep, a matrix cell)
// without the runs sharing any mutable state.
//
// Schedulers are stateful and cannot be copied, so the spec carries a
// factory instead of an instance: NewScheduler must build a fresh scheduler
// on every call and must not capture mutable state shared with other specs.
// Runs over an explicit job list build their simulator with New instead.
type RunSpec struct {
	// Name labels the run in results, errors and reports.
	Name string
	// Options configures the simulator.
	Options Options
	// Trace is the seeded trace the run streams: each run (and each clone)
	// constructs its own trace.Source from this config, so intake memory
	// stays O(1) in the job count. Required.
	Trace *trace.Config
	// NewScheduler builds the run's scheduler.
	NewScheduler func() (sched.Scheduler, error)
}

// Clone returns a deep copy of the spec: options (including the fault
// plan) and the trace config are copied; the scheduler factory is shared,
// which is safe exactly because it constructs a fresh scheduler per call.
func (sp RunSpec) Clone() RunSpec {
	sp.Options = sp.Options.Clone()
	if sp.Trace != nil {
		cfg := *sp.Trace
		sp.Trace = &cfg
	}
	return sp
}

// JobCount returns how many jobs the spec will submit (zero without a
// trace): arithmetic on the trace config, not a walk of the jobs.
func (sp RunSpec) JobCount() int {
	if sp.Trace == nil {
		return 0
	}
	return sp.Trace.CPUJobs + sp.Trace.GPUJobs
}

// Validate checks the spec without building anything.
func (sp RunSpec) Validate() error {
	if sp.NewScheduler == nil {
		return fmt.Errorf("sim: run spec %q has no scheduler factory", sp.Name)
	}
	if sp.Trace == nil {
		return fmt.Errorf("sim: run spec %q has no trace", sp.Name)
	}
	if err := sp.Trace.Validate(); err != nil {
		return fmt.Errorf("sim: run spec %q: %w", sp.Name, err)
	}
	if err := sp.Options.Validate(); err != nil {
		return fmt.Errorf("sim: run spec %q: %w", sp.Name, err)
	}
	return nil
}

// Run executes the spec on the calling goroutine: validate it, build the
// scheduler and the streaming simulator, run to completion. It is the
// single-threaded unit of work the runner package parallelizes across specs.
func (sp RunSpec) Run() (*Result, error) {
	if err := sp.Validate(); err != nil {
		return nil, err
	}
	scheduler, err := sp.NewScheduler()
	if err != nil {
		return nil, fmt.Errorf("sim: run %q: %w", sp.Name, err)
	}
	src, err := trace.NewSource(*sp.Trace)
	if err != nil {
		return nil, fmt.Errorf("sim: run %q: %w", sp.Name, err)
	}
	simulator, err := NewStreaming(sp.Options, scheduler, src)
	if err != nil {
		return nil, fmt.Errorf("sim: run %q: %w", sp.Name, err)
	}
	res, err := simulator.Run()
	if err != nil {
		return nil, fmt.Errorf("sim: run %q: %w", sp.Name, err)
	}
	return res, nil
}
