// Package experiments regenerates every table and figure of the paper's
// evaluation (§III characterization and §VI evaluation). Each experiment
// returns typed rows carrying both the measured value and the paper's
// reported value so reports can print paper-vs-measured side by side.
//
// The headline comparison (Figs. 10-14, §VI-C, §VI-E) replays one
// synthetic trace under FIFO, DRF and CODA on the same simulated cluster.
// Experiments accept a Scale so tests and benchmarks can run shrunken
// traces while cmd/coda-bench reproduces the full month.
//
// The package is also the one place that knows how a run is built: the
// scale presets (ParseScale), the policy table (Policy), the spec builder
// (Scale.Spec) and the result bound (BoundResults) serve every CLI, every
// experiment and every soak recipe.
package experiments

import (
	"fmt"
	"math"
	"strings"
	"time"

	"github.com/coda-repro/coda/internal/cluster"
	"github.com/coda-repro/coda/internal/core"
	"github.com/coda-repro/coda/internal/sched"
	"github.com/coda-repro/coda/internal/sim"
	"github.com/coda-repro/coda/internal/trace"
)

// Scale sizes a run's trace and cluster. The paper's operating point is 30
// days, 75,000 CPU jobs and 25,000 GPU jobs on 80 nodes; the job-to-day
// ratio must stay near the paper's for load realism. The JSON form is the
// one soak reports restate; the seed is per cell, so it is not encoded.
type Scale struct {
	// Name is the preset name; shapes built from flags have none.
	Name string `json:"name"`
	// Seed drives trace generation and simulation noise.
	Seed int64 `json:"-"`
	// Days is the trace duration.
	Days float64 `json:"days"`
	// CPUJobs and GPUJobs are the job counts.
	CPUJobs int `json:"cpuJobs"`
	GPUJobs int `json:"gpuJobs"`
	// Nodes is the cluster size (cores/GPUs per node stay at the paper's).
	Nodes int `json:"nodes"`
}

// CIScale is sized for CI under -race: half a simulated day on a 24-node
// cluster — 120 GPUs against ~675 expected GPU-hours of demand, enough
// headroom that soak verdicts measure the scheduler, not the luck of one
// 100-job sample path (a heavy draw can reach ~800 GPU-hours with a
// 100-GPU instantaneous peak).
func CIScale() Scale {
	return Scale{Name: "ci", Seed: 1, Days: 0.5, CPUJobs: 300, GPUJobs: 100, Nodes: 24}
}

// TinyScale is a 1-day replay (for tests and benchmarks).
func TinyScale() Scale {
	return Scale{Name: "tiny", Seed: 1, Days: 1, CPUJobs: 2500, GPUJobs: 833, Nodes: 80}
}

// SmallScale is a 3-day replay at the same load (for local runs).
func SmallScale() Scale {
	return Scale{Name: "small", Seed: 1, Days: 3, CPUJobs: 7500, GPUJobs: 2500, Nodes: 80}
}

// FullScale is the paper's one-month operating point.
func FullScale() Scale {
	return Scale{Name: "full", Seed: 1, Days: 30, CPUJobs: 75000, GPUJobs: 25000, Nodes: 80}
}

// WarehouseScale is the operating point the streaming intake exists for: a
// 5,000-node warehouse serving a million jobs in a simulated week, the
// same arrival rate as the paper's month scaled ~40x. Only bounded results
// (BoundResults) are viable here — keeping per-job history is exactly the
// O(jobs) memory the streaming intake removed. The documented ceiling of
// the same shape is the 25M-job month: Days 30, CPUJobs 18,750,000,
// GPUJobs 6,250,000.
func WarehouseScale() Scale {
	return Scale{Name: "warehouse", Seed: 1, Days: 7, CPUJobs: 750_000, GPUJobs: 250_000, Nodes: 5000}
}

// presets is the one preset table every -scale flag resolves through.
var presets = []func() Scale{CIScale, TinyScale, SmallScale, FullScale, WarehouseScale}

// ParseScale resolves a preset name.
func ParseScale(name string) (Scale, error) {
	names := make([]string, len(presets))
	for i, preset := range presets {
		sc := preset()
		if sc.Name == name {
			return sc, nil
		}
		names[i] = sc.Name
	}
	return Scale{}, fmt.Errorf("experiments: unknown scale %q (want %s)", name, strings.Join(names, ", "))
}

// drainTail bounds how long a run may go on past its trace span: four
// extra days cover the longest jobs even under heavy slowdown.
const drainTail = 4 * 24 * time.Hour

// maxDays is the longest span, in whole days, whose run (span plus drain
// tail) still fits time.Duration's int64 nanoseconds: about 292 years.
const maxDays = float64((math.MaxInt64 - drainTail) / (24 * time.Hour))

// Validate rejects degenerate shapes before any trace generation happens.
func (s Scale) Validate() error {
	if math.IsNaN(s.Days) || math.IsInf(s.Days, 0) || s.Days <= 0 {
		return fmt.Errorf("experiments: days must be finite and positive, got %g", s.Days)
	}
	if s.Days > maxDays {
		return fmt.Errorf("experiments: days must be at most %g, the longest run a time.Duration holds, got %g", maxDays, s.Days)
	}
	if s.CPUJobs < 0 || s.GPUJobs <= 0 {
		return fmt.Errorf("experiments: bad job counts (%d cpu, %d gpu)", s.CPUJobs, s.GPUJobs)
	}
	if s.Nodes <= 0 {
		return fmt.Errorf("experiments: nodes must be positive, got %d", s.Nodes)
	}
	return nil
}

// Duration returns the trace span.
func (s Scale) Duration() time.Duration {
	return time.Duration(s.Days * float64(24) * float64(time.Hour))
}

// TraceConfig builds the generator configuration.
func (s Scale) TraceConfig() trace.Config {
	cfg := trace.DefaultConfig()
	cfg.Seed = s.Seed
	cfg.Duration = s.Duration()
	cfg.CPUJobs = s.CPUJobs
	cfg.GPUJobs = s.GPUJobs
	return cfg
}

// Options builds the simulation options. The measurement-noise stream is
// seeded at Seed+1000, so it never collides with the trace seed or with a
// fault plan seeded at Seed.
func (s Scale) Options() sim.Options {
	opts := sim.DefaultOptions()
	opts.Cluster.Nodes = s.Nodes
	opts.Seed = s.Seed + 1000
	opts.SampleInterval = 10 * time.Minute
	opts.MaxVirtualTime = s.Duration() + drainTail
	return opts
}

// Spec declares a run of the scale's trace under the named policy (see
// Policy; cfg configures CODA), named after the policy. The scheduler
// factory captures the cluster of Options: a caller that changes
// Options.Cluster afterwards must build its factory again.
func (s Scale) Spec(policy string, cfg core.Config) sim.RunSpec {
	tr := s.TraceConfig()
	opts := s.Options()
	return sim.RunSpec{Name: policy, Options: opts, Trace: &tr, NewScheduler: Policy(policy, cfg, opts.Cluster)}
}

// Policy returns a factory for the named scheduling policy on cluster cc:
// "fifo", "drf", "static" or "coda", which cfg configures. DRF divides all
// cores and the GPU nodes' GPUs. An unknown name gives a factory that
// returns the error. Each call of the factory builds a fresh scheduler, so
// concurrent runs never share one.
func Policy(name string, cfg core.Config, cc cluster.Config) func() (sched.Scheduler, error) {
	switch name {
	case "fifo":
		return func() (sched.Scheduler, error) { return sched.NewFIFO(), nil }
	case "drf":
		return func() (sched.Scheduler, error) {
			return sched.NewDRF(cc.TotalNodes()*cc.CoresPerNode, cc.Nodes*cc.GPUsPerNode)
		}
	case "static":
		return func() (sched.Scheduler, error) { return sched.NewStatic(cc.CoresPerNode, cc.GPUsPerNode), nil }
	case "coda":
		return func() (sched.Scheduler, error) { return core.NewForCluster(cfg, cc) }
	}
	err := fmt.Errorf("experiments: unknown scheduler %q (want fifo, drf, static or coda)", name)
	return func() (sched.Scheduler, error) { return nil, err }
}

// Result bounds: past boundedAbove jobs an exact result is itself O(jobs)
// memory and defeats the streaming intake (a warehouse run's 1M JobStats
// records dwarf the engine's working set). Below it results stay exact, so
// the macro numbers stay byte-compatible with the historical runs.
const (
	boundedAbove    = 200_000
	boundedJobStats = 10_000
)

// BoundResults caps the per-job history at 10,000 records and sketches the
// queue CDFs when a run replays more than 200,000 jobs, and reports whether
// it did.
func BoundResults(opts *sim.Options, jobs int) bool {
	if jobs <= boundedAbove {
		return false
	}
	opts.MaxJobStats = boundedJobStats
	opts.CompactCDFs = true
	return true
}
