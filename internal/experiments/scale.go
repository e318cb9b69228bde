// Package experiments regenerates every table and figure of the paper's
// evaluation (§III characterization and §VI evaluation). Each experiment
// returns typed rows carrying both the measured value and the paper's
// reported value so reports can print paper-vs-measured side by side.
//
// The headline comparison (Figs. 10-14, §VI-C, §VI-E) replays one
// synthetic trace under FIFO, DRF and CODA on the same simulated cluster.
// Experiments accept a Scale so tests and benchmarks can run shrunken
// traces while cmd/coda-bench reproduces the full month.
package experiments

import (
	"fmt"
	"time"

	"github.com/coda-repro/coda/internal/cluster"
	"github.com/coda-repro/coda/internal/sim"
	"github.com/coda-repro/coda/internal/trace"
)

// Scale sizes an experiment's trace and cluster. The paper's operating
// point is 30 days, 75,000 CPU jobs and 25,000 GPU jobs on 80 nodes; the
// job-to-day ratio must stay near the paper's for load realism.
type Scale struct {
	// Seed drives trace generation and simulation noise.
	Seed int64
	// Days is the trace duration.
	Days float64
	// CPUJobs and GPUJobs are the job counts.
	CPUJobs, GPUJobs int
	// Nodes is the cluster size (cores/GPUs per node stay at the paper's).
	Nodes int
}

// FullScale is the paper's one-month operating point.
func FullScale() Scale {
	return Scale{Seed: 1, Days: 30, CPUJobs: 75000, GPUJobs: 25000, Nodes: 80}
}

// SmallScale is a 3-day replay at the same load (for local runs).
func SmallScale() Scale {
	return Scale{Seed: 1, Days: 3, CPUJobs: 7500, GPUJobs: 2500, Nodes: 80}
}

// TinyScale is a 1-day replay (for tests and benchmarks).
func TinyScale() Scale {
	return Scale{Seed: 1, Days: 1, CPUJobs: 2500, GPUJobs: 833, Nodes: 80}
}

// WarehouseScale is the operating point the streaming intake exists for: a
// 5,000-node warehouse serving a million jobs in a simulated week, the
// same arrival rate as the paper's month scaled ~40x. Only the bounded
// specs (BenchSpec, MemGateSpec) are viable here — keeping per-job history
// is exactly the O(jobs) memory the streaming intake removed. The
// documented ceiling of the same shape is the 25M-job month: Days 30,
// CPUJobs 18,750,000, GPUJobs 6,250,000.
func WarehouseScale() Scale {
	return Scale{Seed: 1, Days: 7, CPUJobs: 750_000, GPUJobs: 250_000, Nodes: 5000}
}

// Validate checks the scale.
func (s Scale) Validate() error {
	if s.Days <= 0 {
		return fmt.Errorf("experiments: days must be positive, got %g", s.Days)
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

// traceConfig builds the generator configuration.
func (s Scale) traceConfig() trace.Config {
	cfg := trace.DefaultConfig()
	cfg.Seed = s.Seed
	cfg.Duration = s.Duration()
	cfg.CPUJobs = s.CPUJobs
	cfg.GPUJobs = s.GPUJobs
	return cfg
}

// clusterConfig builds the cluster shape.
func (s Scale) clusterConfig() cluster.Config {
	cfg := cluster.DefaultConfig()
	cfg.Nodes = s.Nodes
	return cfg
}

// simOptions builds the simulation options.
func (s Scale) simOptions() sim.Options {
	opts := sim.DefaultOptions()
	opts.Cluster = s.clusterConfig()
	opts.Seed = s.Seed + 1000
	opts.SampleInterval = 10 * time.Minute
	// Bound the drain tail: four extra days covers the longest jobs even
	// under heavy slowdown.
	opts.MaxVirtualTime = s.Duration() + 4*24*time.Hour
	return opts
}
