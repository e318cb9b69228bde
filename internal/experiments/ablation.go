package experiments

import (
	"fmt"
	"time"

	"github.com/coda-repro/coda/internal/core"
	"github.com/coda-repro/coda/internal/job"
	"github.com/coda-repro/coda/internal/perfmodel"
	"github.com/coda-repro/coda/internal/runner"
	"github.com/coda-repro/coda/internal/sim"
	"github.com/coda-repro/coda/internal/trace"
)

// AblationResult compares full CODA against one disabled design choice.
type AblationResult struct {
	// Name identifies the ablation.
	Name string
	// FullUtil / AblatedUtil are mean GPU utilizations; FullImmediate /
	// AblatedImmediate are the fractions of GPU jobs starting instantly.
	FullUtil, AblatedUtil           float64
	FullImmediate, AblatedImmediate float64
}

// ablate runs one CODA variant against the cached full-CODA run.
func ablate(sc Scale, name string, cfg core.Config) (AblationResult, error) {
	c, err := RunComparison(sc)
	if err != nil {
		return AblationResult{}, err
	}
	variant, err := RunCODAVariant(sc, cfg)
	if err != nil {
		return AblationResult{}, err
	}
	full := c.CODA
	return AblationResult{
		Name:             name,
		FullUtil:         sim.WindowMean(&full.GPUUtilSeries, full.LastArrival),
		AblatedUtil:      sim.WindowMean(&variant.GPUUtilSeries, variant.LastArrival),
		FullImmediate:    full.GPUQueue.FractionAtMost(0),
		AblatedImmediate: variant.GPUQueue.FractionAtMost(0),
	}, nil
}

// AblationAdaptiveAllocation disables the adaptive CPU allocator (jobs run
// with the cores their owners requested), isolating its contribution to
// GPU utilization (DESIGN.md ablation index).
func AblationAdaptiveAllocation(sc Scale) (AblationResult, error) {
	cfg := core.DefaultConfig()
	cfg.DisableAdaptiveAllocation = true
	return ablate(sc, "adaptive-allocation-off", cfg)
}

// AblationRebalance freezes the multi-array resource split at its initial
// configuration, isolating the history-driven rebalance.
func AblationRebalance(sc Scale) (AblationResult, error) {
	cfg := core.DefaultConfig()
	cfg.RebalanceEvery = 0
	return ablate(sc, "rebalance-off", cfg)
}

// AblationPreemption disables cross-array preemption: CPU jobs that
// borrowed reserve cores keep them until completion, so arriving GPU jobs
// must wait (isolates §V-C's reclaim mechanism).
func AblationPreemption(sc Scale) (AblationResult, error) {
	cfg := core.DefaultConfig()
	cfg.DisablePreemption = true
	return ablate(sc, "preemption-off", cfg)
}

// ThresholdPoint is one setting of the eliminator-threshold sweep.
type ThresholdPoint struct {
	// Threshold is the node bandwidth-utilization trigger.
	Threshold float64
	// GPUUtil is the mean GPU utilization; Interventions counts throttles.
	GPUUtil       float64
	Interventions int
}

// EliminatorThresholdMatrix declares the threshold sweep: one cell per
// threshold, all replaying the same hog-heavy trace.
func EliminatorThresholdMatrix(sc Scale, thresholds []float64) (*runner.Matrix, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	stress := hogHeavyTrace(sc)
	m := &runner.Matrix{}
	for _, th := range thresholds {
		cfg := core.DefaultConfig()
		cfg.Eliminator.Threshold = th
		cfg.Eliminator.Release = th * 0.8
		spec := sc.Spec("coda", cfg)
		spec.Name = fmt.Sprintf("threshold=%g", th)
		spec.Trace = &stress
		m.Add(spec)
	}
	return m, nil
}

// AblationEliminatorThreshold sweeps the eliminator's bandwidth threshold
// around the paper's 75% default (§V-D), with an elevated hog fraction so
// the eliminator matters. Lower thresholds throttle CPU jobs more
// aggressively; higher ones let contention through.
func AblationEliminatorThreshold(sc Scale, thresholds []float64) ([]ThresholdPoint, error) {
	m, err := EliminatorThresholdMatrix(sc, thresholds)
	if err != nil {
		return nil, err
	}
	results, err := runMatrix(m)
	if err != nil {
		return nil, err
	}
	pts := make([]ThresholdPoint, 0, len(results))
	for i, res := range results {
		pts = append(pts, ThresholdPoint{
			Threshold:     thresholds[i],
			GPUUtil:       sim.WindowMean(&res.GPUUtilSeries, res.LastArrival),
			Interventions: res.Throttles,
		})
	}
	return pts, nil
}

// hogHeavyTrace is the scale's trace config with 5% bandwidth hogs (10x
// the paper's density) so contention effects are measurable at any scale.
func hogHeavyTrace(sc Scale) trace.Config {
	cfg := sc.TraceConfig()
	cfg.HogFraction = 0.05
	return cfg
}

// NstartAblationResult compares history-seeded against fixed-seed Nstart.
type NstartAblationResult struct {
	// SeededSteps and FixedSteps are the mean profiling-step counts with
	// history seeding on and off.
	SeededSteps, FixedSteps float64
}

// AblationNstartSeeding measures how much the owner-history seed shortens
// the allocator's search: a tenant submits the same model repeatedly; the
// second and later jobs should settle in fewer profiling steps than a
// fresh allocator would need.
func AblationNstartSeeding(seed int64) (NstartAblationResult, error) {
	model, err := perfmodel.Lookup("alexnet")
	if err != nil {
		return NstartAblationResult{}, err
	}
	opts := sim.DefaultOptions()
	opts.Cluster.Nodes = 2
	opts.Seed = seed
	opts.Service = true

	alexnet := func(id job.ID, arrival time.Duration) *job.Job {
		return &job.Job{
			ID: id, Kind: job.KindGPUTraining, Tenant: 1,
			Category: model.Category, Model: model.Name,
			Request: job.Request{CPUCores: 2, GPUs: 1, Nodes: 1},
			Arrival: arrival,
			Work:    time.Hour,
		}
	}

	// steps runs jobs under a fresh CODA and sums the profiling-step counts
	// of the jobs from ID first on. The allocator keeps a job's count only
	// while the job runs, so the simulator runs in service mode and reads
	// each count 30 min after the job's arrival: every job here holds 1 h
	// of work and settles within minutes.
	steps := func(o sim.Options, jobs []*job.Job, first job.ID) (sum, n int, err error) {
		coda, err := core.New(core.DefaultConfig(), o.Cluster.Nodes, o.Cluster.CoresPerNode, o.Cluster.GPUsPerNode)
		if err != nil {
			return 0, 0, err
		}
		simulator, err := sim.New(o, coda, jobs)
		if err != nil {
			return 0, 0, err
		}
		for _, j := range jobs {
			if err := simulator.RunUntil(j.Arrival + 30*time.Minute); err != nil {
				return 0, 0, err
			}
			if k, ok := coda.Allocator().ProfileSteps(j.ID); ok && j.ID >= first {
				sum += k
				n++
			}
		}
		return sum, n, nil
	}

	// Five sequential jobs from the same tenant, spaced far apart so each
	// finishes before the next arrives. Average the later jobs' step
	// counts (job 1 has no history either way).
	jobs := make([]*job.Job, 5)
	for i := range jobs {
		jobs[i] = alexnet(job.ID(i+1), time.Duration(i)*3*time.Hour)
	}
	sum, n, err := steps(opts, jobs, 2)
	if err != nil {
		return NstartAblationResult{}, err
	}
	var res NstartAblationResult
	if n > 0 {
		res.SeededSteps = float64(sum) / float64(n)
	}
	// Fixed seeding: simulate "no history" by running each job in its own
	// scheduler instance (fresh log every time).
	fixedSum, fixedN := 0, 0
	for i := 0; i < 4; i++ {
		o := opts
		o.Seed = seed + int64(i)
		sum, n, err := steps(o, []*job.Job{alexnet(1, 0)}, 1)
		if err != nil {
			return NstartAblationResult{}, err
		}
		fixedSum += sum
		fixedN += n
	}
	if fixedN > 0 {
		res.FixedSteps = float64(fixedSum) / float64(fixedN)
	}
	return res, nil
}
