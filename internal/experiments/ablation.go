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

	// Five sequential jobs from the same tenant, spaced far apart so each
	// finishes before the next arrives.
	makeJobs := func() []*job.Job {
		jobs := make([]*job.Job, 5)
		for i := range jobs {
			jobs[i] = &job.Job{
				ID: job.ID(i + 1), Kind: job.KindGPUTraining, Tenant: 1,
				Category: model.Category, Model: model.Name,
				Request: job.Request{CPUCores: 2, GPUs: 1, Nodes: 1},
				Arrival: time.Duration(i) * 3 * time.Hour,
				Work:    time.Hour,
			}
		}
		return jobs
	}

	run := func(cfg core.Config) (float64, error) {
		coda, err := core.New(cfg, opts.Cluster.Nodes, opts.Cluster.CoresPerNode, opts.Cluster.GPUsPerNode)
		if err != nil {
			return 0, err
		}
		simulator, err := sim.New(opts, coda, makeJobs())
		if err != nil {
			return 0, err
		}
		if _, err := simulator.Run(); err != nil {
			return 0, err
		}
		// Average the later jobs' step counts (job 1 has no history either
		// way).
		sum, n := 0, 0
		for id := job.ID(2); id <= 5; id++ {
			if steps, ok := coda.Allocator().ProfileSteps(id); ok {
				sum += steps
				n++
			}
		}
		if n == 0 {
			return 0, nil
		}
		return float64(sum) / float64(n), nil
	}

	seeded, err := run(core.DefaultConfig())
	if err != nil {
		return NstartAblationResult{}, err
	}
	// Fixed seeding: simulate "no history" by running each job in its own
	// scheduler instance (fresh log every time).
	fixedSum, fixedN := 0.0, 0
	for i := 0; i < 4; i++ {
		coda, err := core.New(core.DefaultConfig(), opts.Cluster.Nodes, opts.Cluster.CoresPerNode, opts.Cluster.GPUsPerNode)
		if err != nil {
			return NstartAblationResult{}, err
		}
		j := &job.Job{
			ID: 1, Kind: job.KindGPUTraining, Tenant: 1,
			Category: model.Category, Model: model.Name,
			Request: job.Request{CPUCores: 2, GPUs: 1, Nodes: 1},
			Work:    time.Hour,
		}
		o := opts
		o.Seed = seed + int64(i)
		simulator, err := sim.New(o, coda, []*job.Job{j})
		if err != nil {
			return NstartAblationResult{}, err
		}
		if _, err := simulator.Run(); err != nil {
			return NstartAblationResult{}, err
		}
		if steps, ok := coda.Allocator().ProfileSteps(1); ok {
			fixedSum += float64(steps)
			fixedN++
		}
	}
	res := NstartAblationResult{SeededSteps: seeded}
	if fixedN > 0 {
		res.FixedSteps = fixedSum / float64(fixedN)
	}
	return res, nil
}
