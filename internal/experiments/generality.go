package experiments

import (
	"fmt"
	"time"

	"github.com/coda-repro/coda/internal/core"
	"github.com/coda-repro/coda/internal/runner"
	"github.com/coda-repro/coda/internal/sim"
)

// GeneralityRow is one scheduler's outcome on the heterogeneous cluster
// of §VI-G (GPU nodes plus dedicated CPU nodes).
type GeneralityRow struct {
	// Scheduler is the policy.
	Scheduler string
	// GPUUtil is the mean GPU utilization; GPUImmediate and CPUWithin3Min
	// are the queueing milestones.
	GPUUtil, GPUImmediate, CPUWithin3Min float64
}

// GeneralityMatrix declares §VI-G's replay: the scale's trace on a
// cluster extended by cpuOnlyNodes pure-CPU nodes, under FIFO, DRF and
// CODA in that cell order.
func GeneralityMatrix(sc Scale, cpuOnlyNodes int) (*runner.Matrix, error) {
	if cpuOnlyNodes < 0 {
		return nil, fmt.Errorf("experiments: negative cpu-only nodes %d", cpuOnlyNodes)
	}
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	m := &runner.Matrix{}
	for _, policy := range headline {
		spec := sc.Spec(policy, core.DefaultConfig())
		spec.Options.Cluster.CPUOnlyNodes = cpuOnlyNodes
		spec.NewScheduler = Policy(policy, core.DefaultConfig(), spec.Options.Cluster)
		m.Add(spec)
	}
	return m, nil
}

// Generality reproduces §VI-G: on a cluster of GPU nodes plus dedicated
// CPU-only nodes, CODA's multi-array scheduling keeps GPU and CPU jobs
// from disturbing each other while the baselines keep their §VI-B
// weaknesses. The cluster keeps the paper's 400 GPUs (the GPU-node count
// is unchanged) and adds cpuOnlyNodes pure-CPU nodes.
func Generality(sc Scale, cpuOnlyNodes int) ([]GeneralityRow, error) {
	m, err := GeneralityMatrix(sc, cpuOnlyNodes)
	if err != nil {
		return nil, err
	}
	results, err := runMatrix(m)
	if err != nil {
		return nil, err
	}
	rows := make([]GeneralityRow, 0, len(results))
	for _, res := range results {
		rows = append(rows, GeneralityRow{
			Scheduler:     res.Scheduler,
			GPUUtil:       sim.WindowMean(&res.GPUUtilSeries, res.LastArrival),
			GPUImmediate:  res.GPUQueue.FractionAtMost(0),
			CPUWithin3Min: res.CPUQueue.FractionAtMost(3 * time.Minute),
		})
	}
	return rows, nil
}
