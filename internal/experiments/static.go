package experiments

import (
	"time"

	"github.com/coda-repro/coda/internal/core"
	"github.com/coda-repro/coda/internal/sim"
)

// StaticResult compares the static-partition policy of the paper's
// introduction (split all cores evenly across GPUs, §I citing Jeon et
// al.) against the cached FIFO and CODA runs.
type StaticResult struct {
	// GPUUtil and CPUActiveRate are the static policy's means; the paper's
	// complaint is CPU underutilization under static splits.
	GPUUtil, CPUActiveRate float64
	// GPUImmediate and CPUWithin3Min are its queueing milestones.
	GPUImmediate, CPUWithin3Min float64
	// CODAUtil and FIFOUtil come from the shared comparison for context.
	CODAUtil, FIFOUtil float64
}

// StaticBaseline replays the scale's trace under the static-partition
// policy.
func StaticBaseline(sc Scale) (StaticResult, error) {
	c, err := RunComparison(sc)
	if err != nil {
		return StaticResult{}, err
	}
	res, err := sc.Spec("static", core.DefaultConfig()).Run()
	if err != nil {
		return StaticResult{}, err
	}
	return StaticResult{
		GPUUtil:       sim.WindowMean(&res.GPUUtilSeries, res.LastArrival),
		CPUActiveRate: sim.WindowMean(&res.CPUActive, res.LastArrival),
		GPUImmediate:  res.GPUQueue.FractionAtMost(0),
		CPUWithin3Min: res.CPUQueue.FractionAtMost(3 * time.Minute),
		CODAUtil:      sim.WindowMean(&c.CODA.GPUUtilSeries, c.CODA.LastArrival),
		FIFOUtil:      sim.WindowMean(&c.FIFO.GPUUtilSeries, c.FIFO.LastArrival),
	}, nil
}
