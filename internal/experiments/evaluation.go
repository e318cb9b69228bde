package experiments

import (
	"fmt"
	"time"

	"github.com/coda-repro/coda/internal/core"
	"github.com/coda-repro/coda/internal/job"
	"github.com/coda-repro/coda/internal/metrics"
	"github.com/coda-repro/coda/internal/perfmodel"
	"github.com/coda-repro/coda/internal/runner"
	"github.com/coda-repro/coda/internal/sim"
	"github.com/coda-repro/coda/internal/trace"
)

// peakWindow is the daily demand peak: the diurnal arrival pattern tops
// out around midday, so these are the hours "when the jobs queue up for
// the resource allocation" (Fig. 10's framing). Using identical wall-clock
// windows for every scheduler keeps the comparison apples-to-apples even
// though CODA rarely has a queue at all.
const (
	peakStartHour = 10
	peakEndHour   = 17
)

// peakMean averages a series over daily peak-hour samples.
func peakMean(s *metrics.Series, cutoff time.Duration) float64 {
	sum, n := 0.0, 0
	for i := 0; i < s.Len(); i++ {
		t, v := s.At(i)
		if t > cutoff {
			break
		}
		hour := int(t/time.Hour) % 24
		if hour >= peakStartHour && hour < peakEndHour {
			sum += v
			n++
		}
	}
	if n == 0 {
		return sim.WindowMean(s, cutoff)
	}
	return sum / float64(n)
}

// Fig10Row compares one scheduler's headline rates against the paper.
type Fig10Row struct {
	// Scheduler is the policy.
	Scheduler string
	// ActiveRate is the mean GPU active rate while GPU jobs queue (the
	// paper's framing); Util is the unconditional mean GPU utilization;
	// FragRate is the mean fragmentation rate while GPU jobs queue.
	ActiveRate, Util, FragRate float64
	// PaperActive, PaperUtil and PaperFrag are the published values
	// (§VI-B, §VI-C).
	PaperActive, PaperUtil, PaperFrag float64
}

// Fig10 reproduces Fig. 10 and §VI-C's fragmentation comparison.
func Fig10(c *Comparison) []Fig10Row {
	row := func(r *sim.Result, pa, pu, pf float64) Fig10Row {
		return Fig10Row{
			Scheduler:   r.Scheduler,
			ActiveRate:  peakMean(&r.GPUActive, r.LastArrival),
			Util:        sim.WindowMean(&r.GPUUtilSeries, r.LastArrival),
			FragRate:    peakMean(&r.FragSeries, r.LastArrival),
			PaperActive: pa, PaperUtil: pu, PaperFrag: pf,
		}
	}
	return []Fig10Row{
		row(c.FIFO, 0.835, 0.454, 0.143),
		row(c.DRF, 0.833, 0.447, 0.146),
		row(c.CODA, 0.912, 0.621, 0.01),
	}
}

// Fig11Row is one scheduler's queueing-time distribution.
type Fig11Row struct {
	// Scheduler is the policy.
	Scheduler string
	// GPUOver10Min / GPUOver1Hour are fractions of GPU jobs queueing past
	// those marks; GPUImmediate is the fraction starting without queueing;
	// CPUWithin10s / CPUWithin3Min are the CPU-job fractions.
	GPUOver10Min, GPUOver1Hour, GPUImmediate float64
	CPUWithin10s, CPUWithin3Min              float64
	// Paper columns where §VI-C reports them (negative = not reported).
	PaperGPUOver10Min, PaperGPUOver1Hour, PaperGPUImmediate float64
	PaperCPUWithin10s, PaperCPUWithin3Min                   float64
}

// Fig11 reproduces the queueing-time CDF milestones of Fig. 11 / §VI-C.
func Fig11(c *Comparison) []Fig11Row {
	row := func(r *sim.Result) Fig11Row {
		return Fig11Row{
			Scheduler:     r.Scheduler,
			GPUOver10Min:  r.GPUQueue.FractionAbove(10 * time.Minute),
			GPUOver1Hour:  r.GPUQueue.FractionAbove(time.Hour),
			GPUImmediate:  r.GPUQueue.FractionAtMost(0),
			CPUWithin10s:  r.CPUQueue.FractionAtMost(10 * time.Second),
			CPUWithin3Min: r.CPUQueue.FractionAtMost(3 * time.Minute),
		}
	}
	fifo := row(c.FIFO)
	fifo.PaperGPUOver10Min, fifo.PaperGPUOver1Hour = 0.431, 0.278
	fifo.PaperCPUWithin10s = 0.874
	fifo.PaperGPUImmediate, fifo.PaperCPUWithin3Min = -1, -1
	drf := row(c.DRF)
	drf.PaperGPUOver10Min, drf.PaperGPUOver1Hour = 0.289, 0.143
	drf.PaperCPUWithin10s = 0.878
	drf.PaperGPUImmediate, drf.PaperCPUWithin3Min = -1, -1
	coda := row(c.CODA)
	coda.PaperGPUImmediate = 0.921
	coda.PaperCPUWithin3Min = 0.945
	coda.PaperGPUOver10Min, coda.PaperGPUOver1Hour, coda.PaperCPUWithin10s = -1, -1, -1
	return []Fig11Row{fifo, drf, coda}
}

// CDFPoints exposes a scheduler's full queueing-time CDF for plotting
// (Fig. 11's curves). class is "gpu" or "cpu".
func CDFPoints(r *sim.Result, class string) []metrics.CDFPoint {
	if class == "cpu" {
		return r.CPUQueue.Points()
	}
	return r.GPUQueue.Points()
}

// Fig12Row is one tenant's 99th-percentile queueing time per scheduler.
type Fig12Row struct {
	// User is the tenant ID (1-20).
	User int
	// FIFO, DRF and CODA are the P99 queueing times.
	FIFO, DRF, CODA time.Duration
}

// Fig12 reproduces the per-user 99%-ile queueing times of Fig. 12.
func Fig12(c *Comparison) []Fig12Row {
	rows := make([]Fig12Row, 0, trace.NumTenants)
	for user := 1; user <= trace.NumTenants; user++ {
		rows = append(rows, Fig12Row{
			User: user,
			FIFO: c.FIFO.PerTenant.Percentile(user, 99),
			DRF:  c.DRF.PerTenant.Percentile(user, 99),
			CODA: c.CODA.PerTenant.Percentile(user, 99),
		})
	}
	return rows
}

// Fig13Row is one representative GPU job's end-to-end latency split.
type Fig13Row struct {
	// Model identifies the representative job (largest completed job of
	// each model in the trace).
	Model string
	// FIFOQueue/FIFORun and CODAQueue/CODARun split the end-to-end latency.
	FIFOQueue, FIFORun time.Duration
	CODAQueue, CODARun time.Duration
}

// Fig13 reproduces Fig. 13: per-representative-job queueing and processing
// time under FIFO vs CODA. The representative for each model is the
// longest-work 1N1G job that completed under both schedulers.
func Fig13(c *Comparison) []Fig13Row {
	best := make(map[string]job.ID)
	for id, js := range c.FIFO.Jobs {
		j := js.Job
		if !j.IsGPU() || j.Request.Nodes != 1 || j.Request.GPUs != 1 {
			continue
		}
		if !js.Completed {
			continue
		}
		codaJS, ok := c.CODA.Jobs[id]
		if !ok || !codaJS.Completed {
			continue
		}
		if cur, ok := best[j.Model]; !ok || j.Work > c.FIFO.Jobs[cur].Job.Work {
			best[j.Model] = id
		}
	}
	var rows []Fig13Row
	for _, model := range perfmodel.Names() {
		id, ok := best[model]
		if !ok {
			continue
		}
		f, d := c.FIFO.Jobs[id], c.CODA.Jobs[id]
		rows = append(rows, Fig13Row{
			Model:     model,
			FIFOQueue: f.QueueTime(),
			FIFORun:   f.EndToEnd() - f.QueueTime(),
			CODAQueue: d.QueueTime(),
			CODARun:   d.EndToEnd() - d.QueueTime(),
		})
	}
	return rows
}

// Fig14Result is the core-adjustment histogram of Fig. 14.
type Fig14Result struct {
	// More1to5 is the fraction of GPU jobs granted 1-5 more cores than
	// requested; Fewer1to20 the fraction granted 1-20 fewer; Unchanged the
	// rest near zero.
	More1to5, Fewer1to20, Unchanged float64
	// MoreTotal / FewerTotal are the full more/fewer fractions.
	MoreTotal, FewerTotal float64
	// PaperMore1to5 and PaperFewer1to20 are §VI-D's values.
	PaperMore1to5, PaperFewer1to20 float64
	// Histogram buckets the per-job delta (final - requested cores).
	Histogram *metrics.IntHistogram
}

// Fig14 reproduces Fig. 14: the distribution of CODA's core adjustments
// relative to the owners' requests.
func Fig14(c *Comparison) (Fig14Result, error) {
	hist, err := metrics.NewIntHistogram([]int{-20, -10, -5, -1, 0, 1, 2, 6, 11, 21})
	if err != nil {
		return Fig14Result{}, err
	}
	res := Fig14Result{PaperMore1to5: 0.571, PaperFewer1to20: 0.336, Histogram: hist}
	total := 0
	for _, js := range c.CODA.Jobs {
		if !js.Job.IsGPU() || !js.Started {
			continue
		}
		delta := js.FinalCores - js.Job.Request.CPUCores
		hist.Add(delta)
		total++
		switch {
		case delta >= 1 && delta <= 5:
			res.More1to5++
		case delta <= -1 && delta >= -20:
			res.Fewer1to20++
		}
		if delta > 0 {
			res.MoreTotal++
		}
		if delta < 0 {
			res.FewerTotal++
		}
	}
	if total > 0 {
		n := float64(total)
		res.More1to5 /= n
		res.Fewer1to20 /= n
		res.MoreTotal /= n
		res.FewerTotal /= n
		res.Unchanged = 1 - res.MoreTotal - res.FewerTotal
	}
	return res, nil
}

// Sec6EResult is the eliminator ablation of §VI-E.
type Sec6EResult struct {
	// UtilWithEliminator and UtilWithout are GPU utilizations while jobs
	// queue at the paper's 0.5% hog density; QueuedWith and QueuedWithout
	// are mean queued-job counts.
	UtilWithEliminator, UtilWithout float64
	QueuedWith, QueuedWithout       float64
	// Throttles counts eliminator interventions in the enabled run.
	Throttles int
	// StressUtilWith / StressUtilWithout and StressThrottles repeat the
	// ablation at a 5% hog density — §VI-E: "If more CPU jobs on the
	// cluster have higher memory bandwidth requirements, the performance
	// is worse without the contention eliminator."
	StressUtilWith, StressUtilWithout float64
	StressThrottles                   int
	// PaperUtilDrop is §VI-E's 2.3% utilization loss; PaperQueueFactor is
	// the reported doubling of queued tasks.
	PaperUtilDrop, PaperQueueFactor float64
}

// Sec6EMatrix declares the eliminator ablation's three extra runs (the
// eliminator-on baseline comes from the cached comparison): eliminator off
// on the scale's trace, then eliminator on and off on the 5% hog-density
// stress trace, in that cell order.
func Sec6EMatrix(sc Scale) (*runner.Matrix, error) {
	offCfg := core.DefaultConfig()
	offCfg.DisableEliminator = true
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	cfg, stress := sc.TraceConfig(), hogHeavyTrace(sc)
	opts := sc.Options()
	m := &runner.Matrix{}
	m.Add(sim.RunSpec{Name: "eliminator-off", Options: opts, Trace: &cfg, NewScheduler: Policy("coda", offCfg, opts.Cluster)})
	m.Add(sim.RunSpec{Name: "stress-on", Options: opts, Trace: &stress, NewScheduler: Policy("coda", core.DefaultConfig(), opts.Cluster)})
	m.Add(sim.RunSpec{Name: "stress-off", Options: opts, Trace: &stress, NewScheduler: Policy("coda", offCfg, opts.Cluster)})
	return m, nil
}

// Sec6E reproduces §VI-E: disabling the contention eliminator costs GPU
// utilization and inflates the queue, at the paper's 0.5% hog density and
// at a 5% stress density.
func Sec6E(sc Scale) (Sec6EResult, error) {
	c, err := RunComparison(sc)
	if err != nil {
		return Sec6EResult{}, err
	}
	on := c.CODA

	m, err := Sec6EMatrix(sc)
	if err != nil {
		return Sec6EResult{}, err
	}
	results, err := runMatrix(m)
	if err != nil {
		return Sec6EResult{}, err
	}
	off, stressOn, stressOff := results[0], results[1], results[2]

	return Sec6EResult{
		UtilWithEliminator: peakMean(&on.GPUUtilSeries, on.LastArrival),
		UtilWithout:        peakMean(&off.GPUUtilSeries, off.LastArrival),
		QueuedWith:         sim.WindowMean(&on.QueuedGPU, on.LastArrival) + sim.WindowMean(&on.QueuedCPU, on.LastArrival),
		QueuedWithout:      sim.WindowMean(&off.QueuedGPU, off.LastArrival) + sim.WindowMean(&off.QueuedCPU, off.LastArrival),
		Throttles:          on.Throttles,
		StressUtilWith:     peakMean(&stressOn.GPUUtilSeries, stressOn.LastArrival),
		StressUtilWithout:  peakMean(&stressOff.GPUUtilSeries, stressOff.LastArrival),
		StressThrottles:    stressOn.Throttles,
		PaperUtilDrop:      0.023,
		PaperQueueFactor:   2.0,
	}, nil
}

// Table2Row is one model's tuning-overhead record (Table II).
type Table2Row struct {
	// Model identifies the benchmark.
	Model string
	// ProfilingSteps is the number of 90 s profiling steps used.
	ProfilingSteps int
	// TrainingIterations is how many iterations ran during profiling.
	TrainingIterations int
	// PaperSteps and PaperIterations are Table II's values.
	PaperSteps, PaperIterations int
}

// table2Paper holds Table II's published numbers.
var table2Paper = map[string]struct{ steps, iters int }{
	"alexnet":     {4, 260},
	"vgg16":       {4, 70},
	"inception3":  {3, 180},
	"resnet50":    {3, 150},
	"bat":         {4, 35},
	"transformer": {3, 260},
	"wavenet":     {3, 28},
	"deepspeech":  {3, 45},
}

// Table2 reproduces Table II: for each model, run a single 1N1G training
// job under CODA on an idle cluster and report the profiling-step count
// and the training iterations completed during profiling. The allocator
// keeps a job's step count only while the job runs, so the run stops at
// 1 h: the job holds 2 h of work and settles within MaxSteps profiling
// steps.
func Table2(seed int64) ([]Table2Row, error) {
	var rows []Table2Row
	for _, name := range perfmodel.Names() {
		model, err := perfmodel.Lookup(name)
		if err != nil {
			return nil, err
		}
		opts := sim.DefaultOptions()
		opts.Cluster.Nodes = 1
		opts.Seed = seed
		opts.MaxVirtualTime = time.Hour
		coda, err := core.New(core.DefaultConfig(), opts.Cluster.Nodes, opts.Cluster.CoresPerNode, opts.Cluster.GPUsPerNode)
		if err != nil {
			return nil, err
		}
		j := &job.Job{
			ID: 1, Kind: job.KindGPUTraining, Tenant: 1,
			Category: model.Category, Model: name,
			Request: job.Request{CPUCores: 2, GPUs: 1, Nodes: 1},
			Work:    2 * time.Hour,
		}
		simulator, err := sim.New(opts, coda, []*job.Job{j})
		if err != nil {
			return nil, err
		}
		if _, err := simulator.Run(); err != nil {
			return nil, err
		}
		steps, ok := coda.Allocator().ProfileSteps(1)
		if !ok {
			return nil, fmt.Errorf("experiments: %s never settled", name)
		}
		iterTime, err := model.IterTime(perfmodel.Config{Nodes: 1, GPUs: 1}, 0)
		if err != nil {
			return nil, err
		}
		profiling := time.Duration(steps) * core.DefaultAllocatorConfig().ProfileStep
		paper := table2Paper[name]
		rows = append(rows, Table2Row{
			Model:              name,
			ProfilingSteps:     steps,
			TrainingIterations: int(profiling / iterTime),
			PaperSteps:         paper.steps,
			PaperIterations:    paper.iters,
		})
	}
	return rows, nil
}
