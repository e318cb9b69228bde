package sim

import (
	"time"

	"github.com/coda-repro/coda/internal/cluster"
	"github.com/coda-repro/coda/internal/job"
	"github.com/coda-repro/coda/internal/metrics"
)

// JobStats records one job's observed lifecycle.
type JobStats struct {
	// Job is the submitted job (the original arrival-time view).
	Job *job.Job
	// Arrival is the submission time.
	Arrival time.Duration
	// Started reports whether the job ever started; FirstStart is when.
	Started    bool
	FirstStart time.Duration
	// Completed reports whether the job finished; CompletedAt is when.
	Completed   bool
	CompletedAt time.Duration
	// FinalCores is the per-node core count the job last ran with.
	FinalCores int
	// Resizes counts allocator/eliminator core adjustments.
	Resizes int
	// Preemptions counts how often the job was aborted and requeued.
	Preemptions int
	// Kills counts fault-induced aborts (node crashes, injected failures);
	// Requeues counts post-backoff resubmissions.
	Kills, Requeues int
	// TerminallyFailed marks a job that exhausted its retry budget.
	TerminallyFailed bool
	// Cancelled marks a job removed by an explicit control-plane cancel
	// request (service mode only).
	Cancelled bool
}

// QueueTime returns the time from submission to first start (0 if the job
// never started).
func (js *JobStats) QueueTime() time.Duration {
	if !js.Started {
		return 0
	}
	return js.FirstStart - js.Arrival
}

// EndToEnd returns submission-to-completion latency (0 if incomplete).
func (js *JobStats) EndToEnd() time.Duration {
	if !js.Completed {
		return 0
	}
	return js.CompletedAt - js.Arrival
}

// Result aggregates everything one simulation run measured.
type Result struct {
	// Scheduler is the policy name.
	Scheduler string
	// LastArrival is the final submission time; means over [0, LastArrival]
	// avoid biasing comparisons with the post-trace drain tail.
	LastArrival time.Duration
	// EndTime is when the simulation went idle.
	EndTime time.Duration

	// GPUActive and CPUActive sample allocated/total resource fractions;
	// GPUUtilSeries and CPUUtilSeries sample per-active-resource
	// utilization; FragSeries samples the GPU fragmentation rate;
	// QueuedGPU and QueuedCPU sample pending-job counts.
	GPUActive, GPUUtilSeries metrics.Series
	CPUActive, CPUUtilSeries metrics.Series
	FragSeries               metrics.Series
	QueuedGPU, QueuedCPU     metrics.Series
	// QueuedGPUDemand samples the GPUs requested by pending GPU jobs as a
	// fraction of the cluster total: GPUActive + QueuedGPUDemand >= 1
	// marks demand-saturated periods ("when the jobs queue up for the
	// resource allocation", Fig. 10).
	QueuedGPUDemand metrics.Series

	// GPUQueue and CPUQueue collect queueing times by job class; PerTenant
	// collects queueing times by tenant (Fig. 12).
	GPUQueue, CPUQueue metrics.CDF
	PerTenant          *metrics.PerKeyCDF

	// Jobs maps submitted jobs to their stats. With Options.MaxJobStats set
	// only the first N admitted jobs are tracked here (the aggregate
	// counters and CDFs still see every job); 0 tracks all of them.
	Jobs map[job.ID]*JobStats

	// GPUJobsDone and CPUJobsDone count completions directly, independent
	// of the Jobs map, so Summarize stays exact when per-job history is
	// bounded by Options.MaxJobStats.
	GPUJobsDone, CPUJobsDone int

	// Throttles counts eliminator MBA interventions; Preemptions counts
	// cross-array preemptions.
	Throttles, Preemptions int

	// Cancellations counts jobs removed by explicit control-plane cancel
	// requests (service mode only; always 0 for batch runs).
	Cancellations int

	// Faults aggregates chaos activity: crashes, dropouts, kills, requeues,
	// terminal failures and goodput lost. All-zero for fault-free runs.
	Faults metrics.FaultCounters

	// Events counts processed simulator events and PlacementQueries counts
	// cluster placement scans — throughput counters for the benchmark
	// harness. Both are excluded from DumpResult: golden comparisons pin
	// the physics, not the engine's work accounting.
	Events           int64
	PlacementQueries int64
}

func newResult(scheduler string, compact bool) *Result {
	r := &Result{
		Scheduler: scheduler,
		PerTenant: metrics.NewPerKeyCDF(),
		Jobs:      make(map[job.ID]*JobStats),
	}
	if compact {
		r.GPUQueue.UseSketch()
		r.CPUQueue.UseSketch()
		r.PerTenant = metrics.NewPerKeyCDFSketch()
	}
	return r
}

// growSeries pre-allocates every sampled series for n samples.
func (r *Result) growSeries(n int) {
	r.GPUActive.Grow(n)
	r.GPUUtilSeries.Grow(n)
	r.CPUActive.Grow(n)
	r.CPUUtilSeries.Grow(n)
	r.FragSeries.Grow(n)
	r.QueuedGPU.Grow(n)
	r.QueuedCPU.Grow(n)
	r.QueuedGPUDemand.Grow(n)
}

func (r *Result) noteArrival(j *job.Job, maxJobs int) {
	if _, ok := r.Jobs[j.ID]; ok {
		return // preempted requeue keeps the original record
	}
	if maxJobs > 0 && len(r.Jobs) >= maxJobs {
		return // keep-first-N bound; aggregates still observe this job
	}
	r.Jobs[j.ID] = &JobStats{
		Job:        j,
		Arrival:    j.Arrival,
		FinalCores: j.Request.CPUCores,
	}
}

// noteStart records a start. The simulator computes first (from its
// startedOnce set, which outlives the bounded Jobs map) so the queue-time
// sample lands in the aggregate CDFs for every job, tracked or not.
func (r *Result) noteStart(j *job.Job, now time.Duration, first bool) {
	if !first {
		return // restart after a kill or preemption: queue time already recorded
	}
	q := now - j.Arrival
	if j.IsGPU() {
		r.GPUQueue.Add(q)
	} else {
		r.CPUQueue.Add(q)
	}
	r.PerTenant.Add(int(j.Tenant), q)
	if js, ok := r.Jobs[j.ID]; ok {
		js.Started = true
		js.FirstStart = now
	}
}

func (r *Result) noteCompletion(run *runningJob, now time.Duration) {
	if run.job.IsGPU() {
		r.GPUJobsDone++
	} else {
		r.CPUJobsDone++
	}
	js, ok := r.Jobs[run.job.ID]
	if !ok {
		return
	}
	js.Completed = true
	js.CompletedAt = now
	js.FinalCores = run.alloc.CPUCores
}

func (r *Result) noteResize(j *job.Job, cores int) {
	if js, ok := r.Jobs[j.ID]; ok {
		js.Resizes++
		js.FinalCores = cores
	}
}

func (r *Result) notePreemption(id job.ID) {
	r.Preemptions++
	if js, ok := r.Jobs[id]; ok {
		js.Preemptions++
	}
}

func (r *Result) noteThrottle(job.ID) { r.Throttles++ }

// noteKill records a fault-induced abort and the attempt progress it wiped.
func (r *Result) noteKill(id job.ID, lost time.Duration) {
	r.Faults.JobKills++
	r.Faults.GoodputLost += lost
	if js, ok := r.Jobs[id]; ok {
		js.Kills++
	}
}

func (r *Result) noteRequeue(id job.ID) {
	if js, ok := r.Jobs[id]; ok {
		js.Requeues++
	}
}

// noteCancel records an explicit control-plane cancellation.
func (r *Result) noteCancel(id job.ID) {
	r.Cancellations++
	if js, ok := r.Jobs[id]; ok {
		js.Cancelled = true
	}
}

// noteTerminal records a job that exhausted its retry budget: it is
// reported, never silently dropped.
func (r *Result) noteTerminal(id job.ID) {
	r.Faults.TerminalFailures++
	if js, ok := r.Jobs[id]; ok {
		js.TerminallyFailed = true
	}
}

// coreBusyPeak is the OS-reported busy fraction of a fully-loaded
// allocated core (decode/transform threads stall on disk and DMA waits).
const coreBusyPeak = 0.55

// sample records one metrics tick.
func (s *Simulator) sample() {
	snap := s.cluster.Snapshot()
	res := s.results

	gpuActive := 0.0
	if snap.TotalGPUs > 0 {
		gpuActive = float64(snap.UsedGPUs) / float64(snap.TotalGPUs)
	}
	cpuActive := float64(snap.UsedCores) / float64(snap.TotalCores)

	// Per-active-GPU utilization and per-active-core busy fraction.
	// Iterate jobs in ID order: float accumulation is order-sensitive and
	// samples must reproduce bit-for-bit across runs.
	gpuUtilSum, gpuWeight := 0.0, 0.0
	cpuUtilSum, cpuWeight := 0.0, 0.0
	for _, r := range s.runOrder {
		if r.stopped {
			continue
		}
		cores := float64(r.alloc.TotalCPUCores())
		if r.model != nil {
			// The speed cache holds what the model gives at this operating
			// point: every change to the job's inputs re-evaluated it.
			if r.rawErr == nil {
				util := r.model.UtilAtSpeed(r.rawSpeed)
				w := float64(r.alloc.TotalGPUs())
				gpuUtilSum += util * w
				gpuWeight += w
			}
			if opt := r.optCores; opt > 0 {
				// Data-preparation workers alternate between decode bursts
				// and I/O waits: an allocated core is busy well below 100%
				// even at the optimal allocation, and over-allocated cores
				// sit idle (Fig. 1 shows CPU utilization consistently below
				// GPU utilization).
				busy := coreBusyPeak
				if r.alloc.CPUCores > opt {
					busy = coreBusyPeak * float64(opt) / float64(r.alloc.CPUCores)
				}
				cpuUtilSum += busy * cores
				cpuWeight += cores
			}
		} else {
			cpuUtilSum += coreBusyPeak * r.speed * cores
			cpuWeight += cores
		}
	}
	gpuUtil := 0.0
	if gpuWeight > 0 {
		gpuUtil = gpuUtilSum / gpuWeight
	}
	cpuUtil := 0.0
	if cpuWeight > 0 {
		cpuUtil = cpuUtilSum / cpuWeight
	}

	pendGPU, pendCPU, pendGPUDemand := 0, 0, 0
	for _, j := range s.pending {
		if j.IsGPU() {
			pendGPU++
			pendGPUDemand += j.Request.GPUs
		} else {
			pendCPU++
		}
	}
	queuedDemand := 0.0
	if snap.TotalGPUs > 0 {
		queuedDemand = float64(pendGPUDemand) / float64(snap.TotalGPUs)
	}

	// Sampling must never fail on monotone time; errors are programming
	// bugs surfaced by tests via the series length invariants.
	_ = res.GPUActive.Add(s.now, gpuActive)
	_ = res.GPUUtilSeries.Add(s.now, gpuUtil)
	_ = res.CPUActive.Add(s.now, cpuActive)
	_ = res.CPUUtilSeries.Add(s.now, cpuUtil)
	_ = res.FragSeries.Add(s.now, s.fragRate())
	_ = res.QueuedGPU.Add(s.now, float64(pendGPU))
	_ = res.QueuedCPU.Add(s.now, float64(pendCPU))
	_ = res.QueuedGPUDemand.Add(s.now, queuedDemand)

	// Degraded-mode exposure: one count per dark node per sample.
	if s.chaosOn {
		for _, depth := range s.darkDepth {
			if depth > 0 {
				res.Faults.DegradedSamples++
			}
		}
	}
}

// fragRate returns the fraction of the cluster's GPUs that are free yet
// unable to serve any pending GPU job — the paper's fragmentation measure
// (§VI-C). Zero when no GPU job waits.
func (s *Simulator) fragRate() float64 {
	// minCores[g] = the smallest per-node core request among pending GPU
	// jobs wanting g GPUs per node. Reused across samples.
	if s.fragMinCores == nil {
		s.fragMinCores = make(map[int]int, 4)
	}
	minCores := s.fragMinCores
	clear(minCores)
	//coda:ordered-ok min-update per key; the final map is independent of visit order
	for _, j := range s.pending {
		if !j.IsGPU() {
			continue
		}
		g := j.Request.GPUsPerNode()
		if cur, ok := minCores[g]; !ok || j.Request.CPUCores < cur {
			minCores[g] = j.Request.CPUCores
		}
	}
	if len(minCores) == 0 {
		return 0
	}
	frag := 0
	s.cluster.EachNode(func(n *cluster.Node) bool {
		freeG := n.FreeGPUs()
		if freeG == 0 {
			return true
		}
		servable := false
		for g, cores := range minCores {
			if g <= freeG && cores <= n.FreeCores() {
				servable = true
				break
			}
		}
		if !servable {
			frag += freeG
		}
		return true
	})
	return float64(frag) / float64(s.cluster.TotalGPUs())
}

func (s *Simulator) finalize() {
	s.results.EndTime = s.now
	s.results.PlacementQueries = s.cluster.PlacementQueries()
}

// WindowMean averages a series over samples taken at or before cutoff.
func WindowMean(s *metrics.Series, cutoff time.Duration) float64 {
	sum, n := 0.0, 0
	for i := 0; i < s.Len(); i++ {
		t, v := s.At(i)
		if t > cutoff {
			break
		}
		sum += v
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// Summary condenses a run into the headline numbers of Fig. 10 and §VI-C.
type Summary struct {
	// Scheduler is the policy name.
	Scheduler string
	// GPUActiveRate, GPUUtil, CPUActiveRate, CPUUtil and FragRate are means
	// over the trace window [0, LastArrival].
	GPUActiveRate, GPUUtil float64
	CPUActiveRate, CPUUtil float64
	FragRate               float64
	// GPUJobsDone / CPUJobsDone count completions.
	GPUJobsDone, CPUJobsDone int
}

// Summarize computes the run's headline numbers.
func (r *Result) Summarize() Summary {
	return Summary{
		Scheduler:     r.Scheduler,
		GPUActiveRate: WindowMean(&r.GPUActive, r.LastArrival),
		GPUUtil:       WindowMean(&r.GPUUtilSeries, r.LastArrival),
		CPUActiveRate: WindowMean(&r.CPUActive, r.LastArrival),
		CPUUtil:       WindowMean(&r.CPUUtilSeries, r.LastArrival),
		FragRate:      WindowMean(&r.FragSeries, r.LastArrival),
		GPUJobsDone:   r.GPUJobsDone,
		CPUJobsDone:   r.CPUJobsDone,
	}
}
