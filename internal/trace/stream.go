// Streaming trace analysis: incremental accumulators behind Summarize and
// HourlyArrivals, so summarizing a 25M-job config never materializes a job
// slice. coda-trace's -count-only mode feeds one drain of a Source through
// both accumulators in a single pass.
package trace

import (
	"time"

	"github.com/coda-repro/coda/internal/job"
)

// StatsAccum incrementally accumulates the Stats of a job stream. The zero
// value is ready to use; call Observe per job, then Stats for the totals.
type StatsAccum struct {
	stats                        Stats
	multiNode, overHour, overTwo int
	req12, req310, reqOver       int
}

// Observe folds one job into the accumulator.
func (a *StatsAccum) Observe(j *job.Job) {
	a.stats.Jobs++
	switch j.Kind {
	case job.KindGPUTraining:
		a.stats.GPUJobs++
		if int(j.Tenant) <= NumTenants {
			a.stats.GPUJobsPerTenant[j.Tenant]++
		}
		switch c := j.Request.CPUCores; {
		case c <= 2:
			a.req12++
		case c <= 10:
			a.req310++
		default:
			a.reqOver++
		}
		if j.Request.Nodes > 1 {
			a.multiNode++
		}
		if j.Work > time.Hour {
			a.overHour++
		}
		if j.Work > 2*time.Hour {
			a.overTwo++
		}
	default:
		a.stats.CPUJobs++
		if j.Kind == job.KindBandwidthHog {
			a.stats.HogJobs++
		}
		if int(j.Tenant) <= NumTenants {
			a.stats.CPUJobsPerTenant[j.Tenant]++
		}
	}
}

// Stats finalizes and returns the accumulated statistics.
func (a *StatsAccum) Stats() Stats {
	s := a.stats
	if s.GPUJobs > 0 {
		n := float64(s.GPUJobs)
		s.ReqCores12 = float64(a.req12) / n
		s.ReqCores310 = float64(a.req310) / n
		s.ReqCoresOver10 = float64(a.reqOver) / n
		s.MultiNodeFraction = float64(a.multiNode) / n
		s.GPUJobsOverHour = float64(a.overHour) / n
		s.GPUJobsOverTwoHours = float64(a.overTwo) / n
	}
	return s
}

// HourlyBins incrementally accumulates HourlyArrivals histograms.
type HourlyBins struct {
	bins []int
}

// NewHourlyBins sizes a histogram for a trace span.
func NewHourlyBins(duration time.Duration) *HourlyBins {
	hours := int(duration / time.Hour)
	if duration%time.Hour != 0 {
		hours++
	}
	return &HourlyBins{bins: make([]int, hours)}
}

// Observe counts one job if it matches filter (nil counts all).
func (b *HourlyBins) Observe(j *job.Job, filter func(*job.Job) bool) {
	if filter != nil && !filter(j) {
		return
	}
	h := int(j.Arrival / time.Hour)
	if h >= 0 && h < len(b.bins) {
		b.bins[h]++
	}
}

// Bins returns the histogram (the accumulator's backing slice).
func (b *HourlyBins) Bins() []int { return b.bins }
