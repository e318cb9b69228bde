package experiments

import (
	"time"

	"github.com/coda-repro/coda/internal/core"
	"github.com/coda-repro/coda/internal/metrics"
	"github.com/coda-repro/coda/internal/trace"
)

// Fig1Result is the week-long cluster-usage trend of Fig. 1.
type Fig1Result struct {
	// Hourly series of the four Fig. 1 curves (one sample per hour).
	CPUActive, CPUUtil, GPUActive, GPUUtil *metrics.Series
	// DiurnalRatio is peak-hour over trough-hour CPU active rate — the
	// diurnal pattern the paper highlights.
	DiurnalRatio float64
	// GPUAboveCPU reports whether GPU utilization stayed above CPU
	// utilization on average, as Fig. 1 shows.
	GPUAboveCPU bool
}

// Fig1 replays one week of the trace under FIFO (the production policy
// when Fig. 1 was captured) and reports the hourly utilization trends.
func Fig1(sc Scale) (*Fig1Result, error) {
	week := sc
	week.Days = 7
	week.CPUJobs = int(float64(sc.CPUJobs) * 7 / sc.Days)
	week.GPUJobs = int(float64(sc.GPUJobs) * 7 / sc.Days)
	if err := week.Validate(); err != nil {
		return nil, err
	}
	spec := week.Spec("fifo", core.DefaultConfig())
	spec.Name = "fig1"
	res, err := spec.Run()
	if err != nil {
		return nil, err
	}
	out := &Fig1Result{}
	if out.CPUActive, err = res.CPUActive.Downsample(time.Hour); err != nil {
		return nil, err
	}
	if out.CPUUtil, err = res.CPUUtilSeries.Downsample(time.Hour); err != nil {
		return nil, err
	}
	if out.GPUActive, err = res.GPUActive.Downsample(time.Hour); err != nil {
		return nil, err
	}
	if out.GPUUtil, err = res.GPUUtilSeries.Downsample(time.Hour); err != nil {
		return nil, err
	}

	// Fold CPU active rate by hour of day to expose the diurnal swing.
	var byHour [24]struct {
		sum float64
		n   int
	}
	for i := 0; i < out.CPUActive.Len(); i++ {
		tm, v := out.CPUActive.At(i)
		h := int(tm/time.Hour) % 24
		byHour[h].sum += v
		byHour[h].n++
	}
	peak, trough := 0.0, 1.0
	for _, b := range byHour {
		if b.n == 0 {
			continue
		}
		mean := b.sum / float64(b.n)
		if mean > peak {
			peak = mean
		}
		if mean < trough {
			trough = mean
		}
	}
	if trough > 0 {
		out.DiurnalRatio = peak / trough
	}
	out.GPUAboveCPU = out.GPUUtil.Mean() > out.CPUUtil.Mean()
	return out, nil
}

// Fig2Result is the job-characteristics breakdown of Fig. 2.
type Fig2Result struct {
	// Stats carries the trace-level breakdown (type mix, request bands,
	// per-tenant counts, runtimes).
	Stats trace.Stats
	// GPUOver10Min / GPUOver3Min are the FIFO queueing-delay fractions of
	// Fig. 2c.
	GPUOver3Min, GPUOver10Min float64
	// PaperGPUOver3Min / PaperGPUOver10Min are §III-A3's 48.1% and 41.3%.
	PaperGPUOver3Min, PaperGPUOver10Min float64
	// PaperReq12 / PaperReqOver10 are Fig. 2d's 76.1% and 15.3%.
	PaperReq12, PaperReqOver10 float64
}

// Fig2 reproduces Fig. 2: the trace's job-type and request statistics plus
// the production (FIFO) queueing-delay distribution.
func Fig2(sc Scale) (*Fig2Result, error) {
	c, err := RunComparison(sc)
	if err != nil {
		return nil, err
	}
	jobs, err := trace.Generate(sc.TraceConfig())
	if err != nil {
		return nil, err
	}
	return &Fig2Result{
		Stats:             trace.Summarize(jobs),
		GPUOver3Min:       c.FIFO.GPUQueue.FractionAbove(3 * time.Minute),
		GPUOver10Min:      c.FIFO.GPUQueue.FractionAbove(10 * time.Minute),
		PaperGPUOver3Min:  0.481,
		PaperGPUOver10Min: 0.413,
		PaperReq12:        0.761,
		PaperReqOver10:    0.153,
	}, nil
}
