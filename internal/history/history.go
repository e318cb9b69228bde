// Package history is CODA's backend job log (§V-A step 5: "When J
// completes, its resource usage, scheduling information, and owner
// information are recorded in a log for future use"). The adaptive CPU
// allocator seeds its search from the owner's historical jobs in the same
// category (§V-B1), and the multi-array scheduler sizes its resource split
// from historical statistics (§V-C).
package history

import (
	"fmt"
	"sync"

	"github.com/coda-repro/coda/internal/job"
)

// Record is one completed job's log entry.
type Record struct {
	// JobID identifies the job.
	JobID job.ID
	// Tenant owned the job.
	Tenant job.TenantID
	// Kind is the job class.
	Kind job.Kind
	// Category is the DNN domain (CategoryNone for CPU jobs).
	Category job.Category
	// CPUCores is the per-node core count the job finally ran with (the
	// allocator's tuned value for training jobs).
	CPUCores int
	// GPUs is the total GPU count held.
	GPUs int
	// Nodes is the node count the job spanned (per-GPU normalization of
	// the Nstart statistics needs the per-node GPU share).
	Nodes int
}

// key groups records for Nstart lookups.
type key struct {
	tenant   job.TenantID
	category job.Category
}

// aggregate is the compact per-key statistic the allocator needs.
type aggregate struct {
	// maxPerGPU is the largest per-node cores divided by per-node GPUs —
	// the per-GPU demand the allocator scales to a new job's GPU count.
	// Seeding from the raw largest core count would let a single
	// multi-GPU job ratchet every later small job's Nstart upward.
	maxPerGPU float64
	count     int
}

// Log is the cluster-wide job history. It is safe for concurrent use.
type Log struct {
	mu sync.RWMutex
	// byOwnerCategory powers Nstart seeding.
	byOwnerCategory map[key]aggregate
	// byOwner powers the worst-case seeding (owner gave no category).
	byOwner map[job.TenantID]aggregate
	// GPU-demand statistics for the multi-array split.
	gpuJobCount   int
	sumGPUJobCore int
	sumGPUJobGPUs int
	sumLargeGPUs  int // GPUs demanded by jobs with >= LargeJobGPUs GPUs
}

// LargeJobGPUs is the 4-GPU sub-array threshold: jobs requesting this many
// GPUs or more go to the 4-GPU sub-array (§V-C).
const LargeJobGPUs = 4

// NewLog builds an empty history log.
func NewLog() *Log {
	return &Log{
		byOwnerCategory: make(map[key]aggregate),
		byOwner:         make(map[job.TenantID]aggregate),
	}
}

// Add appends a completed job's record.
func (l *Log) Add(rec Record) error {
	if rec.CPUCores <= 0 {
		return fmt.Errorf("history: record for job %d has %d cores", rec.JobID, rec.CPUCores)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if rec.Kind == job.KindGPUTraining {
		nodes := rec.Nodes
		if nodes < 1 {
			nodes = 1
		}
		gpusPerNode := rec.GPUs / nodes
		if gpusPerNode < 1 {
			gpusPerNode = 1
		}
		perGPU := float64(rec.CPUCores) / float64(gpusPerNode)
		// Multi-node jobs run in a different regime (<= 2 cores per node,
		// §IV-B2) and would drag the owner's statistics down; they are
		// counted in the totals but not in the Nstart aggregates.
		if nodes == 1 {
			k := key{tenant: rec.Tenant, category: rec.Category}
			agg := l.byOwnerCategory[k]
			if perGPU > agg.maxPerGPU {
				agg.maxPerGPU = perGPU
			}
			agg.count++
			l.byOwnerCategory[k] = agg

			own := l.byOwner[rec.Tenant]
			if perGPU > own.maxPerGPU {
				own.maxPerGPU = perGPU
			}
			own.count++
			l.byOwner[rec.Tenant] = own
		}

		l.gpuJobCount++
		l.sumGPUJobCore += rec.CPUCores
		l.sumGPUJobGPUs += rec.GPUs
		if rec.GPUs >= LargeJobGPUs {
			l.sumLargeGPUs += rec.GPUs
		}
	}
	return nil
}

// LargestCoresPerGPU returns the largest per-GPU tuned core demand among
// the owner's single-node jobs in the category; ok is false with no
// history. The paper: "we choose the largest core number to be Nstart"
// (§V-B1); the allocator scales this per-GPU maximum to the new job's GPUs.
func (l *Log) LargestCoresPerGPU(t job.TenantID, c job.Category) (perGPU float64, ok bool) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	agg, found := l.byOwnerCategory[key{tenant: t, category: c}]
	if !found || agg.count == 0 {
		return 0, false
	}
	return agg.maxPerGPU, true
}

// LargestCoresPerGPUAnyCategory is the category-free fallback (§V-B1
// worst case).
func (l *Log) LargestCoresPerGPUAnyCategory(t job.TenantID) (perGPU float64, ok bool) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	agg, found := l.byOwner[t]
	if !found || agg.count == 0 {
		return 0, false
	}
	return agg.maxPerGPU, true
}

// Stats summarizes the log for the multi-array scheduler's resource split.
type Stats struct {
	// GPUJobs counts recorded training-job completions.
	GPUJobs int
	// MeanCoresPerGPU is the average tuned per-node core count divided by
	// the per-job GPU count — the per-GPU CPU demand that sizes the GPU
	// array's per-node reserve.
	MeanCoresPerGPU float64
	// LargeGPUShare is the fraction of total GPU demand coming from jobs
	// with >= LargeJobGPUs GPUs; it sizes the 4-GPU sub-array (§V-C).
	LargeGPUShare float64
}

// Stats returns the aggregate statistics.
func (l *Log) Stats() Stats {
	l.mu.RLock()
	defer l.mu.RUnlock()
	s := Stats{GPUJobs: l.gpuJobCount}
	if l.sumGPUJobGPUs > 0 {
		s.MeanCoresPerGPU = float64(l.sumGPUJobCore) / float64(l.sumGPUJobGPUs)
		s.LargeGPUShare = float64(l.sumLargeGPUs) / float64(l.sumGPUJobGPUs)
	}
	return s
}
