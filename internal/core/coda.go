package core

import (
	"fmt"
	"slices"
	"time"

	"github.com/coda-repro/coda/internal/cluster"
	"github.com/coda-repro/coda/internal/history"
	"github.com/coda-repro/coda/internal/job"
	"github.com/coda-repro/coda/internal/sched"
)

// Config assembles all CODA component settings.
type Config struct {
	// Allocator configures the adaptive CPU allocator (§V-B).
	Allocator AllocatorConfig
	// Eliminator configures the contention eliminator (§V-D); set
	// DisableEliminator for the §VI-E ablation.
	Eliminator        EliminatorConfig
	DisableEliminator bool
	// Array configures the multi-array split (§V-C).
	Array ArrayConfig
	// RebalanceEvery is how many completions between history-driven
	// resource-split rebalances (0 disables).
	RebalanceEvery int
	// DisableAdaptiveAllocation pins every training job at its owner's
	// requested cores (ablation: multi-array scheduling only).
	DisableAdaptiveAllocation bool
	// DisablePreemption stops GPU jobs from reclaiming borrowed reserve
	// cores (ablation: borrowing becomes a permanent grant).
	DisablePreemption bool
}

// DefaultConfig returns the paper's settings.
func DefaultConfig() Config {
	return Config{
		Allocator:      DefaultAllocatorConfig(),
		Eliminator:     DefaultEliminatorConfig(),
		Array:          DefaultArrayConfig(),
		RebalanceEvery: 200,
	}
}

// Scheduler is CODA assembled: adaptive CPU allocator + multi-array job
// scheduler + real-time contention eliminator, sharing one history log
// (Fig. 8).
type Scheduler struct {
	cfg     Config
	env     sched.Env
	log     *history.Log
	arrays  *MultiArray
	alloc   *Allocator
	elim    *Eliminator
	started map[job.ID]time.Duration // first-start times for history records
	arrived map[job.ID]time.Duration
	done    int
	gpus    int // gpus per node, for rebalance
}

var _ sched.Scheduler = (*Scheduler)(nil)

// New builds CODA for a homogeneous cluster of nodes × coresPerNode ×
// gpusPerNode.
func New(cfg Config, nodes, coresPerNode, gpusPerNode int) (*Scheduler, error) {
	return NewForCluster(cfg, cluster.Config{
		Nodes:        nodes,
		CoresPerNode: coresPerNode,
		GPUsPerNode:  gpusPerNode,
	})
}

// NewForCluster builds CODA for a possibly heterogeneous cluster with
// dedicated CPU-only nodes (§VI-G).
func NewForCluster(cfg Config, cc cluster.Config) (*Scheduler, error) {
	if cfg.Allocator.MaxCores <= 0 || cfg.Allocator.MaxCores > cc.CoresPerNode {
		cfg.Allocator.MaxCores = cc.CoresPerNode
	}
	arrays, err := NewMultiArrayForCluster(cfg.Array, cc)
	if err != nil {
		return nil, fmt.Errorf("coda: %w", err)
	}
	arrays.DisablePreemption = cfg.DisablePreemption
	log := history.NewLog()
	s := &Scheduler{
		cfg:     cfg,
		log:     log,
		arrays:  arrays,
		started: make(map[job.ID]time.Duration),
		arrived: make(map[job.ID]time.Duration),
		gpus:    cc.GPUsPerNode,
	}
	s.alloc = NewAllocator(cfg.Allocator, log, arrays.ResizeRunning)
	if !cfg.DisableEliminator {
		s.elim = NewEliminator(cfg.Eliminator, s.alloc, arrays)
	}
	return s, nil
}

// Name implements sched.Scheduler.
func (s *Scheduler) Name() string { return "coda" }

// Bind implements sched.Scheduler.
func (s *Scheduler) Bind(env sched.Env) {
	s.env = env
	s.arrays.Bind(env)
	s.alloc.Bind(env)
	if s.elim != nil {
		s.elim.Bind(env)
	}
}

// History exposes the job log (for tests and reports).
func (s *Scheduler) History() *history.Log { return s.log }

// SetHistory warm-starts the scheduler from a previously saved job log
// (§V-A: completed jobs are recorded "for future use" — a restarted CODA
// keeps its Nstart seeding and array statistics). Call before the first
// Submit.
func (s *Scheduler) SetHistory(log *history.Log) {
	if log == nil {
		return
	}
	s.log = log
	s.alloc.log = log
	s.arrays.Rebalance(log.Stats(), s.gpus)
}

// Arrays exposes the multi-array scheduler (for tests and reports).
func (s *Scheduler) Arrays() *MultiArray { return s.arrays }

// Allocator exposes the adaptive allocator (for tests and reports).
func (s *Scheduler) Allocator() *Allocator { return s.alloc }

// Submit implements sched.Scheduler (Fig. 8 steps 1-3): training jobs get
// an allocator-chosen core count and enter the GPU array; CPU jobs enter
// the CPU array. Preempted CPU jobs re-enter at the array head.
func (s *Scheduler) Submit(j *job.Job) {
	if _, seen := s.arrived[j.ID]; !seen {
		s.arrived[j.ID] = s.env.Now()
	} else if !j.IsGPU() {
		// A requeued preempted (or fault-killed) CPU job: back to the head
		// (§V-C).
		s.arrays.RequeueCPUFront(j)
		s.drain()
		return
	} else {
		// A fault-killed training job retrying: back to its array head with
		// a fresh allocator seed — the crash was not the job's fault, so it
		// does not queue behind later arrivals.
		cores := s.alloc.InitialCores(j)
		if s.cfg.DisableAdaptiveAllocation {
			cores = j.Request.CPUCores
		}
		s.arrays.RequeueGPUFront(j, cores)
		s.drain()
		return
	}
	if j.IsGPU() {
		cores := s.alloc.InitialCores(j)
		if s.cfg.DisableAdaptiveAllocation {
			cores = j.Request.CPUCores
		}
		s.arrays.EnqueueGPU(j, cores)
	} else {
		s.arrays.EnqueueCPU(j)
	}
	s.drain()
}

// OnJobCompleted implements sched.Scheduler (Fig. 8 step 5): resource
// usage and owner information are logged for future scheduling.
func (s *Scheduler) OnJobCompleted(j *job.Job) {
	finalCores := j.Request.CPUCores
	if alloc, ok := s.arrays.RunningAlloc(j.ID); ok {
		finalCores = alloc.CPUCores
	}
	s.arrays.OnCompleted(j)
	if s.elim != nil {
		s.elim.Forget(j.ID)
	}

	now := s.env.Now()
	queue := time.Duration(0)
	if start, ok := s.started[j.ID]; ok {
		if arr, okArr := s.arrived[j.ID]; okArr {
			queue = start - arr
		}
		delete(s.started, j.ID)
	}
	run := time.Duration(0)
	if start, ok := s.arrived[j.ID]; ok {
		run = now - start - queue
		delete(s.arrived, j.ID)
	}
	s.alloc.OnCompleted(j, finalCores, queue, run)

	s.done++
	if s.cfg.RebalanceEvery > 0 && s.done%s.cfg.RebalanceEvery == 0 {
		s.arrays.Rebalance(s.log.Stats(), s.gpus)
	}
	s.drain()
}

// OnJobKilled implements sched.Scheduler: a fault killed the job and the
// simulator already released its cluster resources. Every component drops
// its per-job state — array budgets and fair-share charges, eliminator
// interventions, allocator tuning sessions — but unlike a completion,
// nothing is written to the history log: an aborted attempt must not teach
// Nstart. Arrival and first-start times survive so a retried job keeps its
// original queueing record.
func (s *Scheduler) OnJobKilled(j *job.Job) {
	s.arrays.OnKilled(j)
	if s.elim != nil {
		s.elim.Forget(j.ID)
	}
	s.alloc.Forget(j.ID)
	s.drain()
}

// OnJobCancelled implements sched.Canceller: an explicit control-plane
// cancel removed a still-queued job. The queue entry, allocator seeds and
// arrival records all go; nothing is written to the history log — the job
// never ran, so there is nothing to teach Nstart.
func (s *Scheduler) OnJobCancelled(j *job.Job) {
	s.arrays.RemoveQueued(j)
	if s.elim != nil {
		s.elim.Forget(j.ID)
	}
	s.alloc.Forget(j.ID)
	delete(s.arrived, j.ID)
	delete(s.started, j.ID)
	s.drain()
}

// CheckInvariants validates the scheduler's internal bookkeeping: node
// budgets, fair-share accountants, and that no job is simultaneously
// running and queued. The simulator's invariant checker calls this after
// every event when enabled.
func (s *Scheduler) CheckInvariants() error {
	return s.arrays.CheckInvariants()
}

// Tick implements sched.Scheduler: profiling steps, contention checks and
// a scheduling pass.
func (s *Scheduler) Tick() {
	s.alloc.Tick()
	if s.elim != nil {
		s.elim.Tick()
	}
	s.drain()
}

// drain runs the arrays' scheduling passes and starts tuning sessions for
// training jobs that were just placed.
//
// The arrays' start log names every job the pass started. It can hold one
// job that was already running before the pass: a borrower that
// reclaimNode preempts in drainGPU and drainCPU restarts in the same pass.
// That job is a CPU job already in s.started, so the loop below does
// nothing for it.
func (s *Scheduler) drain() {
	s.arrays.Drain()
	// Tuning sessions start in job-ID order, so nothing the allocator does
	// on OnStarted can depend on placement order within the pass.
	started := s.arrays.startLog
	slices.Sort(started)
	for _, id := range started {
		info := s.arrays.running[id]
		if _, ok := s.started[id]; !ok {
			s.started[id] = s.env.Now()
		}
		if info.j.IsGPU() && !s.cfg.DisableAdaptiveAllocation {
			s.alloc.OnStarted(info.j, info.alloc.CPUCores)
		}
	}
}
