package core

import (
	"fmt"
	"slices"
	"time"

	"github.com/coda-repro/coda/internal/job"
	"github.com/coda-repro/coda/internal/membw"
	"github.com/coda-repro/coda/internal/sched"
)

// EliminatorConfig parameterizes the real-time contention eliminator
// (§V-D).
type EliminatorConfig struct {
	// Threshold is the node memory-bandwidth utilization that arms the
	// eliminator ("75% by default according to the analysis in Section
	// IV-C").
	Threshold float64
	// Release is the hysteresis level below which throttles are lifted.
	Release float64
	// UtilDropTolerance is the relative GPU-utilization drop (vs. the
	// allocator's settled measurement) that confirms contention.
	UtilDropTolerance float64
	// CheckInterval is the monitoring cadence.
	CheckInterval time.Duration
}

// DefaultEliminatorConfig matches the paper's settings.
func DefaultEliminatorConfig() EliminatorConfig {
	return EliminatorConfig{
		Threshold:         0.75,
		Release:           0.60,
		UtilDropTolerance: 0.03,
		CheckInterval:     30 * time.Second,
	}
}

// Eliminator watches per-node memory bandwidth and throttles
// bandwidth-hungry CPU jobs when they degrade co-located DNN training jobs
// (§V-D). On nodes with MBA it caps the job's bandwidth; elsewhere it
// halves the job's cores. Training jobs are never touched (§V-A).
type Eliminator struct {
	cfg   EliminatorConfig
	env   sched.Env
	alloc *Allocator
	array *MultiArray
	// throttled tracks active interventions per job.
	throttled throttleSet
	nextCheck time.Duration
	// Per-pass scratch reused across node checks.
	jobIDs []job.ID
	usages []membw.JobUsage
}

// throttleSet holds the active interventions sorted by job ID: job ids[i]
// runs under an MBA cap when origCores[i] is 0, and otherwise on half of
// its origCores[i] cores (the MBA-less fallback). Lookups are binary
// searches, and ids is the sorted list relax merges against a node meter's
// own.
type throttleSet struct {
	ids       []job.ID
	origCores []int
}

// get returns job id's original cores, if it is restrained.
func (t *throttleSet) get(id job.ID) (origCores int, ok bool) {
	if i, ok := slices.BinarySearch(t.ids, id); ok {
		return t.origCores[i], true
	}
	return 0, false
}

// add records an intervention on job id, which must hold none.
func (t *throttleSet) add(id job.ID, origCores int) {
	i, _ := slices.BinarySearch(t.ids, id)
	t.ids = slices.Insert(t.ids, i, id)
	t.origCores = slices.Insert(t.origCores, i, origCores)
}

// remove drops job id's intervention, if it has one.
func (t *throttleSet) remove(id job.ID) {
	if i, ok := slices.BinarySearch(t.ids, id); ok {
		t.ids = slices.Delete(t.ids, i, i+1)
		t.origCores = slices.Delete(t.origCores, i, i+1)
	}
}

// check reports a set whose job IDs are not strictly ascending, which
// covers a job listed twice, or whose two slices disagree in length.
func (t *throttleSet) check() error {
	if len(t.ids) != len(t.origCores) {
		return fmt.Errorf("eliminator lists %d throttled jobs but %d interventions", len(t.ids), len(t.origCores))
	}
	for i := 1; i < len(t.ids); i++ {
		if t.ids[i] <= t.ids[i-1] {
			return fmt.Errorf("eliminator lists throttled job %d after job %d; want strictly ascending job IDs",
				t.ids[i], t.ids[i-1])
		}
	}
	return nil
}

// NewEliminator builds the eliminator. It reads the allocator's settled
// utilization records to detect drops and uses the multi-array scheduler's
// resize hook for the core-halving fallback.
func NewEliminator(cfg EliminatorConfig, alloc *Allocator, array *MultiArray) *Eliminator {
	def := DefaultEliminatorConfig()
	if cfg.Threshold <= 0 || cfg.Threshold > 1 {
		cfg.Threshold = def.Threshold
	}
	if cfg.Release <= 0 || cfg.Release >= cfg.Threshold {
		cfg.Release = def.Release
	}
	if cfg.UtilDropTolerance <= 0 {
		cfg.UtilDropTolerance = def.UtilDropTolerance
	}
	if cfg.CheckInterval <= 0 {
		cfg.CheckInterval = def.CheckInterval
	}
	return &Eliminator{
		cfg:   cfg,
		alloc: alloc,
		array: array,
	}
}

// Bind attaches the environment.
func (e *Eliminator) Bind(env sched.Env) { e.env = env }

// Forget drops intervention state for a completed job.
func (e *Eliminator) Forget(id job.ID) { e.throttled.remove(id) }

// Tick runs one monitoring pass when the check interval elapsed.
func (e *Eliminator) Tick() {
	now := e.env.Now()
	if now < e.nextCheck {
		return
	}
	e.nextCheck = now + e.cfg.CheckInterval

	for nid := 0; nid < e.env.Cluster().Size(); nid++ {
		e.checkNode(nid)
	}
}

// trainingJobDegraded reports whether some settled training job on the
// node shows a utilization drop beyond tolerance — the paper's second
// trigger condition ("and the GPU utilization of the DNN training jobs on
// the node drops", §V-D).
func (e *Eliminator) trainingJobDegraded(nid int) bool {
	n, err := e.env.Cluster().Node(nid)
	if err != nil {
		return false
	}
	e.jobIDs = n.AppendJobs(e.jobIDs[:0])
	slices.Sort(e.jobIDs)
	for _, id := range e.jobIDs {
		info, ok := e.alloc.Settled(id)
		if !ok || info.Util <= 0 {
			continue
		}
		util, err := e.env.GPUUtil(id)
		if err != nil {
			continue
		}
		if util < info.Util*(1-e.cfg.UtilDropTolerance) {
			return true
		}
	}
	return false
}

// checkNode arms or releases interventions on one node. When the node's
// bandwidth telemetry is unavailable (a fault-injected dropout), the
// eliminator degrades gracefully: it holds every standing throttle decision,
// because acting on a stale or absent reading could hurt either side.
func (e *Eliminator) checkNode(nid int) {
	meter, err := e.env.Meter(nid)
	if err != nil {
		return
	}
	util := meter.Utilization()

	switch {
	case util >= e.cfg.Threshold && e.trainingJobDegraded(nid):
		e.restrain(meter)
	case util < e.cfg.Release:
		e.relax(meter)
	}
}

// restrain throttles the hungriest CPU job on the node: MBA cap sized to
// bring the node back to the threshold, or core-halving without MBA.
func (e *Eliminator) restrain(meter *membw.Meter) {
	excess := meter.Total() - e.cfg.Threshold*meter.Capacity()
	if excess <= 0 {
		return
	}
	e.usages = meter.AppendJobs(e.usages[:0])
	for _, u := range e.usages {
		if !u.CPUJob || u.EffectiveGBs <= 0 {
			continue
		}
		if _, done := e.throttled.get(u.ID); done {
			continue
		}
		if meter.MBASupported() {
			capGBs := u.EffectiveGBs - excess
			if capGBs < 1 {
				capGBs = 1
			}
			if err := e.env.ThrottleJob(u.ID, capGBs); err != nil {
				continue
			}
			e.throttled.add(u.ID, 0)
			return
		}
		// Fallback: halve the CPU job's cores, which roughly halves its
		// bandwidth (§V-D).
		alloc, ok := e.array.RunningAlloc(u.ID)
		if !ok || alloc.CPUCores < 2 {
			continue
		}
		half := alloc.CPUCores / 2
		if err := e.array.ResizeRunning(u.ID, half); err != nil {
			continue
		}
		e.throttled.add(u.ID, alloc.CPUCores)
		return
	}
}

// relax lifts interventions on a node whose bandwidth dropped below the
// release level, restoring throttled jobs one per pass. Most quiet nodes
// host no throttled job, so it merges the throttled IDs against the node's
// before ranking the node's jobs.
func (e *Eliminator) relax(meter *membw.Meter) {
	if !meter.HostsAnyOf(e.throttled.ids) {
		return
	}
	e.usages = meter.AppendJobs(e.usages[:0])
	for _, u := range e.usages {
		origCores, ok := e.throttled.get(u.ID)
		if !ok {
			continue
		}
		if origCores > 0 {
			if err := e.array.ResizeRunning(u.ID, origCores); err != nil {
				continue
			}
		} else {
			if err := e.env.UnthrottleJob(u.ID); err != nil {
				continue
			}
		}
		e.throttled.remove(u.ID)
		return
	}
}
