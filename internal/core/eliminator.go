package core

import (
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
	// throttled tracks active interventions per job: the cap applied, or
	// coreHalved for the MBA-less fallback.
	throttled map[job.ID]intervention
	nextCheck time.Duration
	// interventions counts total throttle/halve actions (§VI-E reporting).
	interventions int
	// degraded counts node checks skipped because bandwidth telemetry was
	// dark (chaos dropouts): the eliminator held its last decision.
	degraded int
	// Per-pass scratch reused across node checks.
	jobIDs []job.ID
	usages []membw.JobUsage
}

// intervention records how a CPU job was restrained.
type intervention struct {
	capGBs     float64
	coreHalved bool
	origCores  int
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
		cfg:       cfg,
		alloc:     alloc,
		array:     array,
		throttled: make(map[job.ID]intervention),
	}
}

// Bind attaches the environment.
func (e *Eliminator) Bind(env sched.Env) { e.env = env }

// Interventions returns the total action count.
func (e *Eliminator) Interventions() int { return e.interventions }

// Degraded returns how many node checks ran blind because bandwidth
// telemetry was unavailable.
func (e *Eliminator) Degraded() int { return e.degraded }

// Forget drops intervention state for a completed job.
func (e *Eliminator) Forget(id job.ID) { delete(e.throttled, id) }

// isThrottled reports whether the eliminator holds an intervention on id.
func (e *Eliminator) isThrottled(id job.ID) bool {
	_, ok := e.throttled[id]
	return ok
}

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
// eliminator degrades gracefully: it holds every standing throttle decision
// — acting on a stale or absent reading could hurt either side — and counts
// the blind check so runs report their degraded-mode exposure.
func (e *Eliminator) checkNode(nid int) {
	meter, err := e.env.Meter(nid)
	if err != nil {
		e.degraded++
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
		if _, done := e.throttled[u.ID]; done {
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
			e.throttled[u.ID] = intervention{capGBs: capGBs}
			e.interventions++
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
		e.throttled[u.ID] = intervention{coreHalved: true, origCores: alloc.CPUCores}
		e.interventions++
		return
	}
}

// relax lifts interventions on a node whose bandwidth dropped below the
// release level, restoring throttled jobs one per pass. Most quiet nodes
// host no throttled job, so it checks that before ranking the node's jobs.
func (e *Eliminator) relax(meter *membw.Meter) {
	if !meter.HostsAny(e.isThrottled) {
		return
	}
	e.usages = meter.AppendJobs(e.usages[:0])
	for _, u := range e.usages {
		iv, ok := e.throttled[u.ID]
		if !ok {
			continue
		}
		if iv.coreHalved {
			if err := e.array.ResizeRunning(u.ID, iv.origCores); err != nil {
				continue
			}
		} else {
			if err := e.env.UnthrottleJob(u.ID); err != nil {
				continue
			}
		}
		delete(e.throttled, u.ID)
		return
	}
}
