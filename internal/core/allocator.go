package core

import (
	"slices"
	"time"

	"github.com/coda-repro/coda/internal/history"
	"github.com/coda-repro/coda/internal/job"
	"github.com/coda-repro/coda/internal/perfmodel"
	"github.com/coda-repro/coda/internal/sched"
)

// AllocatorConfig parameterizes the adaptive CPU allocator (§V-B, §VI-F).
type AllocatorConfig struct {
	// ProfileStep is one profiling step's length (90 s in the paper).
	ProfileStep time.Duration
	// MaxSteps caps the search ("CODA identifies the optimal core number
	// for all the DNN training jobs in 4 profiling steps").
	MaxSteps int
	// Epsilon is the relative GPU-utilization improvement required to
	// accept a move (must exceed measurement noise).
	Epsilon float64
	// MaxCores bounds any allocation (the node core count).
	MaxCores int
}

// DefaultAllocatorConfig matches the paper's settings.
func DefaultAllocatorConfig() AllocatorConfig {
	return AllocatorConfig{
		ProfileStep: 90 * time.Second,
		MaxSteps:    4,
		Epsilon:     0.015,
		MaxCores:    28,
	}
}

// tunePhase is the search state machine's position.
type tunePhase int

const (
	phaseBaseline tunePhase = iota + 1 // measuring Nstart
	phaseDown                          // probing fewer cores
	phaseUp                            // probing more cores
	phaseDone
)

// tuneState tracks one job's in-flight search.
type tuneState struct {
	j *job.Job
	// bestCores and bestUtil are the best operating point seen so far.
	bestCores int
	bestUtil  float64
	// curCores is what the job currently runs with.
	curCores int
	// step is the current probe distance (doubles while improving).
	step int
	// phase is the state machine position.
	phase tunePhase
	// stepsUsed counts profiling steps (Table II's first column).
	stepsUsed int
	// nextCheck is when the current profiling step completes.
	nextCheck time.Duration
}

// Allocator is the adaptive CPU allocator: it seeds each training job's
// core count from the owner's history and category (§V-B1) and refines it
// with a feedback search over observed GPU utilization (§V-B2).
type Allocator struct {
	cfg     AllocatorConfig
	env     sched.Env
	log     *history.Log
	resize  func(id job.ID, cores int) error
	tuning  map[job.ID]*tuneState
	settled map[job.ID]settleInfo
	// due is per-tick scratch reused across ticks.
	due []job.ID
}

// settleInfo records a finished search while its job runs (the eliminator
// compares live utilization against Util to detect contention-induced
// drops).
type settleInfo struct {
	// Cores is the tuned core count; Util is the utilization measured at
	// the moment the search settled; Steps is how many profiling steps the
	// search used (Table II's first column).
	Cores int
	Util  float64
	Steps int
}

// NewAllocator builds the allocator. resize is the scheduler's
// pool-consistent resize hook (MultiArray.ResizeRunning).
func NewAllocator(cfg AllocatorConfig, log *history.Log, resize func(job.ID, int) error) *Allocator {
	if cfg.ProfileStep <= 0 {
		cfg.ProfileStep = DefaultAllocatorConfig().ProfileStep
	}
	if cfg.MaxSteps <= 0 {
		cfg.MaxSteps = DefaultAllocatorConfig().MaxSteps
	}
	if cfg.Epsilon <= 0 {
		cfg.Epsilon = DefaultAllocatorConfig().Epsilon
	}
	if cfg.MaxCores <= 0 {
		cfg.MaxCores = DefaultAllocatorConfig().MaxCores
	}
	return &Allocator{
		cfg:     cfg,
		log:     log,
		resize:  resize,
		tuning:  make(map[job.ID]*tuneState),
		settled: make(map[job.ID]settleInfo),
	}
}

// Bind attaches the environment.
func (a *Allocator) Bind(env sched.Env) { a.env = env }

// clampCores bounds a core count to [1, MaxCores].
func (a *Allocator) clampCores(c int) int {
	if c < 1 {
		return 1
	}
	if c > a.cfg.MaxCores {
		return a.cfg.MaxCores
	}
	return c
}

// InitialCores computes Nstart for a newly submitted training job (§V-B1):
// the largest core count among the owner's historical jobs of the same
// category; the owner's whole history when no category was disclosed; or
// the category's empirical default for first-time owners — then adjusted
// by the optional hints (pipeline −1, large weights −1, complex
// preprocessing +1) and scaled to the job's per-node GPU count.
func (a *Allocator) InitialCores(j *job.Job) int {
	if !j.IsGPU() {
		return j.Request.CPUCores
	}
	// Multi-node jobs never profit from more than two cores (§IV-B2).
	if j.Request.Nodes > 1 {
		return 2
	}
	// History seeds are normalized per GPU so a single large job cannot
	// ratchet every later small job's Nstart upward; the seed scales to
	// the new job's per-node GPU count.
	gpus := float64(j.Request.GPUsPerNode())
	var start int
	if j.Category != job.CategoryNone {
		if perGPU, ok := a.log.LargestCoresPerGPU(j.Tenant, j.Category); ok {
			start = int(perGPU*gpus + 0.5)
		} else {
			start = perfmodel.DefaultStartCores(j.Category) * j.Request.GPUsPerNode()
		}
	} else {
		if perGPU, ok := a.log.LargestCoresPerGPUAnyCategory(j.Tenant); ok {
			start = int(perGPU*gpus + 0.5)
		} else {
			start = perfmodel.DefaultStartCores(job.CategoryNone) * j.Request.GPUsPerNode()
		}
	}
	if j.Hints.HasPipeline {
		start--
	}
	if j.Hints.LargeWeights {
		start--
	}
	if j.Hints.ComplexPreprocess {
		start++
	}
	return a.clampCores(start)
}

// OnStarted begins a tuning session for a training job that just started
// with the given cores.
func (a *Allocator) OnStarted(j *job.Job, cores int) {
	if !j.IsGPU() {
		return
	}
	a.tuning[j.ID] = &tuneState{
		j:         j,
		bestCores: cores,
		curCores:  cores,
		step:      1,
		phase:     phaseBaseline,
		nextCheck: a.env.Now() + a.cfg.ProfileStep,
	}
}

// OnCompleted finalizes a job: its tuned core count is logged for future
// Nstart seeding (§V-A step 5).
func (a *Allocator) OnCompleted(j *job.Job, finalCores int) {
	delete(a.tuning, j.ID)
	info, ok := a.settled[j.ID]
	cores := finalCores
	if ok {
		cores = info.Cores
	}
	delete(a.settled, j.ID)
	if cores <= 0 {
		return
	}
	_ = a.log.Add(history.Record{
		JobID:    j.ID,
		Tenant:   j.Tenant,
		Kind:     j.Kind,
		Category: j.Category,
		CPUCores: cores,
		GPUs:     j.Request.GPUs,
		Nodes:    j.Request.Nodes,
	})
}

// Forget drops a fault-killed job's tuning state without logging a history
// record: an aborted attempt's profile belongs to a stale placement, and the
// history log must only seed Nstart from runs that actually finished. A
// retried job starts a fresh tuning session via OnStarted.
func (a *Allocator) Forget(id job.ID) {
	delete(a.tuning, id)
	delete(a.settled, id)
}

// Settled reports the tuned operating point of a job, if tuning finished.
func (a *Allocator) Settled(id job.ID) (settleInfo, bool) {
	info, ok := a.settled[id]
	return info, ok
}

// Tick advances every in-flight search whose profiling step elapsed.
// Jobs are processed in ID order: the environment's utilization readings
// consume a shared noise stream, so iteration order must be deterministic
// for runs to reproduce.
func (a *Allocator) Tick() {
	now := a.env.Now()
	due := a.due[:0]
	//coda:ordered-ok collected IDs are sorted before the searches advance
	for id, st := range a.tuning {
		if now >= st.nextCheck {
			due = append(due, id)
		}
	}
	slices.Sort(due)
	a.due = due
	for _, id := range due {
		if st, ok := a.tuning[id]; ok {
			a.advance(id, st)
		}
	}
}

// tryResize moves a job to the probe core count; a failed resize (pool
// full) reports false and the search falls back to the best point.
func (a *Allocator) tryResize(id job.ID, st *tuneState, cores int) bool {
	cores = a.clampCores(cores)
	if cores == st.curCores {
		return false
	}
	if err := a.resize(id, cores); err != nil {
		return false
	}
	st.curCores = cores
	return true
}

// settle ends the search at the best seen point.
func (a *Allocator) settle(id job.ID, st *tuneState) {
	if st.curCores != st.bestCores {
		// Best effort: if moving back fails, stay where we are.
		if err := a.resize(id, st.bestCores); err == nil {
			st.curCores = st.bestCores
		}
	}
	a.settled[id] = settleInfo{Cores: st.curCores, Util: st.bestUtil, Steps: st.stepsUsed}
	delete(a.tuning, id)
}

// ProfileSteps reports how many profiling steps a running job's search
// used (Table II); ok is false if the job has not settled or has left.
func (a *Allocator) ProfileSteps(id job.ID) (int, bool) {
	info, ok := a.settled[id]
	return info.Steps, ok
}

// advance runs one profiling-step transition of the search state machine:
// measure the baseline at Nstart, then probe smaller allocations first and
// larger ones second (§V-B2), doubling the probe distance while it keeps
// improving and settling at the best point otherwise.
func (a *Allocator) advance(id job.ID, st *tuneState) {
	util, err := a.env.GPUUtil(id)
	if err != nil {
		// The job is gone (completed mid-step); drop the session.
		delete(a.tuning, id)
		return
	}
	st.stepsUsed++
	st.nextCheck = a.env.Now() + a.cfg.ProfileStep

	improved := util > st.bestUtil*(1+a.cfg.Epsilon)
	if improved || st.phase == phaseBaseline {
		if util > st.bestUtil {
			st.bestUtil = util
		}
		st.bestCores = st.curCores
	}

	if st.stepsUsed >= a.cfg.MaxSteps {
		a.settle(id, st)
		return
	}

	switch st.phase {
	case phaseBaseline:
		// First probe direction: fewer cores ("The CPU allocator first
		// evaluates the smaller core number", §V-B2).
		st.phase = phaseDown
		if !a.tryResize(id, st, st.bestCores-st.step) {
			// Cannot shrink below 1: probe upward instead.
			st.phase = phaseUp
			if !a.tryResize(id, st, st.bestCores+st.step) {
				a.settle(id, st)
			}
		}
	case phaseDown:
		if improved {
			st.step *= 2
			if !a.tryResize(id, st, st.bestCores-st.step) {
				a.settle(id, st)
			}
			return
		}
		// Shrinking hurt: probe the opposite direction from the best point.
		st.phase = phaseUp
		st.step = 1
		if !a.tryResize(id, st, st.bestCores+st.step) {
			a.settle(id, st)
		}
	case phaseUp:
		if improved {
			st.step *= 2
			if !a.tryResize(id, st, st.bestCores+st.step) {
				a.settle(id, st)
			}
			return
		}
		a.settle(id, st)
	default:
		a.settle(id, st)
	}
}
