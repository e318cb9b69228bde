package core

import (
	"fmt"
	"testing"
	"time"

	"github.com/coda-repro/coda/internal/cluster"
	"github.com/coda-repro/coda/internal/history"
	"github.com/coda-repro/coda/internal/job"
	"github.com/coda-repro/coda/internal/membw"
	"github.com/coda-repro/coda/internal/sched"
)

// scriptedEnv drives the allocator's state machine directly: GPUUtil
// returns a value from a caller-provided curve over the current core
// count, and resize calls can be made to fail.
type scriptedEnv struct {
	now       time.Duration
	cores     int
	utilCurve func(cores int) float64
	failAt    map[int]bool // resize targets that fail
	resizes   []int
}

var _ sched.Env = (*scriptedEnv)(nil)

func (e *scriptedEnv) Now() time.Duration                    { return e.now }
func (e *scriptedEnv) Cluster() *cluster.Cluster             { return nil }
func (e *scriptedEnv) Meter(int) (*membw.Meter, error)       { return membw.NewMeter(100, true) }
func (e *scriptedEnv) StartJob(job.ID, job.Allocation) error { return nil }
func (e *scriptedEnv) ResizeJob(job.ID, int) error           { return nil }
func (e *scriptedEnv) PreemptJob(job.ID) (*job.Job, error)   { return nil, fmt.Errorf("unsupported") }
func (e *scriptedEnv) ThrottleJob(job.ID, float64) error     { return nil }
func (e *scriptedEnv) UnthrottleJob(job.ID) error            { return nil }
func (e *scriptedEnv) GPUUtil(job.ID) (float64, error) {
	return e.utilCurve(e.cores), nil
}

// resize is the hook handed to the allocator.
func (e *scriptedEnv) resize(_ job.ID, cores int) error {
	if e.failAt[cores] {
		return fmt.Errorf("scripted: resize to %d refused", cores)
	}
	e.cores = cores
	e.resizes = append(e.resizes, cores)
	return nil
}

// peakCurve builds a utilization curve peaking at opt.
func peakCurve(opt int) func(int) float64 {
	return func(cores int) float64 {
		if cores <= opt {
			return 0.9 * float64(cores) / float64(opt)
		}
		return 0.9 - 0.025*float64(cores-opt)
	}
}

// newScripted builds an allocator wired to a scripted env with a job
// running at startCores.
func newScripted(t *testing.T, startCores int, curve func(int) float64) (*Allocator, *scriptedEnv, *job.Job) {
	t.Helper()
	env := &scriptedEnv{cores: startCores, utilCurve: curve, failAt: map[int]bool{}}
	a := NewAllocator(DefaultAllocatorConfig(), history.NewLog(), env.resize)
	a.Bind(env)
	j := &job.Job{
		ID: 1, Kind: job.KindGPUTraining, Tenant: 1,
		Category: job.CategoryCV, Model: "resnet50",
		Request: job.Request{CPUCores: 2, GPUs: 1, Nodes: 1},
		Work:    time.Hour,
	}
	a.OnStarted(j, startCores)
	return a, env, j
}

// step advances virtual time past one profiling step and ticks.
func step(a *Allocator, env *scriptedEnv) {
	env.now += DefaultAllocatorConfig().ProfileStep + time.Second
	a.Tick()
}

func TestAllocatorSearchConvergesDownhill(t *testing.T) {
	// Start above the optimum: the down-probe ladder must find it.
	a, env, _ := newScripted(t, 7, peakCurve(4))
	for i := 0; i < 10 && a.tuning[1] != nil; i++ {
		step(a, env)
	}
	info, ok := a.Settled(1)
	if !ok {
		t.Fatal("search never settled")
	}
	if info.Cores < 3 || info.Cores > 5 {
		t.Errorf("settled at %d cores, want near the optimum 4", info.Cores)
	}
	if steps, _ := a.ProfileSteps(1); steps > DefaultAllocatorConfig().MaxSteps {
		t.Errorf("used %d steps, cap is %d", steps, DefaultAllocatorConfig().MaxSteps)
	}
}

func TestAllocatorSearchConvergesUphill(t *testing.T) {
	// Start below the optimum: the down probe fails to improve, the up
	// ladder climbs.
	a, env, _ := newScripted(t, 3, peakCurve(6))
	for i := 0; i < 10 && a.tuning[1] != nil; i++ {
		step(a, env)
	}
	info, ok := a.Settled(1)
	if !ok {
		t.Fatal("search never settled")
	}
	if info.Cores < 4 {
		t.Errorf("settled at %d cores, want climbed toward 6", info.Cores)
	}
}

func TestAllocatorStepBudget(t *testing.T) {
	// A pathological monotone curve cannot out-run the step budget.
	a, env, _ := newScripted(t, 2, func(cores int) float64 {
		return 0.05 * float64(cores) // always improving upward
	})
	for i := 0; i < 20 && a.tuning[1] != nil; i++ {
		step(a, env)
	}
	if _, ok := a.Settled(1); !ok {
		t.Fatal("search never settled")
	}
	if steps, _ := a.ProfileSteps(1); steps > DefaultAllocatorConfig().MaxSteps {
		t.Errorf("steps = %d, cap %d", steps, DefaultAllocatorConfig().MaxSteps)
	}
}

func TestAllocatorResizeFailureSettles(t *testing.T) {
	// The first down-probe target is refused (pool full): the allocator
	// probes upward instead, and a second refusal settles the search.
	a, env, _ := newScripted(t, 4, peakCurve(4))
	env.failAt[3] = true
	env.failAt[5] = true
	for i := 0; i < 10 && a.tuning[1] != nil; i++ {
		step(a, env)
	}
	info, ok := a.Settled(1)
	if !ok {
		t.Fatal("search never settled")
	}
	if info.Cores != 4 {
		t.Errorf("settled at %d, want to stay at 4 when probes are refused", info.Cores)
	}
}

func TestAllocatorBaselineAtOneCore(t *testing.T) {
	// Starting at 1 core there is no downward probe; the search must go up.
	a, env, _ := newScripted(t, 1, peakCurve(3))
	for i := 0; i < 10 && a.tuning[1] != nil; i++ {
		step(a, env)
	}
	info, ok := a.Settled(1)
	if !ok {
		t.Fatal("search never settled")
	}
	if info.Cores < 2 {
		t.Errorf("settled at %d, want climbed from 1", info.Cores)
	}
}

func TestAllocatorIgnoresCPUJobs(t *testing.T) {
	env := &scriptedEnv{cores: 2, utilCurve: peakCurve(3), failAt: map[int]bool{}}
	a := NewAllocator(DefaultAllocatorConfig(), history.NewLog(), env.resize)
	a.Bind(env)
	c := &job.Job{ID: 2, Kind: job.KindCPU, Tenant: 1, Request: job.Request{CPUCores: 2, Nodes: 1}, Work: time.Hour}
	a.OnStarted(c, 2)
	if a.tuning[2] != nil {
		t.Error("CPU jobs must not start tuning sessions")
	}
}

func TestAllocatorCompletionLogsHistory(t *testing.T) {
	a, env, j := newScripted(t, 4, peakCurve(4))
	for i := 0; i < 10 && a.tuning[1] != nil; i++ {
		step(a, env)
	}
	a.OnCompleted(j, env.cores)
	// j holds one GPU, so its per-GPU maximum is its tuned core count.
	perGPU, ok := a.log.LargestCoresPerGPU(j.Tenant, j.Category)
	if !ok || perGPU < 3 {
		t.Errorf("history cores per GPU = %g, %v", perGPU, ok)
	}
	if a.tuning[1] != nil {
		t.Error("tuning state leaked after completion")
	}
	if _, ok := a.settled[1]; ok {
		t.Error("settled state leaked after completion")
	}
	// The step count lives only while the job runs.
	if _, ok := a.ProfileSteps(1); ok {
		t.Error("ProfileSteps kept after completion")
	}
}

func TestAllocatorConfigDefaultsApplied(t *testing.T) {
	a := NewAllocator(AllocatorConfig{}, history.NewLog(), func(job.ID, int) error { return nil })
	def := DefaultAllocatorConfig()
	if a.cfg.ProfileStep != def.ProfileStep || a.cfg.MaxSteps != def.MaxSteps ||
		a.cfg.Epsilon != def.Epsilon || a.cfg.MaxCores != def.MaxCores {
		t.Errorf("zero config not defaulted: %+v", a.cfg)
	}
}
