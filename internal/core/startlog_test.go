package core

import (
	"slices"
	"testing"
	"time"

	"github.com/coda-repro/coda/internal/chaos"
	"github.com/coda-repro/coda/internal/job"
	"github.com/coda-repro/coda/internal/sched"
	"github.com/coda-repro/coda/internal/sim"
	"github.com/coda-repro/coda/internal/trace"
)

// diffScheduler is CODA with its start log checked, after every
// scheduling pass, against a before/after diff of arrays.running. Every
// entry point runs exactly one drain, as its last step, and before it at
// most removes from running the job the call is about (a completion or a
// kill), so the running set when the drain begins is the set at call time
// minus that job.
type diffScheduler struct {
	*Scheduler
	t   *testing.T
	env *preemptCounter
	// restarts counts same-pass preempt-and-restart borrowers: jobs in the
	// log that the diff misses because they were running before the pass.
	restarts int
}

// preemptCounter is the environment with its successful preemptions
// counted.
type preemptCounter struct {
	sched.Env
	preempts int
}

func (e *preemptCounter) PreemptJob(id job.ID) (*job.Job, error) {
	clone, err := e.Env.PreemptJob(id)
	if err == nil {
		e.preempts++
	}
	return clone, err
}

func (d *diffScheduler) Bind(env sched.Env) {
	d.env = &preemptCounter{Env: env}
	d.Scheduler.Bind(d.env)
}

func (d *diffScheduler) Submit(j *job.Job) {
	d.pass(nil, func() { d.Scheduler.Submit(j) })
}

func (d *diffScheduler) OnJobCompleted(j *job.Job) {
	d.pass(j, func() { d.Scheduler.OnJobCompleted(j) })
}

func (d *diffScheduler) OnJobKilled(j *job.Job) {
	d.pass(j, func() { d.Scheduler.OnJobKilled(j) })
}

func (d *diffScheduler) OnJobCancelled(j *job.Job) {
	d.pass(nil, func() { d.Scheduler.OnJobCancelled(j) })
}

func (d *diffScheduler) Tick() { d.pass(nil, d.Scheduler.Tick) }

func (d *diffScheduler) pass(gone *job.Job, call func()) {
	d.t.Helper()
	m := d.arrays
	before := make(map[job.ID]bool, len(m.running))
	for id := range m.running {
		before[id] = true
	}
	if gone != nil {
		delete(before, gone.ID)
	}
	preempts := d.env.preempts
	call()

	var diff []job.ID
	for id := range m.running {
		if !before[id] {
			diff = append(diff, id)
		}
	}
	slices.Sort(diff)
	log := m.startLog
	if !slices.IsSorted(log) || len(slices.Compact(slices.Clone(log))) != len(log) {
		d.t.Fatalf("start log %v is not sorted and duplicate-free", log)
	}
	for _, id := range diff {
		if _, ok := slices.BinarySearch(log, id); !ok {
			d.t.Fatalf("job %d started in the pass but is missing from the start log %v", id, log)
		}
	}
	for _, id := range log {
		if _, ok := slices.BinarySearch(diff, id); ok {
			continue
		}
		info, running := m.running[id]
		switch {
		case !running:
			d.t.Fatalf("logged job %d is not running after the pass", id)
		case info.j.IsGPU():
			d.t.Fatalf("logged GPU job %d was already running before the pass", id)
		case d.env.preempts == preempts:
			d.t.Fatalf("logged CPU job %d was running before a pass that preempted nothing", id)
		}
		d.restarts++
	}
}

// runDiffChecked runs CODA under diffScheduler and returns the result
// with the number of same-pass restarts seen.
func runDiffChecked(t *testing.T, cfg Config, opts sim.Options, jobs []*job.Job) (*sim.Result, int) {
	t.Helper()
	d := &diffScheduler{Scheduler: newCoda(t, cfg, opts), t: t}
	simulator, err := sim.New(opts, d, jobs)
	if err != nil {
		t.Fatal(err)
	}
	res, err := simulator.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res, d.restarts
}

// TestStartLogMatchesRunningDiffRestart constructs the one case where the
// start log and the diff differ. Node 0 runs a 2-GPU job on 2 of its 12
// cores; the 10-core borrower lands on node 1 (CPU jobs scan from the
// highest node). A 4-core training job then fits node 1 only by
// reclaiming the borrower, and drainCPU restarts the borrower on node 0's
// 10 free cores in the same pass.
func TestStartLogMatchesRunningDiffRestart(t *testing.T) {
	opts := testOptions()
	opts.Cluster.Nodes = 2
	opts.Cluster.CoresPerNode = 12
	opts.Cluster.GPUsPerNode = 2
	cfg := DefaultConfig()
	cfg.Array.ReserveCores = 8
	cfg.RebalanceEvery = 0
	cfg.DisableAdaptiveAllocation = true
	jobs := []*job.Job{
		gpuJob(1, 0, "resnet50", 2, 2, 1, 3*time.Hour),
		cpuJob(2, time.Minute, 2, 10, 2*time.Hour),
		gpuJob(3, 10*time.Minute, "resnet50", 4, 2, 1, time.Hour),
	}
	res, restarts := runDiffChecked(t, cfg, opts, jobs)
	if res.Jobs[2].Preemptions != 1 {
		t.Fatalf("borrower preemptions = %d, want 1", res.Jobs[2].Preemptions)
	}
	if restarts != 1 {
		t.Errorf("same-pass restarts = %d, want 1", restarts)
	}
	for id := job.ID(1); id <= 3; id++ {
		if !res.Jobs[id].Completed {
			t.Errorf("job %d did not complete", id)
		}
	}
}

// TestStartLogMatchesRunningDiffTraces checks the log against the diff on
// every pass of preemption-heavy and chaos-perturbed trace runs.
func TestStartLogMatchesRunningDiffTraces(t *testing.T) {
	gen := func(seed int64, cpuJobs, gpuJobs int) []*job.Job {
		tc := trace.DefaultConfig()
		tc.CPUJobs, tc.GPUJobs = cpuJobs, gpuJobs
		tc.Duration = 12 * time.Hour
		tc.Seed = seed
		jobs, err := trace.Generate(tc)
		if err != nil {
			t.Fatal(err)
		}
		return jobs
	}
	cases := []struct {
		name   string
		jobs   []*job.Job
		faults chaos.Plan
	}{
		{"busy", gen(7, 400, 130), chaos.Plan{}},
		{"chaos", gen(8, 200, 70), chaos.Plan{
			Seed: 15, Horizon: 12 * time.Hour,
			NodeCrashesPerDay: 6, CrashDowntime: 25 * time.Minute,
			MembwDropsPerDay: 12, MembwDropDuration: 10 * time.Minute,
			StragglersPerDay: 8, StragglerFactor: 0.5, StragglerDuration: 30 * time.Minute,
			JobFailureProb: 0.2, MaxRetries: 2, RetryBackoff: 2 * time.Minute,
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			opts := testOptions()
			opts.Faults = tc.faults
			res, restarts := runDiffChecked(t, DefaultConfig(), opts, tc.jobs)
			if res.Preemptions == 0 {
				t.Error("no preemptions; the trace does not exercise reclaimNode")
			}
			t.Logf("preemptions %d, same-pass restarts %d", res.Preemptions, restarts)
		})
	}
}
