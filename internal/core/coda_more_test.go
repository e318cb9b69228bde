package core

import (
	"reflect"
	"testing"
	"time"

	"github.com/coda-repro/coda/internal/cluster"
	"github.com/coda-repro/coda/internal/history"
	"github.com/coda-repro/coda/internal/job"
	"github.com/coda-repro/coda/internal/sim"
	"github.com/coda-repro/coda/internal/trace"
)

// TestCODADeterminism: two identical CODA runs over a mixed trace produce
// identical summaries and identical per-job outcomes.
func TestCODADeterminism(t *testing.T) {
	cfg := trace.DefaultConfig()
	cfg.CPUJobs, cfg.GPUJobs = 300, 100
	cfg.Duration = 24 * time.Hour
	run := func() *sim.Result {
		jobs, err := trace.Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, _ := runCoda(t, DefaultConfig(), testOptions(), jobs)
		return res
	}
	a, b := run(), run()
	if a.Summarize() != b.Summarize() {
		t.Fatalf("summaries differ:\n%+v\n%+v", a.Summarize(), b.Summarize())
	}
	for id, js := range a.Jobs {
		other := b.Jobs[id]
		if js.FinalCores != other.FinalCores || js.FirstStart != other.FirstStart ||
			js.CompletedAt != other.CompletedAt {
			t.Fatalf("job %d outcome differs:\n%+v\n%+v", id, js, other)
		}
	}
}

// TestShortJobCompletesMidProfiling: a training job shorter than one
// profiling step completes cleanly; the allocator drops the session
// without touching other state.
func TestShortJobCompletesMidProfiling(t *testing.T) {
	j := gpuJob(1, 0, "resnet50", 2, 1, 1, 45*time.Second) // < 90 s step
	res, s := runCoda(t, DefaultConfig(), testOptions(), []*job.Job{j})
	if !res.Jobs[1].Completed {
		t.Fatal("short job did not complete")
	}
	if s.alloc.tuning[1] != nil {
		t.Error("tuning session leaked after completion")
	}
	if _, ok := s.Allocator().ProfileSteps(1); ok {
		t.Error("short job should never have settled")
	}
}

// TestPreemptedJobRestartsFromHead: a preempted CPU job re-enters the
// array head and restarts before later CPU arrivals of the same tenant.
func TestPreemptedJobRestartsFromHead(t *testing.T) {
	opts := testOptions()
	opts.Cluster.Nodes = 1
	opts.Cluster.CoresPerNode = 12
	opts.Cluster.GPUsPerNode = 2
	cfg := DefaultConfig()
	cfg.Array.ReserveCores = 8
	cfg.RebalanceEvery = 0

	jobs := []*job.Job{
		// Fill the node: 4 shared + 8 borrowed.
		cpuJob(1, 0, 2, 4, 3*time.Hour),
		cpuJob(2, 0, 2, 4, 3*time.Hour),
		cpuJob(3, 0, 2, 4, 3*time.Hour),
		// The training job forces a preemption...
		gpuJob(4, 10*time.Minute, "transformer", 2, 1, 1, 30*time.Minute),
		// ...and a later CPU job from the same tenant queues behind the
		// requeued victim.
		cpuJob(5, 11*time.Minute, 2, 4, time.Hour),
	}
	res, _ := runCoda(t, cfg, opts, jobs)
	if res.Preemptions == 0 {
		t.Fatal("expected a preemption")
	}
	// Find the victim: the CPU job with a preemption count.
	var victim job.ID
	for id := job.ID(1); id <= 3; id++ {
		if res.Jobs[id].Preemptions > 0 {
			victim = id
		}
	}
	if victim == 0 {
		t.Fatal("no victim recorded")
	}
	if !res.Jobs[victim].Completed || !res.Jobs[5].Completed {
		t.Fatal("jobs did not complete")
	}
	// The victim resumed when the training job finished; job 5 had to wait
	// at least as long.
	if res.Jobs[5].CompletedAt < res.Jobs[victim].CompletedAt {
		t.Errorf("later arrival (job 5, done %v) finished before the requeued victim (job %d, done %v)",
			res.Jobs[5].CompletedAt, victim, res.Jobs[victim].CompletedAt)
	}
}

// TestDisablePreemptionKeepsBorrowers: with preemption off, a training job
// that needs borrowed cores waits for the borrower instead of aborting it.
func TestDisablePreemptionKeepsBorrowers(t *testing.T) {
	opts := testOptions()
	opts.Cluster.Nodes = 1
	opts.Cluster.CoresPerNode = 12
	opts.Cluster.GPUsPerNode = 2
	cfg := DefaultConfig()
	cfg.Array.ReserveCores = 8
	cfg.RebalanceEvery = 0
	cfg.DisablePreemption = true

	jobs := []*job.Job{
		cpuJob(1, 0, 2, 4, 2*time.Hour),
		cpuJob(2, 0, 2, 4, 2*time.Hour),
		cpuJob(3, 0, 2, 4, 2*time.Hour),
		gpuJob(4, 30*time.Minute, "resnet50", 3, 1, 1, time.Hour),
	}
	res, _ := runCoda(t, cfg, opts, jobs)
	if res.Preemptions != 0 {
		t.Errorf("preemptions = %d with preemption disabled", res.Preemptions)
	}
	for id := job.ID(1); id <= 3; id++ {
		if res.Jobs[id].Preemptions != 0 {
			t.Errorf("job %d was preempted", id)
		}
	}
	if !res.Jobs[4].Completed {
		t.Fatal("training job never completed")
	}
}

// TestCODAOnHeterogeneousCluster: CPU-only nodes absorb CPU jobs while the
// GPU node serves training; invariants hold.
func TestCODAOnHeterogeneousCluster(t *testing.T) {
	opts := testOptions()
	opts.Cluster.Nodes = 1
	opts.Cluster.CPUOnlyNodes = 2
	s, err := NewForCluster(DefaultConfig(), opts.Cluster)
	if err != nil {
		t.Fatal(err)
	}
	jobs := []*job.Job{
		gpuJob(1, 0, "resnet50", 3, 1, 1, time.Hour),
		cpuJob(2, 0, 2, 20, 2*time.Hour), // only fits a whole node's budget
		cpuJob(3, 0, 3, 20, 2*time.Hour),
	}
	simulator, err := sim.New(opts, s, jobs)
	if err != nil {
		t.Fatal(err)
	}
	res, err := simulator.Run()
	if err != nil {
		t.Fatal(err)
	}
	if err := s.arrays.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for id := job.ID(1); id <= 3; id++ {
		if !res.Jobs[id].Completed {
			t.Errorf("job %d incomplete", id)
		}
	}
	// The 20-core CPU jobs cannot share the GPU node with its 14-core
	// reserve: they must be on the CPU-only nodes.
	if reflect.DeepEqual(res.Jobs[2], res.Jobs[3]) {
		t.Error("sanity: distinct stats expected")
	}
}

func TestSetHistoryWarmStart(t *testing.T) {
	log := history.NewLog()
	if err := log.Add(history.Record{
		JobID: 99, Tenant: 1, Kind: job.KindGPUTraining,
		Category: job.CategoryCV, CPUCores: 7, GPUs: 1,
	}); err != nil {
		t.Fatal(err)
	}
	s := newCoda(t, DefaultConfig(), testOptions())
	s.SetHistory(log)
	s.SetHistory(nil) // nil is a no-op, not a reset
	j := gpuJob(1, 0, "resnet50", 2, 1, 1, time.Hour)
	if got := s.Allocator().InitialCores(j); got != 7 {
		t.Errorf("warm-started Nstart = %d, want 7 from history", got)
	}
}

func TestMultiArrayAccessors(t *testing.T) {
	m, err := NewMultiArrayForCluster(DefaultArrayConfig(), cluster.Config{Nodes: 2, CoresPerNode: 28, GPUsPerNode: 5})
	if err != nil {
		t.Fatal(err)
	}
	if m.gpuQueues.Len() != 0 {
		t.Error("fresh scheduler should have no pending GPU jobs")
	}
	g := gpuJob(1, 0, "resnet50", 2, 1, 1, time.Hour)
	m.EnqueueGPU(g, 3)
	m.EnqueueCPU(cpuJob(2, 0, 1, 2, time.Hour))
	if gpu, cpu := m.gpuQueues.Len(), m.cpuQueues.Len(); gpu != 1 || cpu != 1 {
		t.Errorf("queue lengths = %d, %d; want 1, 1", gpu, cpu)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Error(err)
	}
	// Zero-core desired falls back to the request at start time.
	m.EnqueueGPU(gpuJob(3, 0, "resnet50", 2, 1, 1, time.Hour), 0)
}

func TestNewEliminatorConfigDefaults(t *testing.T) {
	m, err := NewMultiArrayForCluster(DefaultArrayConfig(), cluster.Config{Nodes: 1, CoresPerNode: 28, GPUsPerNode: 5})
	if err != nil {
		t.Fatal(err)
	}
	a := NewAllocator(DefaultAllocatorConfig(), history.NewLog(), m.ResizeRunning)
	e := NewEliminator(EliminatorConfig{Threshold: 2, Release: 0.9, UtilDropTolerance: -1}, a, m)
	def := DefaultEliminatorConfig()
	if e.cfg.Threshold != def.Threshold || e.cfg.Release != def.Release ||
		e.cfg.UtilDropTolerance != def.UtilDropTolerance || e.cfg.CheckInterval != def.CheckInterval {
		t.Errorf("invalid config not defaulted: %+v", e.cfg)
	}
}

// TestResizeRunningRefusalRollsBack grows a 2-node training job whose
// second node's pools are full: the first node's booking must roll back,
// the refusal must be errPoolsFull, and refusing must allocate nothing —
// the allocator's probes hit this path on every refused step.
func TestResizeRunningRefusalRollsBack(t *testing.T) {
	m, err := NewMultiArrayForCluster(DefaultArrayConfig(), cluster.Config{Nodes: 2, CoresPerNode: 28, GPUsPerNode: 4})
	if err != nil {
		t.Fatal(err)
	}
	m.Bind(&scriptedEnv{})
	g := gpuJob(1, 0, "resnet50", 4, 8, 2, time.Hour)
	for nid := range 2 {
		if !m.budgets[nid].chargeGPU(g.ID, 4) {
			t.Fatalf("node %d cannot fund the job", nid)
		}
	}
	m.running[g.ID] = &runInfo{j: g, alloc: job.Allocation{NodeIDs: []int{0, 1}, CPUCores: 4, GPUs: 4}}
	b1 := m.budgets[1]
	if !b1.chargeCPU(2, b1.reserveFree()+b1.sharedFree()) {
		t.Fatal("cannot fill node 1's pools")
	}
	before := [2]draw{m.budgets[0].gpuDraws[g.ID], b1.gpuDraws[g.ID]}
	if err := m.ResizeRunning(g.ID, 6); err != errPoolsFull {
		t.Fatalf("ResizeRunning onto a full node: %v, want errPoolsFull", err)
	}
	if after := [2]draw{m.budgets[0].gpuDraws[g.ID], b1.gpuDraws[g.ID]}; after != before {
		t.Errorf("refused resize left draws %+v, want %+v", after, before)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(100, func() { _ = m.ResizeRunning(g.ID, 6) }); allocs != 0 {
		t.Errorf("a refused resize allocates %v times, want 0", allocs)
	}
}
