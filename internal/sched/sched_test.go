package sched

import (
	"fmt"
	"testing"
	"time"

	"github.com/coda-repro/coda/internal/cluster"
	"github.com/coda-repro/coda/internal/job"
	"github.com/coda-repro/coda/internal/membw"
)

// fakeEnv is a minimal Env for unit-testing policies without the simulator.
// StartJob allocates on the cluster directly.
type fakeEnv struct {
	c       *cluster.Cluster
	now     time.Duration
	started []job.ID
	failIDs map[job.ID]bool // StartJob returns an error for these
}

var _ Env = (*fakeEnv)(nil)

func newFakeEnv(cfg cluster.Config) *fakeEnv {
	return &fakeEnv{c: cluster.MustNew(cfg), failIDs: make(map[job.ID]bool)}
}

func (f *fakeEnv) Now() time.Duration        { return f.now }
func (f *fakeEnv) Cluster() *cluster.Cluster { return f.c }
func (f *fakeEnv) Meter(int) (*membw.Meter, error) {
	return membw.NewMeter(100, true)
}
func (f *fakeEnv) StartJob(id job.ID, alloc job.Allocation) error {
	if f.failIDs[id] {
		return fmt.Errorf("fake: refusing job %d", id)
	}
	if err := f.c.Allocate(id, alloc); err != nil {
		return err
	}
	f.started = append(f.started, id)
	return nil
}
func (f *fakeEnv) ResizeJob(id job.ID, cores int) error { return f.c.Resize(id, cores) }
func (f *fakeEnv) PreemptJob(id job.ID) (*job.Job, error) {
	return nil, fmt.Errorf("fake: preempt unsupported")
}
func (f *fakeEnv) ThrottleJob(job.ID, float64) error { return nil }
func (f *fakeEnv) UnthrottleJob(job.ID) error        { return nil }
func (f *fakeEnv) GPUUtil(job.ID) (float64, error)   { return 0.5, nil }

func (f *fakeEnv) release(t *testing.T, id job.ID) {
	t.Helper()
	if err := f.c.Release(id); err != nil {
		t.Fatal(err)
	}
}

func smallCluster() cluster.Config {
	return cluster.Config{Nodes: 2, CoresPerNode: 8, GPUsPerNode: 2, BandwidthGBs: 100, PCIeGBs: 16}
}

func gpuJob(id job.ID, tenant job.TenantID, cores, gpus int) *job.Job {
	return &job.Job{
		ID: id, Kind: job.KindGPUTraining, Tenant: tenant,
		Category: job.CategoryCV, Model: "resnet50",
		Request: job.Request{CPUCores: cores, GPUs: gpus, Nodes: 1},
		Work:    time.Hour,
	}
}

func cpuJob(id job.ID, tenant job.TenantID, cores int) *job.Job {
	return &job.Job{
		ID: id, Kind: job.KindCPU, Tenant: tenant,
		Request: job.Request{CPUCores: cores, Nodes: 1},
		Work:    time.Minute,
	}
}

func TestPlaceRequest(t *testing.T) {
	c := cluster.MustNew(smallCluster())
	alloc, ok := PlaceRequest(c, job.Request{CPUCores: 4, GPUs: 1, Nodes: 1}, nil)
	if !ok {
		t.Fatal("expected placement")
	}
	if len(alloc.NodeIDs) != 1 || alloc.CPUCores != 4 || alloc.GPUs != 1 {
		t.Errorf("alloc = %+v", alloc)
	}
	// Multi-node placement splits GPUs per node.
	alloc, ok = PlaceRequest(c, job.Request{CPUCores: 2, GPUs: 4, Nodes: 2}, nil)
	if !ok {
		t.Fatal("expected multi-node placement")
	}
	if len(alloc.NodeIDs) != 2 || alloc.GPUs != 2 {
		t.Errorf("alloc = %+v", alloc)
	}
	// Impossible request.
	if _, ok := PlaceRequest(c, job.Request{CPUCores: 99, GPUs: 1, Nodes: 1}, nil); ok {
		t.Error("oversized request should not place")
	}
}

func TestFIFOOrdering(t *testing.T) {
	env := newFakeEnv(smallCluster())
	f := NewFIFO()
	f.Bind(env)

	// Job 1 fills node 0's GPUs+cores; job 2 fills node 1; job 3 must wait.
	f.Submit(gpuJob(1, 1, 8, 2))
	f.Submit(gpuJob(2, 1, 8, 2))
	f.Submit(gpuJob(3, 1, 1, 1))
	if len(env.started) != 2 {
		t.Fatalf("started = %v, want jobs 1,2", env.started)
	}
	if f.size != 1 {
		t.Errorf("queue length = %d, want 1", f.size)
	}
	// Completion frees node 0; job 3 starts.
	env.release(t, 1)
	f.OnJobCompleted(&job.Job{ID: 1})
	if len(env.started) != 3 || env.started[2] != 3 {
		t.Errorf("started = %v, want [1 2 3]", env.started)
	}
	if f.size != 0 {
		t.Errorf("queue length = %d, want 0", f.size)
	}
}

func TestFIFOHeadOfLineBlocking(t *testing.T) {
	env := newFakeEnv(smallCluster())
	f := NewFIFO()
	f.Bind(env)

	f.Submit(gpuJob(1, 1, 8, 2))  // fills node 0
	f.Submit(gpuJob(2, 1, 8, 2))  // fills node 1
	f.Submit(gpuJob(3, 1, 16, 2)) // can never fit: blocks
	f.Submit(cpuJob(4, 2, 1))     // would fit, but FIFO blocks it
	if len(env.started) != 2 {
		t.Fatalf("started = %v", env.started)
	}
	f.Tick()
	if len(env.started) != 2 {
		t.Errorf("HOL blocking violated: started = %v", env.started)
	}
}

func TestFIFOStartFailureKeepsJobQueued(t *testing.T) {
	env := newFakeEnv(smallCluster())
	env.failIDs[1] = true
	f := NewFIFO()
	f.Bind(env)
	f.Submit(cpuJob(1, 1, 1))
	if f.size != 1 {
		t.Errorf("queue length = %d, want 1 (failed start must not drop job)", f.size)
	}
}

func TestFIFOName(t *testing.T) {
	if got := NewFIFO().Name(); got != "fifo" {
		t.Errorf("Name = %q", got)
	}
}

func TestDRFFairnessOrdering(t *testing.T) {
	env := newFakeEnv(smallCluster()) // 4 GPUs, 16 cores total
	d, err := NewDRF(16, 4)
	if err != nil {
		t.Fatal(err)
	}
	d.Bind(env)

	// Tenant 1 holds node 0; a filler job holds node 1. Tenant 1 and
	// tenant 2 then queue one 1-GPU job each. When the filler completes,
	// tenant 2 (poorer in GPU share) must start first.
	d.Submit(gpuJob(1, 1, 8, 2))
	d.Submit(gpuJob(9, 4, 8, 2)) // filler
	d.Submit(gpuJob(2, 1, 2, 1))
	d.Submit(gpuJob(3, 2, 2, 1))
	if len(env.started) != 2 {
		t.Fatalf("started = %v, want only jobs 1 and 9", env.started)
	}
	env.release(t, 9)
	d.OnJobCompleted(gpuJob(9, 4, 8, 2))
	if len(env.started) != 4 {
		t.Fatalf("started = %v, want 4 jobs started", env.started)
	}
	if env.started[2] != 3 || env.started[3] != 2 {
		t.Errorf("start order = %v, want tenant 2's job (id 3) before job 2", env.started)
	}
}

func TestDRFBlockedTenantDoesNotBlockOthers(t *testing.T) {
	env := newFakeEnv(smallCluster())
	d, err := NewDRF(16, 4)
	if err != nil {
		t.Fatal(err)
	}
	d.Bind(env)

	d.Submit(gpuJob(1, 1, 8, 2)) // node 0 full
	d.Submit(gpuJob(2, 1, 8, 2)) // node 1 full
	d.Submit(gpuJob(3, 2, 8, 2)) // tenant 2 blocked
	d.Submit(cpuJob(4, 3, 4))    // tenant 3's CPU job: still fits? no cores left
	if len(env.started) != 2 {
		t.Fatalf("started = %v", env.started)
	}
	env.release(t, 1)
	d.OnJobCompleted(gpuJob(1, 1, 8, 2))
	// Tenant 2's blocked GPU job fits now; tenant 3's CPU job also fits
	// afterwards on remaining cores? Node 0 freed: 8 cores, 2 GPUs. Job 3
	// takes all 8 cores. Job 4 has nowhere to go.
	if len(env.started) != 3 || env.started[2] != 3 {
		t.Errorf("started = %v, want job 3 next", env.started)
	}
	if d.queues.Len() != 1 {
		t.Errorf("queue length = %d, want 1", d.queues.Len())
	}
}

func TestDRFRefundOnCompletion(t *testing.T) {
	env := newFakeEnv(smallCluster())
	d, err := NewDRF(16, 4)
	if err != nil {
		t.Fatal(err)
	}
	d.Bind(env)
	j := gpuJob(1, 1, 2, 1)
	d.Submit(j)
	env.release(t, 1)
	d.OnJobCompleted(j)
	// After refund tenant 1 is as poor as tenant 2: FIFO within ties by ID.
	d.Submit(gpuJob(2, 2, 2, 1))
	d.Submit(gpuJob(3, 1, 2, 1))
	if len(env.started) != 3 {
		t.Fatalf("started = %v", env.started)
	}
}

func TestDRFName(t *testing.T) {
	d, err := NewDRF(10, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got := d.Name(); got != "drf" {
		t.Errorf("Name = %q", got)
	}
}

func TestNewDRFValidation(t *testing.T) {
	if _, err := NewDRF(0, 4); err == nil {
		t.Error("NewDRF(0 cpu) should fail")
	}
	if _, err := NewDRF(10, 0); err == nil {
		t.Error("NewDRF(0 gpu) should fail with DominantGPU")
	}
}
