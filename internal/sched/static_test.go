package sched

import (
	"testing"

	"github.com/coda-repro/coda/internal/job"
)

func TestStaticName(t *testing.T) {
	if got := NewStatic(28, 5).Name(); got != "static" {
		t.Errorf("Name = %q", got)
	}
}

func TestStaticCoresPerGPU(t *testing.T) {
	tests := []struct {
		cores, gpus, want int
	}{
		{28, 5, 5}, // 28/5 = 5 (integer)
		{28, 4, 7}, // clean split
		{8, 2, 4},  // small node
		{4, 8, 1},  // floor at 1
		{28, 0, 1}, // cpu-only shape degenerates to 1
	}
	for _, tt := range tests {
		s := NewStatic(tt.cores, tt.gpus)
		if s.coresPerGPU != tt.want {
			t.Errorf("NewStatic(%d,%d).coresPerGPU = %d, want %d", tt.cores, tt.gpus, s.coresPerGPU, tt.want)
		}
	}
}

func TestStaticGPURequestRewritten(t *testing.T) {
	env := newFakeEnv(smallCluster()) // 8 cores, 2 GPUs/node -> 4 cores/GPU
	s := NewStatic(8, 2)
	s.Bind(env)

	// The owner asked for 1 core; the static split grants 4 per GPU.
	s.Submit(gpuJob(1, 1, 1, 1))
	if len(env.started) != 1 {
		t.Fatalf("started = %v", env.started)
	}
	n, _ := env.c.Node(0)
	cores, gpus, _ := n.JobShare(1)
	if cores != 4 || gpus != 1 {
		t.Errorf("share = %d cores %d gpus, want 4, 1", cores, gpus)
	}

	// A 2-GPU job takes the whole node's cores: nothing else fits there.
	s.Submit(gpuJob(2, 1, 1, 2))
	n1, _ := env.c.Node(1)
	if n1.FreeCores() != 0 {
		t.Errorf("node 1 free cores = %d, want 0 (statically split)", n1.FreeCores())
	}
}

func TestStaticCPUJobsStarved(t *testing.T) {
	env := newFakeEnv(smallCluster())
	s := NewStatic(8, 2)
	s.Bind(env)
	// Two 2-GPU jobs consume every core of both nodes.
	s.Submit(gpuJob(1, 1, 1, 2))
	s.Submit(gpuJob(2, 1, 1, 2))
	// The CPU job has nowhere to run: the paper's CPU-underutilization
	// complaint inverted — here CPU jobs starve while GPU-side cores idle
	// inside over-sized slices.
	s.Submit(cpuJob(3, 2, 1))
	if len(env.started) != 2 {
		t.Fatalf("started = %v", env.started)
	}
	if s.queue.Len() != 1 {
		t.Errorf("queue length = %d, want 1", s.queue.Len())
	}
	env.release(t, 1)
	s.OnJobCompleted(&job.Job{ID: 1})
	if len(env.started) != 3 {
		t.Errorf("CPU job did not start after a GPU job freed its slice: %v", env.started)
	}
}
