package sim

import (
	"testing"
	"time"

	"github.com/coda-repro/coda/internal/job"
	"github.com/coda-repro/coda/internal/sched"
)

func TestHeterogeneousClusterShape(t *testing.T) {
	opts := testOptions()
	opts.Cluster.Nodes = 2
	opts.Cluster.CPUOnlyNodes = 3
	simulator, err := New(opts, sched.NewFIFO(), []*job.Job{cpuJob(1, 0, 2, time.Minute)})
	if err != nil {
		t.Fatal(err)
	}
	c := simulator.Cluster()
	if c.Size() != 5 {
		t.Fatalf("Size = %d, want 5", c.Size())
	}
	for i := 0; i < 2; i++ {
		n, _ := c.Node(i)
		if n.GPUs != 4 {
			t.Errorf("GPU node %d has %d GPUs", i, n.GPUs)
		}
	}
	for i := 2; i < 5; i++ {
		n, _ := c.Node(i)
		if n.GPUs != 0 {
			t.Errorf("CPU-only node %d has %d GPUs", i, n.GPUs)
		}
	}
	if _, err := simulator.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestHeterogeneousGPUJobNeverOnCPUNode(t *testing.T) {
	opts := testOptions()
	opts.Cluster.Nodes = 1
	opts.Cluster.CPUOnlyNodes = 3
	jobs := []*job.Job{
		gpuJob(1, 0, "resnet50", 3, 1, time.Hour),
		cpuJob(2, 0, 4, time.Hour),
	}
	// Track placements via a scheduler that records them.
	rec := &placementRecorder{}
	simulator, err := New(opts, rec, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := simulator.Run(); err != nil {
		t.Fatal(err)
	}
	if got := rec.placed[1]; len(got) != 1 || got[0] != 0 {
		t.Errorf("GPU job placed on %v, want the GPU node [0]", got)
	}
}

// placementRecorder is a first-fit scheduler that records placements.
type placementRecorder struct {
	envScheduler
	placed map[job.ID][]int
}

func (p *placementRecorder) Bind(env sched.Env) {
	p.envScheduler.Bind(env)
	p.placed = make(map[job.ID][]int)
}

func (p *placementRecorder) Submit(j *job.Job) {
	alloc, ok := sched.PlaceRequest(p.env.Cluster(), j.Request, nil)
	if !ok {
		return
	}
	if err := p.env.StartJob(j.ID, alloc); err == nil {
		p.placed[j.ID] = alloc.NodeIDs
	}
}

// TestLLCPressureHarmless checks Fig. 7's LLC claim end to end: filling a
// node's cores with CPU jobs (maximum cache pressure) barely slows a
// co-located training job.
func TestLLCPressureHarmless(t *testing.T) {
	opts := testOptions()
	opts.Cluster.Nodes = 1
	alone := mustRun(t, opts, sched.NewFIFO(),
		[]*job.Job{gpuJob(1, 0, "resnet50", 3, 1, time.Hour)})
	// 25 CPU-job cores on the 28-core node: heavy LLC pressure, light
	// bandwidth (0.3 GB/s per core).
	crowded := mustRun(t, opts, sched.NewFIFO(), []*job.Job{
		gpuJob(1, 0, "resnet50", 3, 1, time.Hour),
		cpuJob(2, 0, 13, 3*time.Hour),
		cpuJob(3, 0, 12, 3*time.Hour),
	})
	slowdown := float64(crowded.Jobs[1].EndToEnd()) / float64(alone.Jobs[1].EndToEnd())
	if slowdown > 1.05 {
		t.Errorf("LLC pressure slowed training %.1f%%, want < 5%%", (slowdown-1)*100)
	}
}
