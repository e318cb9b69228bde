package sched

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"testing"
	"time"

	"github.com/coda-repro/coda/internal/cluster"
	"github.com/coda-repro/coda/internal/job"
)

// deepReserveDepth is the deep backfill depth the differential test
// exercises beside depth 1.
const deepReserveDepth = 16

// flatFIFO is the pre-optimization reference implementation: the flat
// arrival-order walk over a single queue, kept verbatim so the shape-heap
// FIFO can be differentially tested against it. Any divergence in start
// order, placement-query count, or queue contents is a scheduling change.
type flatFIFO struct {
	env          Env
	queue        []*job.Job
	ReserveDepth int
	reserved     ExcludeSet
	failed       failedSet
}

func (r *flatFIFO) Bind(env Env)            { r.env = env }
func (r *flatFIFO) Submit(j *job.Job)       { r.queue = append(r.queue, j); r.drain() }
func (r *flatFIFO) OnJobCompleted(*job.Job) { r.drain() }
func (r *flatFIFO) OnJobKilled(*job.Job)    { r.drain() }
func (r *flatFIFO) Tick()                   { r.drain() }

func (r *flatFIFO) OnJobCancelled(j *job.Job) {
	for i, q := range r.queue {
		if q.ID == j.ID {
			r.queue = append(r.queue[:i], r.queue[i+1:]...)
			break
		}
	}
	r.drain()
}

func (r *flatFIFO) drain() {
	r.reserved.Reset()
	r.failed.reset()
	reservations := 0
	for i := 0; i < len(r.queue); {
		j := r.queue[i]
		if r.failed.covered(j.Request) {
			i++
			continue
		}
		if alloc, found := PlaceRequest(r.env.Cluster(), j.Request, &r.reserved); found {
			if err := r.env.StartJob(j.ID, alloc); err == nil {
				r.queue = append(r.queue[:i], r.queue[i+1:]...)
				continue
			}
		} else {
			r.failed.add(j.Request)
			if j.IsGPU() && reservations < r.ReserveDepth {
				for _, nid := range ReserveNodes(r.env.Cluster(), j.Request, &r.reserved) {
					r.reserved.Add(nid)
				}
				reservations++
			}
		}
		i++
	}
}

// diffJob builds a random job: CPU-only or GPU training, single- or
// multi-node, from a small pool of shapes so sub-queues grow deep.
func diffJob(rng *rand.Rand, id job.ID) *job.Job {
	nodes := 1
	if rng.Intn(4) == 0 {
		nodes = 2
	}
	if rng.Intn(3) == 0 { // GPU training job
		gpus := (rng.Intn(2) + 1) * nodes
		return &job.Job{
			ID: id, Kind: job.KindGPUTraining, Tenant: 1,
			Category: job.CategoryCV, Model: "resnet50",
			Request: job.Request{CPUCores: rng.Intn(4) + 1, GPUs: gpus, Nodes: nodes},
			Work:    time.Hour,
		}
	}
	return &job.Job{
		ID: id, Kind: job.KindCPU, Tenant: 1,
		Request: job.Request{CPUCores: rng.Intn(8) + 1, Nodes: nodes},
		Work:    time.Minute,
	}
}

// TestFIFOShapeHeapMatchesFlatWalk drives the shape-heap FIFO and the flat
// reference walk through identical randomized histories — submissions,
// completions, cancellations, ticks, and transient StartJob failures —
// and demands identical observable behaviour after every step: the same
// jobs started in the same order, the same number of placement queries
// issued, the same queue length, and byte-identical checkpoints.
func TestFIFOShapeHeapMatchesFlatWalk(t *testing.T) {
	cfg := cluster.Config{
		Nodes: 4, CoresPerNode: 8, GPUsPerNode: 2,
		BandwidthGBs: 100, PCIeGBs: 16, CPUOnlyNodes: 2,
	}
	for seed := int64(1); seed <= 60; seed++ {
		rng := rand.New(rand.NewSource(seed))

		envA := newFakeEnv(cfg)
		envB := newFakeEnv(cfg)
		fast := NewFIFO()
		fast.Bind(envA)
		flat := &flatFIFO{}
		flat.Bind(envB)
		// Exercise reservations on most seeds; every fourth keeps
		// NewFIFO's default of none.
		switch seed % 4 {
		case 0:
		case 1:
			fast.ReserveDepth, flat.ReserveDepth = 1, 1
		default:
			fast.ReserveDepth, flat.ReserveDepth = deepReserveDepth, deepReserveDepth
		}

		jobs := map[job.ID]*job.Job{} // the copy submitted to fast
		var queued, running []job.ID
		nextID := job.ID(1)

		check := func(step int) {
			t.Helper()
			if len(envA.started) != len(envB.started) {
				t.Fatalf("seed %d step %d: started %v vs flat %v", seed, step, envA.started, envB.started)
			}
			for i := range envA.started {
				if envA.started[i] != envB.started[i] {
					t.Fatalf("seed %d step %d: start order diverged: %v vs flat %v", seed, step, envA.started, envB.started)
				}
			}
			if qa, qb := envA.c.PlacementQueries(), envB.c.PlacementQueries(); qa != qb {
				t.Fatalf("seed %d step %d: %d placement queries vs flat %d", seed, step, qa, qb)
			}
			if fast.size != len(flat.queue) {
				t.Fatalf("seed %d step %d: queue len %d vs flat %d", seed, step, fast.size, len(flat.queue))
			}
			if err := fast.CheckInvariants(); err != nil {
				t.Fatalf("seed %d step %d: %v", seed, step, err)
			}
			ck, err := fast.CheckpointState()
			if err != nil {
				t.Fatalf("seed %d step %d: checkpoint: %v", seed, step, err)
			}
			flatJobs := make([]job.Job, 0, len(flat.queue))
			for _, j := range flat.queue {
				flatJobs = append(flatJobs, *j)
			}
			want, err := json.Marshal(fifoState{Jobs: flatJobs, ReserveDepth: flat.ReserveDepth})
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(ck, want) {
				t.Fatalf("seed %d step %d: checkpoint %s vs flat %s", seed, step, ck, want)
			}
		}

		// syncStarted moves newly started jobs from queued to running.
		syncStarted := func(from int) {
			for _, id := range envA.started[from:] {
				running = append(running, id)
				for i, q := range queued {
					if q == id {
						queued = append(queued[:i], queued[i+1:]...)
						break
					}
				}
			}
		}

		for step := 0; step < 300; step++ {
			mark := len(envA.started)
			switch op := rng.Intn(10); {
			case op < 5: // submit (each scheduler gets its own copy)
				ja := diffJob(rng, nextID)
				jb := *ja
				if rng.Intn(8) == 0 { // transient start failure
					envA.failIDs[nextID] = true
					envB.failIDs[nextID] = true
				}
				jobs[nextID] = ja
				queued = append(queued, nextID)
				nextID++
				fast.Submit(ja)
				flat.Submit(&jb)
			case op < 7: // complete a random running job
				if len(running) == 0 {
					continue
				}
				i := rng.Intn(len(running))
				id := running[i]
				running = append(running[:i], running[i+1:]...)
				if err := envA.c.Release(id); err != nil {
					t.Fatalf("seed %d step %d: release: %v", seed, step, err)
				}
				if err := envB.c.Release(id); err != nil {
					t.Fatalf("seed %d step %d: flat release: %v", seed, step, err)
				}
				fast.OnJobCompleted(jobs[id])
				flat.OnJobCompleted(jobs[id])
			case op < 8: // cancel a random queued job
				if len(queued) == 0 {
					continue
				}
				i := rng.Intn(len(queued))
				id := queued[i]
				queued = append(queued[:i], queued[i+1:]...)
				fast.OnJobCancelled(jobs[id])
				flat.OnJobCancelled(jobs[id])
			case op < 9: // a transient failure heals
				//coda:ordered-ok both envs heal the whole set; the next drain re-probes deterministically
				for id := range envA.failIDs {
					delete(envA.failIDs, id)
					delete(envB.failIDs, id)
				}
				fast.Tick()
				flat.Tick()
			default:
				fast.Tick()
				flat.Tick()
			}
			syncStarted(mark)
			check(step)
		}

		// Checkpoint round-trip: a restored scheduler must serialize to the
		// same bytes and behave identically on a subsequent tick.
		ck, err := fast.CheckpointState()
		if err != nil {
			t.Fatal(err)
		}
		restored := NewFIFO()
		if err := restored.RestoreCheckpoint(ck); err != nil {
			t.Fatalf("seed %d: restore: %v", seed, err)
		}
		ck2, err := restored.CheckpointState()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(ck, ck2) {
			t.Fatalf("seed %d: checkpoint changed across restore:\n%s\nvs\n%s", seed, ck, ck2)
		}
	}
}
