package sched

import (
	"testing"

	"github.com/coda-repro/coda/internal/cluster"
	"github.com/coda-repro/coda/internal/job"
)

// exclude builds an ExcludeSet from node IDs (test helper).
func exclude(ids ...int) *ExcludeSet {
	var s ExcludeSet
	for _, id := range ids {
		s.Add(id)
	}
	return &s
}

func TestPlaceRequestExcluding(t *testing.T) {
	c := cluster.MustNew(smallCluster()) // 2 nodes, 8 cores, 2 GPUs each
	req := job.Request{CPUCores: 2, GPUs: 1, Nodes: 1}

	alloc, ok := PlaceRequestExcluding(c, req, exclude(0))
	if !ok || alloc.NodeIDs[0] != 1 {
		t.Errorf("excluded node used: %+v, %v", alloc, ok)
	}
	if _, ok := PlaceRequestExcluding(c, req, exclude(0, 1)); ok {
		t.Error("all nodes excluded should fail")
	}
	// nil exclusion behaves like PlaceRequest.
	alloc, ok = PlaceRequestExcluding(c, req, nil)
	if !ok || alloc.NodeIDs[0] != 0 {
		t.Errorf("first fit = %+v, %v", alloc, ok)
	}
}

func TestReserveNodes(t *testing.T) {
	c := cluster.MustNew(smallCluster())
	// Node 0 busier than node 1: the hold goes to the node with the most
	// free GPUs (soonest to fit).
	if err := c.Allocate(1, job.Allocation{NodeIDs: []int{0}, CPUCores: 2, GPUs: 1}); err != nil {
		t.Fatal(err)
	}
	nodes := ReserveNodes(c, job.Request{CPUCores: 4, GPUs: 2, Nodes: 1}, nil)
	if len(nodes) != 1 || nodes[0] != 1 {
		t.Errorf("ReserveNodes = %v, want [1]", nodes)
	}
	// Excluded nodes are skipped.
	nodes = ReserveNodes(c, job.Request{CPUCores: 4, GPUs: 2, Nodes: 1}, exclude(1))
	if len(nodes) != 1 || nodes[0] != 0 {
		t.Errorf("ReserveNodes = %v, want [0]", nodes)
	}
	// Requests that no node shape can ever host return nil.
	if nodes := ReserveNodes(c, job.Request{CPUCores: 99, GPUs: 1, Nodes: 1}, nil); nodes != nil {
		t.Errorf("impossible request reserved %v", nodes)
	}
	if nodes := ReserveNodes(c, job.Request{CPUCores: 1, GPUs: 3, Nodes: 1}, nil); nodes != nil {
		t.Errorf("oversized GPU request reserved %v", nodes)
	}
}

func TestFIFOReservationHoldsNodes(t *testing.T) {
	env := newFakeEnv(smallCluster())
	f := NewFIFO()
	f.ReserveDepth = 1
	f.Bind(env)

	// Job 1 occupies 1 GPU on node 0. Job 2 wants 2 GPUs on one node:
	// only node 1 qualifies... it fits, so make it bigger: both nodes
	// partially busy first.
	f.Submit(gpuJob(1, 1, 2, 1)) // lands on node 0
	f.Submit(gpuJob(2, 1, 2, 1)) // first-fit: node 0 (1 GPU left)
	f.Submit(gpuJob(3, 1, 2, 1)) // node 1
	if len(env.started) != 3 {
		t.Fatalf("started = %v", env.started)
	}
	// Job 4 wants 2 GPUs on one node: nowhere fits -> reserves node 1
	// (most free GPUs). Job 5 (1 GPU) would fit node 1, but the hold
	// blocks it.
	f.Submit(gpuJob(4, 1, 2, 2))
	f.Submit(gpuJob(5, 1, 1, 1))
	if len(env.started) != 3 {
		t.Errorf("reservation violated: started = %v", env.started)
	}
	// Freeing node 1 lets the held job start there.
	env.release(t, 3)
	f.OnJobCompleted(gpuJob(3, 1, 2, 1))
	if len(env.started) < 4 || env.started[3] != 4 {
		t.Errorf("held job did not start first: %v", env.started)
	}
}

func TestDRFReservationHoldsNodes(t *testing.T) {
	env := newFakeEnv(smallCluster())
	d, err := NewDRF(16, 4)
	if err != nil {
		t.Fatal(err)
	}
	d.ReserveDepth = 1
	d.Bind(env)

	d.Submit(gpuJob(1, 1, 2, 1)) // node 0
	d.Submit(gpuJob(2, 1, 2, 1)) // node 0
	d.Submit(gpuJob(3, 1, 2, 1)) // node 1
	// Tenant 2's 2-GPU job blocks and reserves node 1; tenant 3's 1-GPU
	// job must not take the held node.
	d.Submit(gpuJob(4, 2, 2, 2))
	d.Submit(gpuJob(5, 3, 1, 1))
	if len(env.started) != 3 {
		t.Errorf("reservation violated: started = %v", env.started)
	}
}
