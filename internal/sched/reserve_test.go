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

// TestPlaceRequestExcludedNodes pins PlaceRequest's first-fit picks
// around an exclusion set, and what each probe allocates: nothing when it
// fails, only the returned NodeIDs slice when it succeeds.
func TestPlaceRequestExcludedNodes(t *testing.T) {
	c := cluster.MustNew(cluster.Config{Nodes: 4, CoresPerNode: 8, GPUsPerNode: 2, BandwidthGBs: 100, PCIeGBs: 16})
	// Nodes 0 and 2 keep 2 free cores and 1 free GPU; 1 and 3 stay empty.
	for _, nid := range []int{0, 2} {
		if err := c.Allocate(job.ID(nid+1), job.Allocation{NodeIDs: []int{nid}, CPUCores: 6, GPUs: 1}); err != nil {
			t.Fatal(err)
		}
	}
	one := job.Request{CPUCores: 2, GPUs: 1, Nodes: 1}
	for _, tc := range []struct {
		name     string
		req      job.Request
		excluded *ExcludeSet
		want     []int // nil: the probe fails
	}{
		{"excluded node skipped", one, exclude(0), []int{1}},
		{"every node excluded", one, exclude(0, 1, 2, 3), nil},
		{"nil excludes nothing", one, nil, []int{0}},
		{"single node fits nowhere", job.Request{CPUCores: 9, Nodes: 1}, nil, nil},
		{"only fitting nodes excluded", job.Request{CPUCores: 3, GPUs: 1, Nodes: 1}, exclude(1, 3), nil},
		{"req.Nodes-1 fit outside excluded", job.Request{CPUCores: 2, GPUs: 4, Nodes: 4}, exclude(2), nil},
		{"req.Nodes fit outside excluded", job.Request{CPUCores: 2, GPUs: 3, Nodes: 3}, exclude(2), []int{0, 1, 3}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			alloc, ok := PlaceRequest(c, tc.req, tc.excluded)
			if ok != (tc.want != nil) || !equalInts(alloc.NodeIDs, tc.want) {
				t.Fatalf("PlaceRequest = %v, %v; want %v", alloc.NodeIDs, ok, tc.want)
			}
			wantAllocs := 0.0
			if ok {
				wantAllocs = 1
			}
			if allocs := testing.AllocsPerRun(100, func() { PlaceRequest(c, tc.req, tc.excluded) }); allocs != wantAllocs {
				t.Errorf("probe allocates %v times, want %v", allocs, wantAllocs)
			}
		})
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
	// More nodes than the cluster has: nil, without sizing a result for
	// the request (1<<40 ints would not fit in memory).
	if nodes := ReserveNodes(c, job.Request{CPUCores: 1, GPUs: 1 << 40, Nodes: 1 << 40}, nil); nodes != nil {
		t.Errorf("request for 1<<40 nodes reserved %v", nodes)
	}
	if nodes := ReserveNodes(c, job.Request{CPUCores: 1, GPUs: 3, Nodes: 3}, nil); nodes != nil {
		t.Errorf("request for 3 of 2 nodes reserved %v", nodes)
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
