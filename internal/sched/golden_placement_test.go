package sched

import (
	"math/rand"
	"sort"
	"testing"

	"github.com/coda-repro/coda/internal/cluster"
	"github.com/coda-repro/coda/internal/job"
)

// This file pins the index-backed placement fast path to the pre-index
// engine: referencePlace and referenceReserve are verbatim ports of the
// linear-scan implementations the index replaced. Across a thousand
// randomized seeded cluster states, every query must return exactly the
// nodes the linear scan returned — bit-identical placement sequences are
// what keep same-seed runs reproducible across engine versions.

// referencePlace is the pre-index PlaceRequestExcluding: collect candidates
// in ID order and take the first req.Nodes.
func referencePlace(c *cluster.Cluster, req job.Request, excluded *ExcludeSet) (job.Allocation, bool) {
	gpus := req.GPUsPerNode()
	var candidates []*cluster.Node
	for _, n := range c.Nodes() {
		if excluded.Contains(n.ID) || !n.Fits(req.CPUCores, gpus) {
			continue
		}
		candidates = append(candidates, n)
	}
	if len(candidates) < req.Nodes {
		return job.Allocation{}, false
	}
	nodes := make([]int, 0, req.Nodes)
	for _, n := range candidates[:req.Nodes] {
		nodes = append(nodes, n.ID)
	}
	return job.Allocation{NodeIDs: nodes, CPUCores: req.CPUCores, GPUs: gpus}, true
}

// referenceReserve is the pre-index ReserveNodes: filter by total node
// shape, sort by (free GPUs desc, free cores desc, ID asc).
func referenceReserve(c *cluster.Cluster, req job.Request, excluded *ExcludeSet) []int {
	type cand struct{ nid, freeGPUs, freeCores int }
	var cands []cand
	for _, n := range c.Nodes() {
		if excluded.Contains(n.ID) {
			continue
		}
		if n.GPUs < req.GPUsPerNode() || n.Cores < req.CPUCores {
			continue
		}
		cands = append(cands, cand{nid: n.ID, freeGPUs: n.FreeGPUs(), freeCores: n.FreeCores()})
	}
	if len(cands) < req.Nodes {
		return nil
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].freeGPUs != cands[j].freeGPUs {
			return cands[i].freeGPUs > cands[j].freeGPUs
		}
		if cands[i].freeCores != cands[j].freeCores {
			return cands[i].freeCores > cands[j].freeCores
		}
		return cands[i].nid < cands[j].nid
	})
	nodes := make([]int, 0, req.Nodes)
	for _, c := range cands[:req.Nodes] {
		nodes = append(nodes, c.nid)
	}
	return nodes
}

// randomClusterState builds a cluster and fills it with a random load:
// random allocations, a few down/draining nodes.
func randomClusterState(t *testing.T, rng *rand.Rand) *cluster.Cluster {
	t.Helper()
	cfg := cluster.Config{
		Nodes:        8 + rng.Intn(12),
		CoresPerNode: 4 + rng.Intn(12),
		GPUsPerNode:  rng.Intn(6),
		BandwidthGBs: 100,
		PCIeGBs:      16,
		CPUOnlyNodes: rng.Intn(4),
	}
	c, err := cluster.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	id := job.ID(1)
	for i := 0; i < 30; i++ {
		want := rng.Intn(3) + 1
		cores := rng.Intn(cfg.CoresPerNode) + 1
		gpus := 0
		if cfg.GPUsPerNode > 0 && rng.Intn(2) == 0 {
			gpus = rng.Intn(cfg.GPUsPerNode) + 1
		}
		alloc, ok := PlaceRequest(c, job.Request{CPUCores: cores, GPUs: gpus * want, Nodes: want})
		if !ok {
			continue
		}
		if err := c.Allocate(id, alloc); err != nil {
			t.Fatal(err)
		}
		id++
	}
	for nid := 0; nid < cfg.TotalNodes(); nid++ {
		switch rng.Intn(10) {
		case 0:
			// A crash releases resident jobs first (as the simulator does).
			n, err := c.Node(nid)
			if err != nil {
				t.Fatal(err)
			}
			for _, jid := range n.Jobs() {
				if err := c.Release(jid); err != nil {
					t.Fatal(err)
				}
			}
			if err := c.SetNodeState(nid, cluster.NodeDown); err != nil {
				t.Fatal(err)
			}
		case 1:
			if err := c.SetNodeState(nid, cluster.NodeDraining); err != nil {
				t.Fatal(err)
			}
		}
	}
	return c
}

// TestPlacementMatchesLinearScanGolden compares the index-backed
// PlaceRequestExcluding and ReserveNodes against the linear-scan reference
// over 1000 randomized cluster states x several queries each.
func TestPlacementMatchesLinearScanGolden(t *testing.T) {
	for seed := int64(0); seed < 1000; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c := randomClusterState(t, rng)
		for q := 0; q < 8; q++ {
			req := job.Request{
				Nodes:    rng.Intn(4) + 1,
				CPUCores: rng.Intn(16) + 1,
				GPUs:     rng.Intn(8),
			}
			var excluded ExcludeSet
			for e := 0; e < rng.Intn(4); e++ {
				excluded.Add(rng.Intn(c.Size()))
			}
			wantAlloc, wantOK := referencePlace(c, req, &excluded)
			gotAlloc, gotOK := PlaceRequestExcluding(c, req, &excluded)
			if wantOK != gotOK {
				t.Fatalf("seed %d query %d: place ok=%v, reference ok=%v (req %+v)", seed, q, gotOK, wantOK, req)
			}
			if wantOK && !equalInts(gotAlloc.NodeIDs, wantAlloc.NodeIDs) {
				t.Fatalf("seed %d query %d: place picked %v, reference %v (req %+v)",
					seed, q, gotAlloc.NodeIDs, wantAlloc.NodeIDs, req)
			}

			wantRes := referenceReserve(c, req, &excluded)
			gotRes := ReserveNodes(c, req, &excluded)
			if !equalInts(gotRes, wantRes) {
				t.Fatalf("seed %d query %d: reserve picked %v, reference %v (req %+v)",
					seed, q, gotRes, wantRes, req)
			}
		}
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
