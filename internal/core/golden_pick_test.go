package core

import (
	"math/rand"
	"slices"
	"testing"

	"github.com/coda-repro/coda/internal/cluster"
	"github.com/coda-repro/coda/internal/history"
	"github.com/coda-repro/coda/internal/job"
)

// This file pins CODA's index-driven GPU node selection to the
// collect-and-sort selection it replaced, the way
// internal/sched/golden_placement_test.go pins the placement index to its
// linear scan: referencePickNodes is a verbatim port of startGPUAt's old
// pickNodes closure (its captures turned into parameters, its candidate
// type declared here), scanning a preference order the test builds from
// the sub-arrays. Across a thousand seeded states every query must pick
// exactly the same nodes, in the same order, and count the same placement
// queries.

// refCandidate is a feasible node in referencePickNodes' preference scan:
// pref is its position in the preference order.
type refCandidate struct {
	nid, freeGPUs, pref int
}

// referencePickNodes collects every feasible node in preference order,
// sorts them all, and takes the first j.Request.Nodes.
func referencePickNodes(m *MultiArray, j *job.Job, order []int, ownLen, gpus, cores int, withPreempt bool) []int {
	m.env.Cluster().NotePlacementQuery()
	// Collect all feasible nodes in preference order, then pack
	// best-fit (fewest free GPUs first) so large GPU holes survive for
	// 4-GPU jobs — the multi-array design's anti-fragmentation goal.
	var cands []refCandidate
	for pref, nid := range order {
		n, err := m.env.Cluster().Node(nid)
		if err != nil || n.FreeGPUs() < gpus {
			continue
		}
		b := m.budgets[nid]
		headroom := b.reserveFree() + b.sharedFree()
		if withPreempt {
			headroom += b.borrowedCores()
		}
		if headroom < cores {
			continue
		}
		cands = append(cands, refCandidate{nid: nid, freeGPUs: n.FreeGPUs(), pref: pref})
	}
	if len(cands) < j.Request.Nodes {
		return nil
	}
	// breaksHole marks placements that would split an intact >= 4-GPU
	// hole, the resource large jobs need; keep such holes whole unless
	// nothing else fits.
	breaksHole := func(c refCandidate) bool {
		return gpus < LargeJobGPUs &&
			c.freeGPUs >= LargeJobGPUs && c.freeGPUs-gpus < LargeJobGPUs
	}
	slices.SortFunc(cands, func(a, b refCandidate) int {
		// Stay within the preferred sub-array region first, avoid
		// breaking 4-GPU holes second, then pack best-fit. The nid
		// tie-break makes this a total order, so the sort is
		// deterministic regardless of algorithm.
		aOwn, bOwn := a.pref < ownLen, b.pref < ownLen
		if aOwn != bOwn {
			if aOwn {
				return -1
			}
			return 1
		}
		aBreak, bBreak := breaksHole(a), breaksHole(b)
		if aBreak != bBreak {
			if bBreak {
				return -1
			}
			return 1
		}
		if a.freeGPUs != b.freeGPUs {
			return a.freeGPUs - b.freeGPUs
		}
		return a.nid - b.nid
	})
	nodes := make([]int, 0, j.Request.Nodes)
	for _, c := range cands[:j.Request.Nodes] {
		nodes = append(nodes, c.nid)
	}
	return nodes
}

// clusterEnv is a scriptedEnv that exposes a real cluster, enough for the
// placement scans.
type clusterEnv struct {
	scriptedEnv
	c *cluster.Cluster
}

func (e *clusterEnv) Cluster() *cluster.Cluster { return e.c }

// randomPickState builds a multi-array scheduler over a randomly occupied
// cluster: random GPU and core occupancy, down and draining nodes, random
// reserves and budget draws (borrowers included), and a history-driven
// Rebalance that moves the reserves and the 1-GPU/4-GPU sub-array split.
// With roundTrip the scheduler's state then makes a CheckpointState /
// RestoreCheckpoint round trip into a freshly built scheduler, whose arrays
// are returned.
func randomPickState(t *testing.T, rng *rand.Rand, roundTrip bool) (*MultiArray, cluster.Config) {
	t.Helper()
	gpusPerNode := []int{1, 2, 4}[rng.Intn(3)]
	cc := cluster.Config{
		Nodes:        2 + rng.Intn(18),
		CPUOnlyNodes: rng.Intn(3),
		CoresPerNode: 6 + rng.Intn(26),
		GPUsPerNode:  gpusPerNode,
		BandwidthGBs: 100,
		PCIeGBs:      16,
	}
	c, err := cluster.New(cc)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Array = ArrayConfig{ReserveCores: rng.Intn(cc.CoresPerNode + 1), FourGNodeFraction: rng.Float64()}
	s, err := NewForCluster(cfg, cc)
	if err != nil {
		t.Fatal(err)
	}
	m := s.Arrays()
	env := &clusterEnv{c: c}
	m.Bind(env)
	if rng.Intn(2) == 0 {
		m.Rebalance(history.Stats{
			GPUJobs:         1 + rng.Intn(50),
			MeanCoresPerGPU: 0.5 + rng.Float64()*float64(cc.CoresPerNode)/float64(gpusPerNode),
			LargeGPUShare:   rng.Float64(),
		}, gpusPerNode)
	}

	id := job.ID(1)
	for nid := 0; nid < cc.Nodes; nid++ {
		if g := rng.Intn(gpusPerNode + 1); g > 0 || rng.Intn(2) == 0 {
			alloc := job.Allocation{NodeIDs: []int{nid}, CPUCores: 1 + rng.Intn(cc.CoresPerNode/2), GPUs: g}
			if err := c.Allocate(id, alloc); err != nil {
				t.Fatal(err)
			}
			id++
		}
		b := m.budgets[nid]
		for i := rng.Intn(4); i > 0; i-- {
			cores := 1 + rng.Intn(cc.CoresPerNode/2)
			if rng.Intn(2) == 0 {
				b.chargeGPU(id, cores)
			} else {
				b.chargeCPU(id, cores, rng.Intn(3) > 0)
			}
			id++
		}
		switch rng.Intn(8) {
		case 0:
			if err := c.SetNodeState(nid, cluster.NodeDown); err != nil {
				t.Fatal(err)
			}
		case 1:
			if err := c.SetNodeState(nid, cluster.NodeDraining); err != nil {
				t.Fatal(err)
			}
		}
	}
	if !roundTrip {
		return m, cc
	}
	blob, err := s.CheckpointState()
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := NewForCluster(cfg, cc)
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.RestoreCheckpoint(blob); err != nil {
		t.Fatal(err)
	}
	fresh.Arrays().Bind(env)
	return fresh.Arrays(), cc
}

// preferenceOrder is the scan order the old selection used: the job's own
// sub-array first, the other as fallback (§V-C), and how many of the
// nodes are its own.
func preferenceOrder(m *MultiArray, j *job.Job) (order []int, ownLen int) {
	own, other := m.oneG, m.fourG
	if j.Request.GPUs >= LargeJobGPUs {
		own, other = m.fourG, m.oneG
	}
	return slices.Concat(own, other), len(own)
}

// TestPickNodesMatchesSortGolden compares the index-driven selection
// against referencePickNodes over 1000 seeded states × 8 requests × both
// headroom modes: k in {1, 2, 3, 4} nodes, 1 to GPUsPerNode GPUs per node,
// with and without preemption headroom. Every fourth state first makes a
// checkpoint round trip.
func TestPickNodesMatchesSortGolden(t *testing.T) {
	placed := make(map[int]int) // k -> queries that found nodes
	for seed := int64(0); seed < 1000; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m, cc := randomPickState(t, rng, seed%4 == 0)
		c := m.env.Cluster()
		for q := 0; q < 8; q++ {
			k := 1 + rng.Intn(4)
			gpus := 1 + rng.Intn(cc.GPUsPerNode)
			cores := 1 + rng.Intn(cc.CoresPerNode)
			j := &job.Job{ID: 1 << 20, Kind: job.KindGPUTraining,
				Request: job.Request{CPUCores: cores, GPUs: gpus * k, Nodes: k}}
			order, ownLen := preferenceOrder(m, j)
			large := j.Request.GPUs >= LargeJobGPUs
			for _, withPreempt := range []bool{false, true} {
				q0 := c.PlacementQueries()
				want := referencePickNodes(m, j, order, ownLen, gpus, cores, withPreempt)
				q1 := c.PlacementQueries()
				got := m.pickNodes(large, k, gpus, cores, withPreempt)
				q2 := c.PlacementQueries()
				if !slices.Equal(got, want) || (got == nil) != (want == nil) {
					t.Fatalf("seed %d query %d (k=%d gpus=%d cores=%d preempt=%v): picked %v, reference %v",
						seed, q, k, gpus, cores, withPreempt, got, want)
				}
				if q2-q1 != q1-q0 {
					t.Fatalf("seed %d query %d: counted %d placement queries, reference %d", seed, q, q2-q1, q1-q0)
				}
				if got != nil {
					placed[k]++
				}
			}
		}
	}
	for k := 1; k <= 4; k++ {
		if placed[k] == 0 {
			t.Errorf("no %d-node request found nodes; the states do not exercise that selection", k)
		}
	}
}

// TestPickNodesMoreGPUsThanAnyNode asks for one GPU per node more than any
// node has free, and for more than any node has at all: the index yields
// nothing, and each call still counts exactly one placement query.
func TestPickNodesMoreGPUsThanAnyNode(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		m, cc := randomPickState(t, rand.New(rand.NewSource(seed)), seed%4 == 0)
		c := m.env.Cluster()
		maxFree := 0
		c.EachNode(func(n *cluster.Node) bool {
			maxFree = max(maxFree, n.FreeGPUs())
			return true
		})
		for _, gpus := range []int{maxFree + 1, cc.GPUsPerNode + 1} {
			for _, large := range []bool{false, true} {
				for _, withPreempt := range []bool{false, true} {
					q0 := c.PlacementQueries()
					if got := m.pickNodes(large, 1, gpus, 1, withPreempt); got != nil {
						t.Fatalf("seed %d: %d GPUs per node with at most %d free picked %v, want nil",
							seed, gpus, maxFree, got)
					}
					if n := c.PlacementQueries() - q0; n != 1 {
						t.Fatalf("seed %d: counted %d placement queries, want 1", seed, n)
					}
				}
			}
		}
	}
}
