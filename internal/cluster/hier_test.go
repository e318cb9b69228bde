package cluster

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/coda-repro/coda/internal/job"
)

// Naive oracles: the flat scans the hierarchical index replaced. Each
// reproduces the documented iteration order from first principles so the
// golden tests below can prove the index yields identical sequences.

// oracleFirstFit lists every node that fits, in ID order.
func oracleFirstFit(c *Cluster, cores, gpus int) []int {
	var out []int
	for _, n := range c.Nodes() {
		if n.Fits(cores, gpus) {
			out = append(out, n.ID)
		}
	}
	return out
}

func scanAll(c *Cluster, cores, gpus int) []int {
	var out []int
	c.ScanPlaceable(cores, gpus, func(n *Node) bool {
		out = append(out, n.ID)
		return true
	})
	return out
}

// firstFit returns the first want (>= 1) nodes ScanPlaceable yields for
// cores and gpus, nil when fewer fit.
func firstFit(c *Cluster, want, cores, gpus int) []int {
	out := make([]int, 0, want)
	c.ScanPlaceable(cores, gpus, func(n *Node) bool {
		out = append(out, n.ID)
		return len(out) < want
	})
	if len(out) < want {
		return nil
	}
	return out
}

// mutateRandomly drives the cluster through one random mutation step:
// allocate, release, resize, or node state change (crash/drain/recover).
// Returns the updated live-job list and next job ID.
func mutateRandomly(t testing.TB, rng *rand.Rand, c *Cluster, cfg Config, live []job.ID, nextID job.ID) ([]job.ID, job.ID) {
	switch op := rng.Intn(10); {
	case op < 4:
		nodes := rng.Intn(3) + 1
		alloc := job.Allocation{
			CPUCores: rng.Intn(cfg.CoresPerNode) + 1,
			GPUs:     rng.Intn(cfg.GPUsPerNode + 1),
		}
		ids := firstFit(c, nodes, alloc.CPUCores, alloc.GPUs)
		if ids == nil {
			return live, nextID
		}
		alloc.NodeIDs = ids
		if err := c.Allocate(nextID, alloc); err != nil {
			t.Fatalf("allocate: %v", err)
		}
		return append(live, nextID), nextID + 1
	case op < 6:
		if len(live) == 0 {
			return live, nextID
		}
		i := rng.Intn(len(live))
		if err := c.Release(live[i]); err != nil {
			t.Fatalf("release: %v", err)
		}
		return append(live[:i], live[i+1:]...), nextID
	case op < 8:
		if len(live) == 0 {
			return live, nextID
		}
		// Resize may legitimately fail on insufficient capacity; the index
		// must stay consistent either way.
		_ = c.Resize(live[rng.Intn(len(live))], rng.Intn(cfg.CoresPerNode)+1)
		return live, nextID
	default:
		nid := rng.Intn(cfg.TotalNodes())
		states := []NodeState{NodeUp, NodeDraining, NodeDown}
		st := states[rng.Intn(len(states))]
		if st == NodeDown {
			n, err := c.Node(nid)
			if err != nil {
				t.Fatal(err)
			}
			for _, id := range n.Jobs() {
				if err := c.Release(id); err != nil {
					t.Fatalf("crash release: %v", err)
				}
				for i, l := range live {
					if l == id {
						live = append(live[:i], live[i+1:]...)
						break
					}
				}
			}
		}
		if err := c.SetNodeState(nid, st); err != nil {
			t.Fatalf("set state: %v", err)
		}
		return live, nextID
	}
}

// TestHierarchicalOrdersMatchNaiveScans is the 1000-state golden order
// proof: across a thousand randomly mutated cluster states, the full
// first-fit iteration order from the hierarchical index must equal the
// naive flat-scan oracle element for element. No scheduling decision can
// change if every query yields identical sequences.
func TestHierarchicalOrdersMatchNaiveScans(t *testing.T) {
	for seed := int64(0); seed < 1000; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cfg := Config{
			Nodes:        4 + rng.Intn(16),
			CoresPerNode: 2 + rng.Intn(14),
			GPUsPerNode:  rng.Intn(6),
			BandwidthGBs: 100,
			PCIeGBs:      16,
			CPUOnlyNodes: rng.Intn(4),
		}
		c, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		live := []job.ID{}
		nextID := job.ID(1)
		steps := 10 + rng.Intn(40)
		for s := 0; s < steps; s++ {
			live, nextID = mutateRandomly(t, rng, c, cfg, live, nextID)
		}
		for q := 0; q < 6; q++ {
			cores := rng.Intn(cfg.CoresPerNode+3) - 1 // includes -1 and beyond-max
			gpus := rng.Intn(cfg.GPUsPerNode+3) - 1
			if got, want := scanAll(c, cores, gpus), oracleFirstFit(c, cores, gpus); !equalIDs(got, want) {
				t.Fatalf("seed %d: first-fit(%d,%d) = %v, oracle %v", seed, cores, gpus, got, want)
			}
		}
		if err := c.CheckInvariants(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// TestScanPlaceableEarlyStop proves the first-fit scan honors fn returning
// false mid-scan (the common "first k hits" shape).
func TestScanPlaceableEarlyStop(t *testing.T) {
	c := MustNew(Config{Nodes: 10, CoresPerNode: 8, GPUsPerNode: 2, BandwidthGBs: 100, PCIeGBs: 16})
	var got []int
	c.ScanPlaceable(1, 0, func(n *Node) bool {
		got = append(got, n.ID)
		return len(got) < 3
	})
	if len(got) != 3 {
		t.Fatalf("first-fit early stop yielded %v", got)
	}
}

// TestRemovePanicsOnMissingEntry pins the loud-corruption contract:
// moving a node away from a capacity the index does not hold it at must
// panic instead of silently misplacing it into a wrong placement far
// downstream. The middle case fails only the next tier's leaf check (the
// tier-gpus leaf matches); the others fail the tier-gpus leaf check.
func TestRemovePanicsOnMissingEntry(t *testing.T) {
	for _, tc := range []struct {
		name        string
		gpus, cores int
	}{
		{"wrong cores", 2, 7},
		{"fewer gpus than indexed", 1, 8},
		{"zero capacity", 0, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// Node 2 is up with full capacity: indexed at (2 gpus, 8 cores).
			c := MustNew(Config{Nodes: 4, CoresPerNode: 8, GPUsPerNode: 2, BandwidthGBs: 100, PCIeGBs: 16})
			defer func() {
				if recover() == nil {
					t.Fatalf("moving node 2 from (%d gpus, %d cores) did not panic", tc.gpus, tc.cores)
				}
			}()
			c.reindexFrom(c.nodes[2], tc.gpus, tc.cores)
		})
	}
}

// TestHierarchicalAuditsDetectCorruption plants a corruption in each
// hierarchical layer and checks the auditors report it.
func TestHierarchicalAuditsDetectCorruption(t *testing.T) {
	build := func() *Cluster {
		return MustNew(Config{Nodes: 4, CoresPerNode: 8, GPUsPerNode: 2, BandwidthGBs: 100, PCIeGBs: 16})
	}

	t.Run("segtree leaf", func(t *testing.T) {
		c := build()
		c.index.tiers[1].set(2, 3) // node 2 actually has 8 free cores
		if err := c.CheckNodeInvariants(2); err == nil {
			t.Fatal("per-node audit missed a wrong tier leaf")
		}
		if err := c.CheckInvariants(); err == nil {
			t.Fatal("full audit missed a wrong tier leaf")
		}
	})

	t.Run("segtree internal node", func(t *testing.T) {
		c := build()
		c.index.tiers[0].max[1] = -7 // root no longer the max of its children
		if err := c.CheckInvariants(); err == nil {
			t.Fatal("full audit missed an inconsistent segtree internal node")
		}
	})
}

// TestSegTreeNextAtLeast exercises the descent directly across shapes and
// thresholds, against a linear reference.
func TestSegTreeNextAtLeast(t *testing.T) {
	for _, n := range []int{1, 2, 3, 7, 8, 9, 64, 100} {
		rng := rand.New(rand.NewSource(int64(n)))
		tr := newSegTree(n)
		vals := make([]int, n)
		for i := range vals {
			vals[i] = rng.Intn(8) - 1
			tr.set(i, vals[i])
		}
		for trial := 0; trial < 200; trial++ {
			i := rng.Intn(n)
			vals[i] = rng.Intn(8) - 1
			tr.set(i, vals[i])
			from, want := rng.Intn(n+2)-1, rng.Intn(9)-1
			wantIdx := -1
			start := from
			if start < 0 {
				start = 0
			}
			for j := start; j < n; j++ {
				if vals[j] >= want {
					wantIdx = j
					break
				}
			}
			if got := tr.nextAtLeast(from, want); got != wantIdx {
				t.Fatalf("n=%d nextAtLeast(%d,%d) = %d, want %d (vals %v)", n, from, want, got, wantIdx, vals)
			}
		}
		if err := tr.audit(); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
	}
}

func equalIDs(a, b []int) bool {
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

// BenchmarkFirstFitScan measures one first-fit query on a loaded cluster
// at the paper scale and warehouse scale, for a mid-size request that
// finds its node (hit) and for one that no node of the loaded cluster fits
// (miss: 27 free cores and 5 free GPUs, which the linear scan learned only
// by visiting every node). Sub-linear cost in node count is the index's
// acceptance: the linear scan was ~60x slower at 5,000 nodes than at 80.
func BenchmarkFirstFitScan(b *testing.B) {
	for _, nodes := range []int{80, 1000, 5000} {
		c := loadedCluster(b, nodes)
		for _, q := range []struct {
			name        string
			cores, gpus int
		}{{"hit", 4, 1}, {"miss", 27, 5}} {
			b.Run(fmt.Sprintf("nodes=%d/%s", nodes, q.name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					c.ScanPlaceable(q.cores, q.gpus, func(*Node) bool { return false })
				}
			})
		}
	}
}

// loadedCluster builds a cluster at the paper's node shape filled to a
// deterministic ~90% core load so first-fit queries have to skip past a
// long occupied prefix — the worst case the segment tree exists for.
func loadedCluster(b *testing.B, nodes int) *Cluster {
	b.Helper()
	c := MustNew(Config{Nodes: nodes, CoresPerNode: 28, GPUsPerNode: 5, BandwidthGBs: 120, PCIeGBs: 16})
	rng := rand.New(rand.NewSource(1))
	id := job.ID(1)
	// Fill front to back, leaving only scattered tail nodes with room, so a
	// first-fit query must skip a long run of full nodes.
	for nid := 0; nid < nodes; nid++ {
		if rng.Intn(20) == 0 {
			continue // leave ~5% of nodes lightly loaded
		}
		if err := c.Allocate(id, job.Allocation{NodeIDs: []int{nid}, CPUCores: 26, GPUs: 5}); err != nil {
			b.Fatal(err)
		}
		id++
	}
	return c
}
