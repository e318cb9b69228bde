package cluster

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/coda-repro/coda/internal/job"
)

// indexMismatch compares the incrementally maintained index against a
// from-scratch rebuild and reports the first differing tier leaf.
func indexMismatch(c *Cluster) error {
	want := newCapacityIndex(c.nodes)
	got := c.index
	if len(got.tiers) != len(want.tiers) {
		return fmt.Errorf("index has %d gpu tiers, rebuild has %d", len(got.tiers), len(want.tiers))
	}
	for g := range want.tiers {
		for id := range c.nodes {
			if gl, wl := got.tiers[g].leaf(id), want.tiers[g].leaf(id); gl != wl {
				return fmt.Errorf("tier-%d leaf for node %d: index holds %d, rebuild %d", g, id, gl, wl)
			}
		}
	}
	return nil
}

// TestIndexMatchesRebuildUnderRandomMutations drives the cluster through
// randomized sequences of every mutation kind — allocate (job start),
// release (completion/preemption), resize, node crash/drain/recover, and
// checkpoint restore — and after every step checks that the incrementally
// maintained capacity index is identical to one rebuilt from scratch.
func TestIndexMatchesRebuildUnderRandomMutations(t *testing.T) {
	cfg := Config{
		Nodes:        12,
		CoresPerNode: 8,
		GPUsPerNode:  4,
		BandwidthGBs: 100,
		PCIeGBs:      16,
		CPUOnlyNodes: 3,
	}
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		live := []job.ID{} // jobs currently allocated
		nextID := job.ID(1)
		for step := 0; step < 400; step++ {
			switch op := rng.Intn(10); {
			case op < 4: // start: allocate a random request
				nodes := rng.Intn(3) + 1
				alloc := job.Allocation{
					CPUCores: rng.Intn(cfg.CoresPerNode) + 1,
					GPUs:     rng.Intn(cfg.GPUsPerNode + 1),
				}
				ids := firstFit(c, nodes, alloc.CPUCores, alloc.GPUs)
				if ids == nil {
					continue
				}
				alloc.NodeIDs = ids
				if err := c.Allocate(nextID, alloc); err != nil {
					t.Fatalf("seed %d step %d: allocate: %v", seed, step, err)
				}
				live = append(live, nextID)
				nextID++
			case op < 6: // complete/preempt: release a random live job
				if len(live) == 0 {
					continue
				}
				i := rng.Intn(len(live))
				if err := c.Release(live[i]); err != nil {
					t.Fatalf("seed %d step %d: release: %v", seed, step, err)
				}
				live = append(live[:i], live[i+1:]...)
			case op < 8: // resize a random live job
				if len(live) == 0 {
					continue
				}
				id := live[rng.Intn(len(live))]
				// Resize may legitimately fail when the target exceeds free
				// capacity; the index must stay consistent either way.
				_ = c.Resize(id, rng.Intn(cfg.CoresPerNode)+1)
			default: // crash / drain / recover a random node
				nid := rng.Intn(cfg.TotalNodes())
				states := []NodeState{NodeUp, NodeDraining, NodeDown}
				st := states[rng.Intn(len(states))]
				if st == NodeDown {
					// Mirror the simulator: a crash kills resident jobs first.
					n, err := c.Node(nid)
					if err != nil {
						t.Fatal(err)
					}
					for _, id := range n.Jobs() {
						if err := c.Release(id); err != nil {
							t.Fatalf("seed %d step %d: crash release: %v", seed, step, err)
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
					t.Fatalf("seed %d step %d: set state: %v", seed, step, err)
				}
			}
			if err := indexMismatch(c); err != nil {
				t.Fatalf("seed %d step %d: %v", seed, step, err)
			}
			if err := c.CheckInvariants(); err != nil {
				t.Fatalf("seed %d step %d: %v", seed, step, err)
			}
		}

		// Restore-from-checkpoint: the replayed cluster's index must also
		// match a rebuild (and so the original).
		st := c.CheckpointState()
		fresh, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := fresh.RestoreCheckpointState(st); err != nil {
			t.Fatalf("seed %d: restore: %v", seed, err)
		}
		if err := indexMismatch(fresh); err != nil {
			t.Fatalf("seed %d: restored cluster: %v", seed, err)
		}
		if err := indexMismatch(c); err != nil {
			t.Fatalf("seed %d: original after checkpoint: %v", seed, err)
		}
	}
}

// TestIndexDetectsCorruption plants a corruption and checks the per-node
// audit reports it: a node whose index position no longer matches its free
// capacity must fail CheckNodeInvariants.
func TestIndexDetectsCorruption(t *testing.T) {
	c, err := New(Config{Nodes: 4, CoresPerNode: 8, GPUsPerNode: 2, BandwidthGBs: 100, PCIeGBs: 16})
	if err != nil {
		t.Fatal(err)
	}
	// Move node 2 away from its rightful capacity behind the cluster's back.
	c.index.insert(0, 0, 2)
	if err := c.CheckNodeInvariants(2); err == nil {
		t.Fatal("CheckNodeInvariants missed an index corruption")
	}
	if err := c.CheckInvariants(); err == nil {
		t.Fatal("CheckInvariants missed an index corruption")
	}
}
