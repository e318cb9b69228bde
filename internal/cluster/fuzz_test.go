package cluster

import (
	"bytes"
	"testing"

	"github.com/coda-repro/coda/internal/job"
)

// FuzzPlacementIndex differentially fuzzes the hierarchical placement
// index: the input bytes choose a cluster shape and drive a mutation
// script (allocate, release, resize, node state flips), after which the
// first-fit order must match a naive scan over Node.Fits for every request
// shape, and the structural auditors must pass. Any divergence means the
// incremental maintenance in a mutator corrupted the index.
func FuzzPlacementIndex(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{4, 8, 2})
	// Fill-then-drain: allocations followed by releases and a crash.
	f.Add([]byte{6, 8, 3, 0, 0, 4, 2, 0, 1, 2, 1, 1, 2, 8, 1, 1, 0, 3, 2, 0})
	// State churn across all three node states.
	f.Add([]byte{3, 4, 1, 3, 0, 2, 3, 1, 1, 3, 2, 0, 3, 0, 0, 0, 1, 2, 0})
	// Resizes interleaved with allocations.
	f.Add([]byte{8, 16, 5, 0, 1, 6, 1, 2, 0, 12, 0, 2, 1, 0, 2, 0, 1, 3, 3})
	f.Add(bytes.Repeat([]byte{0, 1, 7, 2}, 24))
	f.Add(bytes.Repeat([]byte{0xff, 0x03, 0x51}, 30))

	f.Fuzz(func(t *testing.T, data []byte) {
		cfg := Config{
			Nodes:        2,
			CoresPerNode: 8,
			GPUsPerNode:  2,
			BandwidthGBs: 100,
			PCIeGBs:      16,
		}
		if len(data) >= 3 {
			cfg.Nodes = 1 + int(data[0]%12)
			cfg.CoresPerNode = 1 + int(data[1]%16)
			cfg.GPUsPerNode = int(data[2] % 6)
			cfg.CPUOnlyNodes = int(data[2]>>6) % 4
			data = data[3:]
		}
		c, err := New(cfg)
		if err != nil {
			t.Skipf("config rejected: %v", err)
		}
		var live []job.ID
		nextID := job.ID(1)
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return b
		}
		for len(data) > 0 {
			switch next() % 4 {
			case 0: // allocate one node if the chosen node fits
				nid := int(next()) % cfg.TotalNodes()
				cores := 1 + int(next())%cfg.CoresPerNode
				gpus := int(next()) % (cfg.GPUsPerNode + 1)
				n, err := c.Node(nid)
				if err != nil {
					t.Fatal(err)
				}
				if !n.Fits(cores, gpus) {
					continue
				}
				alloc := job.Allocation{NodeIDs: []int{nid}, CPUCores: cores, GPUs: gpus}
				if err := c.Allocate(nextID, alloc); err != nil {
					t.Fatalf("allocate on fitting node: %v", err)
				}
				live = append(live, nextID)
				nextID++
			case 1: // release
				if len(live) == 0 {
					continue
				}
				i := int(next()) % len(live)
				if err := c.Release(live[i]); err != nil {
					t.Fatalf("release: %v", err)
				}
				live = append(live[:i], live[i+1:]...)
			case 2: // resize (may legitimately fail on capacity)
				if len(live) == 0 {
					continue
				}
				i := int(next()) % len(live)
				_ = c.Resize(live[i], 1+int(next())%cfg.CoresPerNode)
			case 3: // node state flip; crash releases resident jobs first
				nid := int(next()) % cfg.TotalNodes()
				st := []NodeState{NodeUp, NodeDraining, NodeDown}[int(next())%3]
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
			}
		}

		// Differential check: the full request grid (plus out-of-range
		// probes) against the naive Fits-scan oracle.
		for gpus := -1; gpus <= cfg.GPUsPerNode+1; gpus++ {
			for cores := -1; cores <= cfg.CoresPerNode+1; cores++ {
				if got, want := scanAll(c, cores, gpus), oracleFirstFit(c, cores, gpus); !equalIDs(got, want) {
					t.Fatalf("first-fit(%d,%d) = %v, oracle %v", cores, gpus, got, want)
				}
			}
		}
		if err := c.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	})
}
