package main

import (
	"fmt"
	"math/rand"
	"time"

	"github.com/coda-repro/coda/internal/cluster"
	"github.com/coda-repro/coda/internal/job"
)

// placementNodeCounts are the cluster sizes the placement microbenchmark
// compares: the paper's 80-node cluster and the 5,000-node warehouse, with
// a midpoint. Sub-linear growth from 80 to 5,000 is the acceptance bar for
// the hierarchical index — the flat scan grew ~60x over that span.
var placementNodeCounts = []int{80, 1000, 5000}

// placementQueryIters is how many times each query shape runs per
// measurement; at tens to hundreds of ns per query this keeps every cell
// around 10-100 ms.
const placementQueryIters = 200000

// printPlacement microbenchmarks the placement query shapes in isolation —
// no event loop, just the index — on clusters loaded so that a first-fit
// probe must skip a long occupied prefix (the worst case for any scan).
func printPlacement() error {
	header("Placement microbenchmark — hierarchical index query cost vs cluster size")
	fmt.Printf("  %-12s %14s %14s %14s\n",
		"nodes", "first-fit hit", "first-fit miss", "count")
	firstFitNs := make(map[int]float64, len(placementNodeCounts))
	for _, nodes := range placementNodeCounts {
		c, err := loadedBenchCluster(nodes)
		if err != nil {
			return err
		}
		hit := timeQuery(func() {
			c.ScanPlaceable(4, 1, func(*cluster.Node) bool { return false })
		})
		miss := timeQuery(func() {
			// Nothing in the loaded cluster has 27 free cores and 5 free
			// GPUs: the flat scan visited every node to learn that.
			c.ScanPlaceable(27, 5, func(*cluster.Node) bool { return false })
		})
		count := timeQuery(func() {
			c.CountPlaceable(4, 1)
		})
		firstFitNs[nodes] = hit
		fmt.Printf("  %-12d %11.0f ns %11.0f ns %11.0f ns\n",
			nodes, hit, miss, count)
	}
	small, large := placementNodeCounts[0], placementNodeCounts[len(placementNodeCounts)-1]
	ratio := firstFitNs[large] / firstFitNs[small]
	fmt.Printf("  first-fit cost %d -> %d nodes: %.2fx (linear scan: ~%.0fx)\n",
		small, large, ratio, float64(large)/float64(small))
	return nil
}

// timeQuery measures one query's mean wall time in nanoseconds.
func timeQuery(fn func()) float64 {
	start := time.Now()
	for i := 0; i < placementQueryIters; i++ {
		fn()
	}
	return float64(time.Since(start).Nanoseconds()) / float64(placementQueryIters)
}

// loadedBenchCluster builds a paper-shaped cluster (28 cores, 5 GPUs per
// node) filled front to back to ~95% so first-fit probes skip a long run of
// full nodes, with a deterministic ~5% of nodes left lightly loaded.
func loadedBenchCluster(nodes int) (*cluster.Cluster, error) {
	c, err := cluster.New(cluster.Config{
		Nodes: nodes, CoresPerNode: 28, GPUsPerNode: 5,
		BandwidthGBs: 120, PCIeGBs: 16,
	})
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(1))
	id := job.ID(1)
	for nid := 0; nid < nodes; nid++ {
		if rng.Intn(20) == 0 {
			continue
		}
		alloc := job.Allocation{NodeIDs: []int{nid}, CPUCores: 26, GPUs: 5}
		if err := c.Allocate(id, alloc); err != nil {
			return nil, err
		}
		id++
	}
	return c, nil
}
