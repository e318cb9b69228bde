package cluster

import "fmt"

// capacityIndex keeps the two structures placement queries read, both
// over the nodes' effective free capacity and maintained by the same
// insert/remove pair. Nodes that are not up report zero free cores and
// GPUs, so a state change is an ordinary capacity move — the index never
// needs to know about node states.
//
//   - tiers[g] is a segment tree over node IDs whose leaf for a node holds
//     its free cores when the node has at least g free GPUs, else -1.
//     First-fit descends tiers[gpus] leftmost-first, yielding exactly the
//     ID-ordered nodes the old linear Fits scan yielded — O(log n) per hit.
//     The leaves also record where the index last put each node, which is
//     what remove checks.
//   - counts is a 2-D Fenwick tree over the capacity grid answering
//     CountPlaceable in O(log G · log C).
type capacityIndex struct {
	maxCores int
	maxGPUs  int
	tiers    []*segTree
	counts   *fenwick2D
}

func newCapacityIndex(nodes []*Node) *capacityIndex {
	ix := &capacityIndex{}
	for _, n := range nodes {
		if n.Cores > ix.maxCores {
			ix.maxCores = n.Cores
		}
		if n.GPUs > ix.maxGPUs {
			ix.maxGPUs = n.GPUs
		}
	}
	ix.tiers = make([]*segTree, ix.maxGPUs+1)
	for g := range ix.tiers {
		ix.tiers[g] = newSegTree(len(nodes))
	}
	ix.counts = newFenwick2D(ix.maxGPUs+1, ix.maxCores+1)
	for _, n := range nodes {
		ix.insert(n.FreeGPUs(), n.FreeCores(), n.ID)
	}
	return ix
}

// insert counts node id at capacity (gpus, cores) and rewrites its tier
// leaves to match — insert always carries the node's current free
// capacity, so the remove that precedes it in a capacity move never has
// to touch the trees.
func (ix *capacityIndex) insert(gpus, cores, id int) {
	ix.counts.add(gpus, cores, 1)
	for g := 0; g <= ix.maxGPUs; g++ {
		v := -1
		if gpus >= g {
			v = cores
		}
		ix.tiers[g].set(id, v)
	}
}

// remove uncounts node id from capacity (gpus, cores). It panics unless
// the node's tier leaves say the last insert put it there — the tier-gpus
// leaf holds cores and the next tier's leaf is -1 — since a disagreement
// means the index and the node state have diverged, corruption that would
// otherwise surface as a wrong placement far downstream. The check is O(1)
// and reads only the leaves, which remove never clears: a second remove
// with no insert between passes it and drifts the Fenwick counts, which
// the full audit's histogram check catches. reindexFrom, the only caller,
// always follows remove with insert.
func (ix *capacityIndex) remove(gpus, cores, id int) {
	if ix.tiers[gpus].leaf(id) != cores || (gpus < ix.maxGPUs && ix.tiers[gpus+1].leaf(id) != -1) {
		panic(fmt.Sprintf("cluster: capacity index corrupt: node %d not indexed at (%d free gpus, %d free cores)",
			id, gpus, cores))
	}
	ix.counts.add(gpus, cores, -1)
}

// auditNode verifies node id's tier leaves against its free capacity.
// O(G log n), the per-touched-node audit the delta invariant checker runs.
func (ix *capacityIndex) auditNode(gpus, cores, id int) error {
	for g := 0; g <= ix.maxGPUs; g++ {
		want := -1
		if gpus >= g {
			want = cores
		}
		if got := ix.tiers[g].leaf(id); got != want {
			return fmt.Errorf("node %d: tier-%d segtree leaf holds %d, want %d", id, g, got, want)
		}
	}
	return nil
}

// audit verifies the Fenwick dominance counts against a histogram of the
// nodes' free capacity, and every segment tree's internal structure. The
// full-audit complement of auditNode; leaf values are covered by the
// per-node checks the full audit also runs.
func (ix *capacityIndex) audit(nodes []*Node) error {
	cols := ix.maxCores + 1
	// suffix[g][c] = nodes with at least g free GPUs and c free cores.
	suffix := make([]int, (ix.maxGPUs+1)*cols)
	for _, n := range nodes {
		suffix[n.FreeGPUs()*cols+n.FreeCores()]++
	}
	for g := ix.maxGPUs; g >= 0; g-- {
		for c := ix.maxCores; c >= 0; c-- {
			v := suffix[g*cols+c]
			if g+1 <= ix.maxGPUs {
				v += suffix[(g+1)*cols+c]
			}
			if c+1 <= ix.maxCores {
				v += suffix[g*cols+c+1]
			}
			if g+1 <= ix.maxGPUs && c+1 <= ix.maxCores {
				v -= suffix[(g+1)*cols+c+1]
			}
			suffix[g*cols+c] = v
		}
	}
	for g := 0; g <= ix.maxGPUs; g++ {
		for c := 0; c <= ix.maxCores; c++ {
			if got, want := ix.counts.dominating(g, c), suffix[g*cols+c]; got != want {
				return fmt.Errorf("fenwick dominance count at (%d gpus, %d cores) is %d, nodes sum to %d",
					g, c, got, want)
			}
		}
	}
	for g, t := range ix.tiers {
		if err := t.audit(); err != nil {
			return fmt.Errorf("tier %d: %w", g, err)
		}
	}
	return nil
}

// reindexFrom moves a node to the index position matching its current free
// capacity. oldGPUs/oldCores are the node's free values captured before the
// mutation; every Cluster mutator calls this for each touched node.
func (c *Cluster) reindexFrom(n *Node, oldGPUs, oldCores int) {
	newGPUs, newCores := n.FreeGPUs(), n.FreeCores()
	if newGPUs == oldGPUs && newCores == oldCores {
		return
	}
	c.index.remove(oldGPUs, oldCores, n.ID)
	c.index.insert(newGPUs, newCores, n.ID)
}

// CountPlaceable returns how many nodes currently fit cores and gpus —
// the Fenwick-backed equivalent of counting Fits over all nodes,
// O(log G · log C).
func (c *Cluster) CountPlaceable(cores, gpus int) int {
	if cores < 0 {
		cores = 0
	}
	if gpus < 0 {
		gpus = 0
	}
	ix := c.index
	if cores > ix.maxCores || gpus > ix.maxGPUs {
		return 0
	}
	return ix.counts.dominating(gpus, cores)
}

// ScanPlaceable calls fn for each node that fits cores and gpus, in ID
// order (first-fit), until fn returns false. The nodes come from a
// leftmost descent of the GPU tier's segment tree that never touches nodes
// that don't fit. fn must not mutate the cluster: allocations rewrite the
// tier leaves mid-scan.
func (c *Cluster) ScanPlaceable(cores, gpus int, fn func(*Node) bool) {
	if cores < 0 {
		cores = 0
	}
	if gpus < 0 {
		gpus = 0
	}
	ix := c.index
	if cores > ix.maxCores || gpus > ix.maxGPUs {
		return
	}
	t := ix.tiers[gpus]
	for id := t.nextAtLeast(0, cores); id >= 0; id = t.nextAtLeast(id+1, cores) {
		if !fn(c.nodes[id]) {
			return
		}
	}
}

// EachNode calls fn for every node in ID order until fn returns false,
// without copying the node slice (the allocation-free Nodes()).
func (c *Cluster) EachNode(fn func(*Node) bool) {
	for _, n := range c.nodes {
		if !fn(n) {
			return
		}
	}
}
