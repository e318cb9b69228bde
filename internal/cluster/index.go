package cluster

import "fmt"

// capacityIndex is the one structure placement queries read, over the
// nodes' effective free capacity: tiers[g] is a segment tree over node IDs
// whose leaf for a node holds its free cores when the node has at least g
// free GPUs, else -1. First-fit descends tiers[gpus] leftmost-first,
// yielding exactly the ID-ordered nodes the old linear Fits scan yielded —
// O(log n) per hit. Nodes that are not up report zero free cores and GPUs,
// so a state change is an ordinary capacity move — the index never needs
// to know about node states. The leaves also record where the index last
// put each node, which is what reindexFrom checks before every move.
type capacityIndex struct {
	tiers []*segTree
}

func newCapacityIndex(nodes []*Node) *capacityIndex {
	maxGPUs := 0
	for _, n := range nodes {
		if n.GPUs > maxGPUs {
			maxGPUs = n.GPUs
		}
	}
	ix := &capacityIndex{tiers: make([]*segTree, maxGPUs+1)}
	for g := range ix.tiers {
		ix.tiers[g] = newSegTree(len(nodes))
	}
	for _, n := range nodes {
		ix.insert(n.FreeGPUs(), n.FreeCores(), n.ID)
	}
	return ix
}

// insert rewrites node id's tier leaves to capacity (gpus, cores).
func (ix *capacityIndex) insert(gpus, cores, id int) {
	for g, t := range ix.tiers {
		v := -1
		if gpus >= g {
			v = cores
		}
		t.set(id, v)
	}
}

// auditNode verifies node id's tier leaves against its free capacity.
// O(G log n), the per-touched-node audit the delta invariant checker runs.
func (ix *capacityIndex) auditNode(gpus, cores, id int) error {
	for g, t := range ix.tiers {
		want := -1
		if gpus >= g {
			want = cores
		}
		if got := t.leaf(id); got != want {
			return fmt.Errorf("node %d: tier-%d segtree leaf holds %d, want %d", id, g, got, want)
		}
	}
	return nil
}

// audit verifies every segment tree's internal structure: the full-audit
// complement of auditNode, whose per-node checks the full audit also runs.
func (ix *capacityIndex) audit() error {
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
//
// It panics unless the node's tier leaves say the last move put it at the
// old capacity — the tier-oldGPUs leaf holds oldCores and the next tier's
// leaf is -1 — since a disagreement means the index and the node state
// have diverged, corruption that would otherwise surface as a wrong
// placement far downstream. The check is O(1).
func (c *Cluster) reindexFrom(n *Node, oldGPUs, oldCores int) {
	newGPUs, newCores := n.FreeGPUs(), n.FreeCores()
	if newGPUs == oldGPUs && newCores == oldCores {
		return
	}
	tiers := c.index.tiers
	if tiers[oldGPUs].leaf(n.ID) != oldCores || (oldGPUs+1 < len(tiers) && tiers[oldGPUs+1].leaf(n.ID) != -1) {
		panic(fmt.Sprintf("cluster: capacity index corrupt: node %d not indexed at (%d free gpus, %d free cores)",
			n.ID, oldGPUs, oldCores))
	}
	c.index.insert(newGPUs, newCores, n.ID)
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
	if gpus >= len(c.index.tiers) {
		return
	}
	t := c.index.tiers[gpus]
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
