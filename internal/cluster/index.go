package cluster

import (
	"fmt"
	"sort"
)

// capacityIndex buckets node IDs by their effective free capacity so
// placement queries can iterate candidates without scanning, sorting or
// allocating. Nodes that are not up report zero free cores and GPUs, so
// they live in cell (0, 0) and a state change is an ordinary cell move —
// the index never needs to know about node states.
//
// Every cell holds ascending node IDs, so iterating cells most-free-GPUs
// first reproduces exactly the order the previous implementation obtained
// by sorting an ID-ordered candidate slice on (FreeGPUs, FreeCores)
// descending: worst-fit scans stay bit-identical to the pre-index engine.
//
// On top of the cells sit the hierarchical structures of hier.go, all
// maintained by the same insert/remove pair:
//
//   - tiers[g] is a segment tree over node IDs whose leaf for a node holds
//     its free cores when the node has at least g free GPUs, else -1.
//     First-fit descends tiers[gpus] leftmost-first, yielding exactly the
//     ID-ordered nodes the old linear Fits scan yielded — O(log n) per hit.
//   - counts is a 2-D Fenwick tree over the capacity grid answering
//     CountPlaceable in O(log G · log C).
//   - occ marks non-empty cells per GPU row so the worst-fit cell walk
//     skips empty cells.
//   - shapeCount is the static dominance count over total node shapes
//     (Cores, GPUs) — capacity-independent, so it is computed once and
//     never mutated; ReserveNodes' shape pre-check reads it instead of
//     sweeping every node.
type capacityIndex struct {
	maxCores int
	maxGPUs  int
	// cells[g*(maxCores+1)+c] holds the IDs of nodes with FreeGPUs() == g
	// and FreeCores() == c, ascending.
	cells  [][]int
	tiers  []*segTree
	counts *fenwick2D
	occ    *rowBits
	// shapeCount[g*(maxCores+1)+c] counts nodes with GPUs >= g and
	// Cores >= c (total shape, independent of occupancy and node state).
	shapeCount []int
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
	rows, cols := ix.maxGPUs+1, ix.maxCores+1
	ix.cells = make([][]int, rows*cols)
	ix.tiers = make([]*segTree, rows)
	for g := range ix.tiers {
		ix.tiers[g] = newSegTree(len(nodes))
	}
	ix.counts = newFenwick2D(rows, cols)
	ix.occ = newRowBits(rows, cols)
	ix.shapeCount = make([]int, rows*cols)
	for _, n := range nodes {
		ix.shapeCount[n.GPUs*cols+n.Cores]++
	}
	// Suffix-sum the shape histogram into dominance counts.
	for g := rows - 1; g >= 0; g-- {
		for c := cols - 1; c >= 0; c-- {
			v := ix.shapeCount[g*cols+c]
			if g+1 < rows {
				v += ix.shapeCount[(g+1)*cols+c]
			}
			if c+1 < cols {
				v += ix.shapeCount[g*cols+c+1]
			}
			if g+1 < rows && c+1 < cols {
				v -= ix.shapeCount[(g+1)*cols+c+1]
			}
			ix.shapeCount[g*cols+c] = v
		}
	}
	for _, n := range nodes {
		ix.insert(n.FreeGPUs(), n.FreeCores(), n.ID)
	}
	return ix
}

func (ix *capacityIndex) cellIdx(gpus, cores int) int {
	return gpus*(ix.maxCores+1) + cores
}

// insert places node id into capacity cell (gpus, cores) and rewrites its
// tier leaves to match — insert always carries the node's current free
// capacity, so the remove that precedes it in a cell move never has to
// touch the trees.
func (ix *capacityIndex) insert(gpus, cores, id int) {
	cell := &ix.cells[ix.cellIdx(gpus, cores)]
	i := sort.SearchInts(*cell, id)
	*cell = append(*cell, 0)
	copy((*cell)[i+1:], (*cell)[i:])
	(*cell)[i] = id
	ix.counts.add(gpus, cores, 1)
	ix.occ.set(gpus, cores)
	for g := 0; g <= ix.maxGPUs; g++ {
		v := -1
		if gpus >= g {
			v = cores
		}
		ix.tiers[g].set(id, v)
	}
}

// remove takes node id out of capacity cell (gpus, cores). A missing entry
// can only mean the index and the node state disagree — corruption that
// would otherwise surface as a wrong placement far downstream — so it
// panics loudly instead of silently no-opping.
func (ix *capacityIndex) remove(gpus, cores, id int) {
	cell := &ix.cells[ix.cellIdx(gpus, cores)]
	i := sort.SearchInts(*cell, id)
	if i >= len(*cell) || (*cell)[i] != id {
		panic(fmt.Sprintf("cluster: capacity index corrupt: node %d not in cell (%d free gpus, %d free cores)",
			id, gpus, cores))
	}
	*cell = append((*cell)[:i], (*cell)[i+1:]...)
	ix.counts.add(gpus, cores, -1)
	if len(*cell) == 0 {
		ix.occ.clear(gpus, cores)
	}
}

func (ix *capacityIndex) contains(gpus, cores, id int) bool {
	if gpus < 0 || gpus > ix.maxGPUs || cores < 0 || cores > ix.maxCores {
		return false
	}
	cell := ix.cells[ix.cellIdx(gpus, cores)]
	i := sort.SearchInts(cell, id)
	return i < len(cell) && cell[i] == id
}

// auditNode verifies node id's hierarchical entries against its free
// capacity: every tier leaf and the occupancy bit of its cell. O(G log n),
// the per-touched-node complement of contains for the delta auditor.
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
	if !ix.occ.has(gpus, cores) {
		return fmt.Errorf("node %d: occupancy bitmap misses its cell (%d free gpus, %d free cores)",
			id, gpus, cores)
	}
	return nil
}

// audit verifies the hierarchical structures against the cells: Fenwick
// dominance counts match cell suffix sums everywhere, occupancy bits match
// cell emptiness, and every segment tree is internally consistent. The
// full-audit complement of auditNode; leaf values are covered by the
// per-node checks the full audit also runs.
func (ix *capacityIndex) audit() error {
	cols := ix.maxCores + 1
	// suffix[g][c] = total entries in cells with at least g GPUs, c cores.
	suffix := make([]int, (ix.maxGPUs+1)*cols)
	for g := ix.maxGPUs; g >= 0; g-- {
		for c := ix.maxCores; c >= 0; c-- {
			v := len(ix.cells[ix.cellIdx(g, c)])
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
				return fmt.Errorf("fenwick dominance count at (%d gpus, %d cores) is %d, cells sum to %d",
					g, c, got, want)
			}
			if got, want := ix.occ.has(g, c), len(ix.cells[ix.cellIdx(g, c)]) > 0; got != want {
				return fmt.Errorf("occupancy bit at (%d gpus, %d cores) is %v, cell has %d entries",
					g, c, got, len(ix.cells[ix.cellIdx(g, c)]))
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

// size returns the total number of indexed entries (must equal the node
// count when the index is consistent).
func (ix *capacityIndex) size() int {
	total := 0
	for _, cell := range ix.cells {
		total += len(cell)
	}
	return total
}

// reindexFrom moves a node to the cell matching its current free capacity.
// oldGPUs/oldCores are the node's free values captured before the
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

// CountShaped returns how many nodes could ever host cores and gpus by
// total shape (Cores, GPUs), regardless of occupancy or state — the
// reservation pre-check. O(1): node shapes never change, so the dominance
// table is computed once at construction.
func (c *Cluster) CountShaped(cores, gpus int) int {
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
	return ix.shapeCount[gpus*(ix.maxCores+1)+cores]
}

// ScanPlaceable calls fn for each node that fits cores and gpus, in ID
// order (first-fit), until fn returns false. The nodes come from a
// leftmost descent of the GPU tier's segment tree that never touches nodes
// that don't fit. fn must not mutate the cluster: allocations move nodes
// between index cells mid-scan.
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

// ScanFreeDesc calls fn for every node in worst-fit order — most free
// GPUs first, then most free cores, then lowest ID — until fn returns
// false. Nodes that are not up report zero free capacity and come last.
// Empty cells are skipped via the occupancy bitmaps. fn must not mutate
// the cluster.
func (c *Cluster) ScanFreeDesc(fn func(*Node) bool) {
	ix := c.index
	for g := ix.maxGPUs; g >= 0; g-- {
		for cc := ix.occ.prev(g, ix.maxCores); cc >= 0; cc = ix.occ.prev(g, cc-1) {
			for _, id := range ix.cells[ix.cellIdx(g, cc)] {
				if !fn(c.nodes[id]) {
					return
				}
			}
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
