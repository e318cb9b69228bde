package cluster

import (
	"fmt"
	"math/bits"
)

// This file holds the hierarchical placement structures that answer the
// three placement query shapes in sub-linear time while reproducing the
// iteration orders of the flat scans they replaced bit for bit:
//
//   - segTree: one segment tree over node IDs per GPU tier, storing
//     subtree-max free cores. First-fit becomes a leftmost descent that
//     yields fitting nodes in exactly ID order — O(log n) per yielded node,
//     nodes that don't fit are never touched.
//   - fenwick2D: a 2-D Fenwick (binary-indexed) tree over the
//     (freeGPUs, freeCores) capacity grid, so counting the nodes that
//     dominate a request is O(log G · log C) instead of a sweep over every
//     dominating cell.
//   - rowBits: per-GPU-row occupancy bitmaps over the capacity cells, so
//     the worst-fit cell walk skips empty cells in O(1) words instead of
//     visiting each one.
//
// None of these serialize: like the cell index they are rebuilt
// deterministically from node state on construction and maintained
// incrementally by every mutator, and checkpoint restore replays
// placements through the ordinary mutators. The invariant auditors verify
// them against node state — per touched node in O(G log n) for the delta
// check, structurally in the full audit.

// segTree is an iterative max segment tree over node IDs. Leaves hold the
// node's free cores within one GPU tier, or -1 when the node has fewer
// free GPUs than the tier demands (or does not exist — leaves past n pad
// the tree to a power of two).
type segTree struct {
	n    int
	size int // smallest power of two >= n; leaves live at [size, size+n)
	max  []int
}

func newSegTree(n int) *segTree {
	size := 1
	for size < n {
		size <<= 1
	}
	t := &segTree{n: n, size: size, max: make([]int, 2*size)}
	for i := range t.max {
		t.max[i] = -1
	}
	return t
}

// leaf returns the stored value for node id.
func (t *segTree) leaf(id int) int { return t.max[t.size+id] }

// set updates node id's value and rewrites the O(log n) ancestor maxima,
// stopping as soon as an ancestor is already correct.
func (t *segTree) set(id, v int) {
	p := t.size + id
	if t.max[p] == v {
		return
	}
	t.max[p] = v
	for p >>= 1; p >= 1; p >>= 1 {
		m := t.max[2*p]
		if t.max[2*p+1] > m {
			m = t.max[2*p+1]
		}
		if t.max[p] == m {
			break
		}
		t.max[p] = m
	}
}

// nextAtLeast returns the smallest node ID >= from whose value is >= want,
// or -1. Ascends from the starting leaf checking right siblings, then
// descends leftmost into the first subtree that can satisfy the query —
// O(log n) regardless of how many nodes in between don't fit.
func (t *segTree) nextAtLeast(from, want int) int {
	if from < 0 {
		from = 0
	}
	if from >= t.n {
		return -1
	}
	p := t.size + from
	if t.max[p] >= want {
		return from
	}
	for p > 1 {
		if p&1 == 0 && t.max[p+1] >= want {
			p++
			for p < t.size {
				if t.max[2*p] >= want {
					p = 2 * p
				} else {
					p = 2*p + 1
				}
			}
			return p - t.size
		}
		p >>= 1
	}
	return -1
}

// audit verifies structural consistency: every internal node is the max of
// its children and every padding leaf past n is still -1. Per-leaf values
// are audited against node state by CheckNodeInvariants.
func (t *segTree) audit() error {
	for p := 1; p < t.size; p++ {
		m := t.max[2*p]
		if t.max[2*p+1] > m {
			m = t.max[2*p+1]
		}
		if t.max[p] != m {
			return fmt.Errorf("segtree node %d holds %d, children max %d", p, t.max[p], m)
		}
	}
	for i := t.n; i < t.size; i++ {
		if t.max[t.size+i] != -1 {
			return fmt.Errorf("segtree padding leaf %d holds %d, want -1", i, t.max[t.size+i])
		}
	}
	return nil
}

// fenwick2D counts index entries per (freeGPUs, freeCores) capacity cell
// with O(log G · log C) dominance queries. Coordinates are stored reversed
// (high capacity maps to low index), so "how many nodes have at least g
// GPUs and c cores free" is an ordinary 2-D prefix sum.
type fenwick2D struct {
	rows, cols int // maxGPUs+1, maxCores+1
	tree       []int
}

func newFenwick2D(rows, cols int) *fenwick2D {
	return &fenwick2D{rows: rows, cols: cols, tree: make([]int, (rows+1)*(cols+1))}
}

// add applies delta to capacity cell (gpus, cores).
func (f *fenwick2D) add(gpus, cores, delta int) {
	for r := f.rows - gpus; r <= f.rows; r += r & (-r) {
		row := r * (f.cols + 1)
		for c := f.cols - cores; c <= f.cols; c += c & (-c) {
			f.tree[row+c] += delta
		}
	}
}

// dominating returns how many entries sit in cells with at least gpus GPUs
// and cores cores free.
func (f *fenwick2D) dominating(gpus, cores int) int {
	total := 0
	for r := f.rows - gpus; r > 0; r -= r & (-r) {
		row := r * (f.cols + 1)
		for c := f.cols - cores; c > 0; c -= c & (-c) {
			total += f.tree[row+c]
		}
	}
	return total
}

// rowBits marks the non-empty capacity cells of each GPU row, one bit per
// core value, so cell walks skip runs of empty cells with a word scan.
type rowBits struct {
	cols  int // maxCores + 1 valid bits per row
	words [][]uint64
}

func newRowBits(rows, cols int) *rowBits {
	b := &rowBits{cols: cols, words: make([][]uint64, rows)}
	for i := range b.words {
		b.words[i] = make([]uint64, (cols+63)/64)
	}
	return b
}

func (b *rowBits) set(g, c int)      { b.words[g][c>>6] |= 1 << (c & 63) }
func (b *rowBits) clear(g, c int)    { b.words[g][c>>6] &^= 1 << (c & 63) }
func (b *rowBits) has(g, c int) bool { return b.words[g][c>>6]&(1<<(c&63)) != 0 }

// prev returns the largest marked core value <= c in row g, or -1.
func (b *rowBits) prev(g, c int) int {
	if c >= b.cols {
		c = b.cols - 1
	}
	if c < 0 {
		return -1
	}
	row := b.words[g]
	w := c >> 6
	cur := row[w]
	if s := c & 63; s != 63 {
		cur &= 1<<(s+1) - 1
	}
	for {
		if cur != 0 {
			return w<<6 + 63 - bits.LeadingZeros64(cur)
		}
		w--
		if w < 0 {
			return -1
		}
		cur = row[w]
	}
}
