package cluster

import "fmt"

// This file holds the hierarchical placement structure that answers
// first-fit queries in sub-linear time while reproducing the results of
// the flat scan it replaced bit for bit: one segment tree over node IDs per
// GPU tier, storing subtree-max free cores. First-fit becomes a leftmost
// descent that yields fitting nodes in exactly ID order — O(log n) per
// yielded node, nodes that don't fit are never touched.
//
// The trees do not serialize: they are rebuilt deterministically from node
// state on construction and maintained incrementally by every mutator, and
// checkpoint restore replays placements through the ordinary mutators.
// The invariant auditors verify them against node state — per touched
// node in O(G log n) for the delta check, and structurally in the full
// audit.

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
