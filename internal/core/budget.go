// Package core implements CODA, the paper's contribution: an adaptive CPU
// allocator that finds the just-enough ("slimmed") core count for each DNN
// training job (§V-B), a real-time contention eliminator that throttles
// bandwidth-hungry CPU jobs (§V-D), and a multi-array job scheduler that
// partitions cluster resources into a CPU array and a GPU array (with
// 1-GPU and 4-GPU sub-arrays) with cross-array preemption (§V-C).
package core

import (
	"fmt"
	"sort"

	"github.com/coda-repro/coda/internal/job"
)

// draw records how many cores a job took from each per-node pool.
type draw struct {
	fromReserve int // cores drawn from the GPU array's reservation
	fromShared  int // cores drawn from the CPU array's budget
}

func (d draw) total() int { return d.fromReserve + d.fromShared }

// nodeBudget partitions one node's cores between the GPU resource array
// ("reserve") and the CPU resource array ("shared"), tracking which jobs
// drew from where so preemption can reclaim exactly the borrowed cores.
type nodeBudget struct {
	cores    int // node core count
	reserve  int // cores reserved for the GPU array
	gpuDraws map[job.ID]draw
	cpuDraws map[job.ID]draw
	// Running totals over both draw maps, kept by every draw write so the
	// placement scans read them in O(1); checkInvariants recomputes them.
	usedReserve int // reserve cores held by GPU jobs and borrowers
	usedShared  int // shared cores held by any job
	borrowed    int // reserve cores held by CPU jobs
}

func newNodeBudget(cores, reserve int) (*nodeBudget, error) {
	if cores <= 0 {
		return nil, fmt.Errorf("core: node cores must be positive, got %d", cores)
	}
	if reserve < 0 || reserve > cores {
		return nil, fmt.Errorf("core: reserve %d out of [0,%d]", reserve, cores)
	}
	return &nodeBudget{
		cores:    cores,
		reserve:  reserve,
		gpuDraws: make(map[job.ID]draw),
		cpuDraws: make(map[job.ID]draw),
	}, nil
}

// reserveUsed returns the reserve cores in use (by GPU jobs and borrowers).
func (b *nodeBudget) reserveUsed() int { return b.usedReserve }

// sharedUsed returns the CPU-budget cores in use.
func (b *nodeBudget) sharedUsed() int { return b.usedShared }

// reserveFree and sharedFree are the pools' headroom.
func (b *nodeBudget) reserveFree() int { return b.reserve - b.reserveUsed() }
func (b *nodeBudget) sharedFree() int  { return b.cores - b.reserve - b.sharedUsed() }

// borrowedCores returns the reserve cores held by CPU jobs (preemptible).
func (b *nodeBudget) borrowedCores() int { return b.borrowed }

// tally adds sign × d to the running totals; cpu marks a CPU job's draw,
// whose reserve cores are borrowed.
func (b *nodeBudget) tally(d draw, sign int, cpu bool) {
	b.usedReserve += sign * d.fromReserve
	b.usedShared += sign * d.fromShared
	if cpu {
		b.borrowed += sign * d.fromReserve
	}
}

// sums recomputes the running totals from the draw maps: the reference
// checkInvariants holds the totals to, and how restore rebuilds them.
func (b *nodeBudget) sums() (usedReserve, usedShared, borrowed int) {
	for _, d := range b.gpuDraws {
		usedReserve += d.fromReserve
		usedShared += d.fromShared
	}
	for _, d := range b.cpuDraws {
		usedReserve += d.fromReserve
		usedShared += d.fromShared
		borrowed += d.fromReserve
	}
	return usedReserve, usedShared, borrowed
}

// borrowers lists CPU jobs holding reserve cores, largest borrowers first
// (ties by ID) so preemption frees cores with the fewest aborts.
func (b *nodeBudget) borrowers() []job.ID {
	ids := make([]job.ID, 0, len(b.cpuDraws))
	//coda:ordered-ok collected IDs are fully ordered by the sort below
	for id, d := range b.cpuDraws {
		if d.fromReserve > 0 {
			ids = append(ids, id)
		}
	}
	sort.Slice(ids, func(i, j int) bool {
		a, c := b.cpuDraws[ids[i]], b.cpuDraws[ids[j]]
		if a.fromReserve != c.fromReserve {
			return a.fromReserve > c.fromReserve
		}
		return ids[i] < ids[j]
	})
	return ids
}

// chargeGPU books cores for a GPU job: reserve first, then shared.
// availableOnly charges nothing and reports false when the pools cannot
// cover the request.
func (b *nodeBudget) chargeGPU(id job.ID, cores int) bool {
	if _, ok := b.gpuDraws[id]; ok {
		return false
	}
	r := min(cores, b.reserveFree())
	if cores-r > b.sharedFree() {
		return false
	}
	d := draw{fromReserve: r, fromShared: cores - r}
	b.gpuDraws[id] = d
	b.tally(d, 1, false)
	return true
}

// chargeCPU books cores for a CPU job from the shared pool, borrowing from
// the reserve only when allowBorrow is set.
func (b *nodeBudget) chargeCPU(id job.ID, cores int, allowBorrow bool) bool {
	if _, ok := b.cpuDraws[id]; ok {
		return false
	}
	s := min(cores, b.sharedFree())
	rest := cores - s
	if rest > 0 && (!allowBorrow || rest > b.reserveFree()) {
		return false
	}
	d := draw{fromShared: s, fromReserve: rest}
	b.cpuDraws[id] = d
	b.tally(d, 1, true)
	return true
}

// release frees whatever the job drew.
func (b *nodeBudget) release(id job.ID) {
	if d, ok := b.gpuDraws[id]; ok {
		b.tally(d, -1, false)
		delete(b.gpuDraws, id)
	}
	if d, ok := b.cpuDraws[id]; ok {
		b.tally(d, -1, true)
		delete(b.cpuDraws, id)
	}
}

// resize rebooks a job's cores. GPU jobs grow into the reserve first;
// shrinks return shared cores first (keeping the reserve for GPU work when
// the job is a CPU job, and vice versa). Reports false (unchanged) when
// the pools cannot cover growth.
func (b *nodeBudget) resize(id job.ID, newCores int) bool {
	if d, ok := b.gpuDraws[id]; ok {
		return b.resizeDraw(b.gpuDraws, id, d, newCores, true)
	}
	if d, ok := b.cpuDraws[id]; ok {
		return b.resizeDraw(b.cpuDraws, id, d, newCores, false)
	}
	return false
}

func (b *nodeBudget) resizeDraw(m map[job.ID]draw, id job.ID, d draw, newCores int, preferReserve bool) bool {
	if newCores <= 0 {
		return false
	}
	old := d
	delta := newCores - d.total()
	switch {
	case delta == 0:
		return true
	case delta > 0:
		var first, second *int
		if preferReserve {
			first, second = &d.fromReserve, &d.fromShared
		} else {
			first, second = &d.fromShared, &d.fromReserve
		}
		firstFree, secondFree := b.reserveFree(), b.sharedFree()
		if !preferReserve {
			firstFree, secondFree = secondFree, firstFree
		}
		take := min(delta, firstFree)
		if delta-take > secondFree {
			return false
		}
		*first += take
		*second += delta - take
	default:
		// Shrink: give back the "other" pool's cores first so each array
		// keeps its own budget loaded.
		give := -delta
		var spill, own *int
		if preferReserve {
			spill, own = &d.fromShared, &d.fromReserve
		} else {
			spill, own = &d.fromReserve, &d.fromShared
		}
		back := min(give, *spill)
		*spill -= back
		*own -= give - back
		if *own < 0 {
			return false
		}
	}
	m[id] = d
	b.tally(old, -1, !preferReserve)
	b.tally(d, 1, !preferReserve)
	return true
}

// checkInvariants validates the pool accounting.
func (b *nodeBudget) checkInvariants() error {
	if r, s, bo := b.sums(); r != b.usedReserve || s != b.usedShared || bo != b.borrowed {
		return fmt.Errorf("core: running totals (reserve %d, shared %d, borrowed %d) disagree with the draws (%d, %d, %d)",
			b.usedReserve, b.usedShared, b.borrowed, r, s, bo)
	}
	if b.reserveUsed() > b.reserve {
		return fmt.Errorf("core: reserve overcommitted (%d > %d)", b.reserveUsed(), b.reserve)
	}
	if b.sharedUsed() > b.cores-b.reserve {
		return fmt.Errorf("core: shared pool overcommitted (%d > %d)", b.sharedUsed(), b.cores-b.reserve)
	}
	//coda:ordered-ok error reporting on already-corrupt state; any witness will do
	for id, d := range b.gpuDraws {
		if d.fromReserve < 0 || d.fromShared < 0 || d.total() == 0 {
			return fmt.Errorf("core: gpu job %d has corrupt draw %+v", id, d)
		}
	}
	//coda:ordered-ok error reporting on already-corrupt state; any witness will do
	for id, d := range b.cpuDraws {
		if d.fromReserve < 0 || d.fromShared < 0 || d.total() == 0 {
			return fmt.Errorf("core: cpu job %d has corrupt draw %+v", id, d)
		}
	}
	return nil
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
