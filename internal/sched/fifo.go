package sched

import (
	"fmt"
	"sort"

	"github.com/coda-repro/coda/internal/job"
)

// FIFO is the first-in-first-out policy of the paper's production cluster
// (SLURM, §III-A). A single queue serves both CPU and GPU jobs in arrival
// order; jobs that do not fit are skipped so later arrivals that do fit can
// start — the observed production behaviour (87.4% of CPU jobs start
// within 10 s under FIFO, §VI-C, which strict head-of-line blocking could
// never deliver). Jobs still start in arrival order whenever resources
// allow, and nothing reorders the queue.
//
// The queue is stored as per-request-shape sub-queues merged by a
// min-heap on arrival sequence number. A drain pass over a deep backlog
// then costs O(shapes + probes·log shapes) instead of O(queue): the
// dominance filter (failedSet) only grows within a pass, so the moment a
// shape fails or is covered, every later entry of that shape is doomed
// for the rest of the pass and the whole sub-queue drops out of the merge
// in one step. The pass probes exactly the entries the flat walk would
// probe, in exactly its arrival order — the heap's next pop is always the
// globally earliest entry of any still-viable shape.
type FIFO struct {
	env Env
	// seq numbers arrivals; entries within a shape are appended in seq
	// order and removals preserve it, so each sub-queue head is its
	// earliest entry.
	seq uint64
	// shapes holds every shape seen, shapeList the live (non-empty) ones in
	// no particular order. An emptied shape stays in shapes, detached from
	// shapeList with its storage kept, so the next job of that shape
	// reuses it instead of allocating a queue and a map entry.
	shapes    map[job.Request]*shapeQueue
	shapeList []*shapeQueue
	size      int
	// ReserveDepth is how many unplaceable GPU jobs get node reservations
	// per pass, modeling SLURM backfill's future-slot holds: the held
	// nodes' free resources sit idle — the fragmentation §VI-C measures.
	ReserveDepth int

	// reserved, failed and heap are per-pass scratch reused across drains
	// so a pass over a long queue allocates nothing.
	reserved ExcludeSet
	failed   failedSet
	heap     []shapeRef
}

// fifoEntry is one queued job, tagged with its global arrival order.
type fifoEntry struct {
	seq uint64
	j   *job.Job
}

// shapeQueue holds the pending jobs of one request shape in arrival
// order. head indexes the earliest live entry; popped slots are zeroed
// and reclaimed by periodic compaction.
type shapeQueue struct {
	key     job.Request
	listIdx int // position in FIFO.shapeList, for O(1) detach; -1 detached
	head    int
	entries []fifoEntry
}

func (s *shapeQueue) length() int        { return len(s.entries) - s.head }
func (s *shapeQueue) at(i int) fifoEntry { return s.entries[s.head+i] }

// shapeRef is a heap element: a shape whose next candidate entry (at
// offset skip past the head) has the given arrival seq. skip counts the
// entries at the front of the shape already visited this pass whose
// StartJob failed — the flat walk would move past them exactly once.
type shapeRef struct {
	seq  uint64
	skip int
	sq   *shapeQueue
}

// DefaultReserveDepth mirrors a bounded backfill test depth.
const DefaultReserveDepth = 16

var _ Scheduler = (*FIFO)(nil)

// NewFIFO builds the FIFO baseline.
func NewFIFO() *FIFO {
	return &FIFO{shapes: make(map[job.Request]*shapeQueue)}
}

// Name implements Scheduler.
func (f *FIFO) Name() string { return "fifo" }

// Bind implements Scheduler.
func (f *FIFO) Bind(env Env) { f.env = env }

// Submit implements Scheduler.
func (f *FIFO) Submit(j *job.Job) {
	f.enqueue(j)
	f.drain()
}

// OnJobCompleted implements Scheduler.
func (f *FIFO) OnJobCompleted(*job.Job) { f.drain() }

// OnJobKilled implements Scheduler. FIFO keeps no per-running-job state;
// the freed resources may start queued work.
func (f *FIFO) OnJobKilled(*job.Job) { f.drain() }

// Tick implements Scheduler.
func (f *FIFO) Tick() { f.drain() }

// OnJobCancelled implements Canceller: the queued job is removed and a
// pass runs, because nodes the job would have reserved may now start later
// arrivals. A detached shape is empty, so its search finds nothing.
func (f *FIFO) OnJobCancelled(j *job.Job) {
	if sq, ok := f.shapes[j.Request]; ok {
		for i := 0; i < sq.length(); i++ {
			if sq.at(i).j.ID == j.ID {
				f.removeEntry(sq, i)
				break
			}
		}
	}
	f.drain()
}

// enqueue appends j to its shape's sub-queue, creating the shape on
// first use and re-attaching it to the live list when it was empty.
func (f *FIFO) enqueue(j *job.Job) {
	sq, ok := f.shapes[j.Request]
	if !ok {
		sq = &shapeQueue{key: j.Request, listIdx: -1}
		f.shapes[j.Request] = sq
	}
	if sq.listIdx < 0 {
		sq.listIdx = len(f.shapeList)
		f.shapeList = append(f.shapeList, sq)
	}
	f.seq++
	sq.entries = append(sq.entries, fifoEntry{seq: f.seq, j: j})
	f.size++
}

// removeEntry deletes the i-th live entry of sq (0 = head), detaching the
// shape when it empties. Head removal is O(1) with periodic compaction;
// mid-queue removal (cancellations, StartJob-error leftovers) splices.
func (f *FIFO) removeEntry(sq *shapeQueue, i int) {
	if i == 0 {
		sq.entries[sq.head] = fifoEntry{}
		sq.head++
		if sq.head > 64 && sq.head*2 > len(sq.entries) {
			n := copy(sq.entries, sq.entries[sq.head:])
			for k := n; k < len(sq.entries); k++ {
				sq.entries[k] = fifoEntry{}
			}
			sq.entries = sq.entries[:n]
			sq.head = 0
		}
	} else {
		pos := sq.head + i
		copy(sq.entries[pos:], sq.entries[pos+1:])
		sq.entries[len(sq.entries)-1] = fifoEntry{}
		sq.entries = sq.entries[:len(sq.entries)-1]
	}
	f.size--
	if sq.length() == 0 {
		f.detach(sq)
	}
}

// detach removes an emptied shape from the live list. It stays in the
// lookup map with its entries rewound (every slot is already zeroed), for
// the next job of its shape.
func (f *FIFO) detach(sq *shapeQueue) {
	last := len(f.shapeList) - 1
	f.shapeList[sq.listIdx] = f.shapeList[last]
	f.shapeList[sq.listIdx].listIdx = sq.listIdx
	f.shapeList[last] = nil
	f.shapeList = f.shapeList[:last]
	sq.listIdx = -1
	sq.head = 0
	sq.entries = sq.entries[:0]
}

// entriesInOrder snapshots the whole queue in arrival order (checkpointing;
// not on the hot path).
func (f *FIFO) entriesInOrder() []fifoEntry {
	all := make([]fifoEntry, 0, f.size)
	for _, sq := range f.shapeList {
		for i := 0; i < sq.length(); i++ {
			all = append(all, sq.at(i))
		}
	}
	sort.Slice(all, func(a, b int) bool { return all[a].seq < all[b].seq })
	return all
}

// drain walks the queue in arrival order, starting every job that fits.
// Unplaceable GPU jobs near the front get node reservations (up to
// ReserveDepth) that later jobs must not touch, like SLURM's backfill
// holding future slots for waiting jobs.
//
// The pass pops the earliest entry of any still-viable shape off the
// seq-heap. Popping an entry whose shape the failedSet covers retires the
// whole shape: coverage only grows within a pass (failedSet.add keeps
// minimal elements), so every later entry of that shape would be skipped
// too. A placement failure likewise retires the shape — the failed
// request covers itself. Only a successful start (or a StartJob error,
// which the flat walk stepped past once) re-queues the shape with its
// next entry's seq, so probe order matches the flat walk exactly.
func (f *FIFO) drain() {
	f.reserved.Reset()
	f.failed.reset()
	reservations := 0
	h := f.heap[:0]
	for _, sq := range f.shapeList {
		h = append(h, shapeRef{seq: sq.at(0).seq, sq: sq})
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		heapSiftDown(h, i)
	}
	for len(h) > 0 {
		ref := h[0]
		h[0] = h[len(h)-1]
		h = h[:len(h)-1]
		if len(h) > 0 {
			heapSiftDown(h, 0)
		}
		sq := ref.sq
		if f.failed.covered(sq.key) {
			// A smaller request already failed this pass; placements only
			// shrink within a pass, so no entry of this shape can fit.
			continue
		}
		j := sq.at(ref.skip).j
		if alloc, found := PlaceRequestExcluding(f.env.Cluster(), sq.key, &f.reserved); found {
			if err := f.env.StartJob(j.ID, alloc); err == nil {
				f.removeEntry(sq, ref.skip)
				if sq.length() > ref.skip {
					h = heapPush(h, shapeRef{seq: sq.at(ref.skip).seq, skip: ref.skip, sq: sq})
				}
			} else if sq.length() > ref.skip+1 {
				// The job stays queued; the pass moves past it once, like
				// the flat walk, and resumes at the shape's next entry.
				h = heapPush(h, shapeRef{seq: sq.at(ref.skip + 1).seq, skip: ref.skip + 1, sq: sq})
			}
		} else {
			f.failed.add(sq.key)
			if j.IsGPU() && reservations < f.ReserveDepth {
				for _, nid := range ReserveNodes(f.env.Cluster(), sq.key, &f.reserved) {
					f.reserved.Add(nid)
				}
				reservations++
			}
		}
	}
	f.heap = h[:0]
}

// heapPush appends r and restores the min-heap-on-seq property.
func heapPush(h []shapeRef, r shapeRef) []shapeRef {
	h = append(h, r)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if h[p].seq <= h[i].seq {
			break
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
	return h
}

// heapSiftDown restores the min-heap property below index i.
func heapSiftDown(h []shapeRef, i int) {
	for {
		l := 2*i + 1
		if l >= len(h) {
			return
		}
		m := l
		if r := l + 1; r < len(h) && h[r].seq < h[l].seq {
			m = r
		}
		if h[i].seq <= h[m].seq {
			return
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}

// QueueLen reports the pending job count (for tests and metrics).
func (f *FIFO) QueueLen() int { return f.size }

// CheckInvariants verifies the shape queues: every listed shape is
// non-empty and sits at its listIdx, every detached shape is empty, and
// size equals the sum of the queue lengths.
func (f *FIFO) CheckInvariants() error {
	for i, sq := range f.shapeList {
		if sq.listIdx != i {
			return fmt.Errorf("fifo: shape %+v listed at %d records index %d", sq.key, i, sq.listIdx)
		}
		if sq.length() == 0 {
			return fmt.Errorf("fifo: listed shape %+v is empty", sq.key)
		}
		if f.shapes[sq.key] != sq {
			return fmt.Errorf("fifo: listed shape %+v is not the one its key looks up", sq.key)
		}
	}
	queued := 0
	//coda:ordered-ok integer sum and error reporting on already-broken state; any witness will do
	for key, sq := range f.shapes {
		if sq.key != key {
			return fmt.Errorf("fifo: shape %+v filed under %+v", sq.key, key)
		}
		if sq.listIdx < 0 {
			if n := sq.length(); n != 0 {
				return fmt.Errorf("fifo: detached shape %+v holds %d jobs", key, n)
			}
			continue
		}
		if sq.listIdx >= len(f.shapeList) || f.shapeList[sq.listIdx] != sq {
			return fmt.Errorf("fifo: shape %+v records list index %d but is not listed there", key, sq.listIdx)
		}
		queued += sq.length()
	}
	if queued != f.size {
		return fmt.Errorf("fifo: shape queues hold %d jobs, size says %d", queued, f.size)
	}
	return nil
}
