// Package sched defines the scheduler interface the simulator drives, the
// environment handle schedulers act through, and the two baseline policies
// the paper compares CODA against: FIFO (SLURM's default on the studied
// cluster, §III-A) and DRF with GPU as the dominant resource (§VI-A).
package sched

import (
	"sort"
	"time"

	"github.com/coda-repro/coda/internal/cluster"
	"github.com/coda-repro/coda/internal/job"
	"github.com/coda-repro/coda/internal/membw"
)

// Env is the cluster-control surface a scheduler acts through. The
// simulator implements it; every mutation flows through Env so the
// simulator can keep job progress, bandwidth accounting and metrics
// consistent.
type Env interface {
	// Now returns the current virtual time.
	Now() time.Duration
	// Cluster exposes resource occupancy for placement queries. Schedulers
	// must mutate it only through StartJob/ResizeJob/PreemptJob.
	Cluster() *cluster.Cluster
	// Meter returns the MBM meter of one node for contention monitoring.
	Meter(nodeID int) (*membw.Meter, error)
	// StartJob places a pending job onto the cluster and starts it.
	StartJob(id job.ID, alloc job.Allocation) error
	// ResizeJob changes a running job's per-node core count.
	ResizeJob(id job.ID, coresPerNode int) error
	// PreemptJob aborts a running CPU job, releasing its resources, and
	// returns a clone carrying the remaining work. The scheduler decides
	// where to requeue it (CODA puts it at the array head, §V-C).
	PreemptJob(id job.ID) (*job.Job, error)
	// ThrottleJob applies an MBA bandwidth cap to a running CPU job.
	ThrottleJob(id job.ID, capGBs float64) error
	// UnthrottleJob removes a job's bandwidth cap.
	UnthrottleJob(id job.ID) error
	// GPUUtil returns the currently observed GPU utilization of a running
	// training job, including measurement noise — the only performance
	// signal CODA's allocator gets (§V-B).
	GPUUtil(id job.ID) (float64, error)
}

// Scheduler is a cluster scheduling policy.
type Scheduler interface {
	// Name identifies the policy in reports.
	Name() string
	// Bind attaches the environment; called once before any other method.
	Bind(env Env)
	// Submit enqueues a job. The simulator submits a job for the first
	// time exactly at its Arrival, and again only as a fault-killed
	// retry, at least one positive backoff after the kill, so strictly
	// after its Arrival: a scheduler tells the two apart by comparing
	// Arrival with Env.Now. A job a scheduler preempts through
	// Env.PreemptJob is never resubmitted; the scheduler requeues the
	// returned clone itself.
	Submit(j *job.Job)
	// OnJobCompleted notifies that a job finished and its resources were
	// already released.
	OnJobCompleted(j *job.Job)
	// OnJobKilled notifies that a running job was killed by a fault (node
	// crash or injected failure), or stopped by a cancel, and its
	// resources were already released. The scheduler must drop every
	// bookkeeping entry for the job; if a killed job has retry budget
	// left, the simulator re-Submits a fresh clone after its backoff
	// expires.
	OnJobKilled(j *job.Job)
	// Tick runs periodic policy work (scheduling passes, profiling steps,
	// contention checks). The simulator calls it after every arrival and
	// completion batch and on a fixed cadence.
	Tick()
}

// Canceller is the optional interface a scheduler implements to support
// cancelling a job that is still queued (the control plane's DELETE
// /v1/jobs). The job was never started, so no resources need releasing —
// the scheduler must only drop the job from its queue bookkeeping. Running
// jobs are cancelled through the ordinary OnJobKilled path instead.
type Canceller interface {
	// OnJobCancelled removes a still-queued job from the scheduler's queue.
	OnJobCancelled(j *job.Job)
}

// ExcludeSet is a reusable sorted set of node IDs excluded from placement
// (nodes reserved for other queued jobs). The zero value and nil are empty
// sets; Reset keeps the backing array so a scheduler reuses one set across
// passes without allocating.
type ExcludeSet struct {
	ids []int
}

// Reset empties the set, keeping its capacity for the next pass.
func (s *ExcludeSet) Reset() { s.ids = s.ids[:0] }

// Add inserts a node ID, keeping the set sorted; duplicates are ignored.
func (s *ExcludeSet) Add(id int) {
	i := sort.SearchInts(s.ids, id)
	if i < len(s.ids) && s.ids[i] == id {
		return
	}
	s.ids = append(s.ids, 0)
	copy(s.ids[i+1:], s.ids[i:])
	s.ids[i] = id
}

// Contains reports whether id is in the set; a nil set is empty.
func (s *ExcludeSet) Contains(id int) bool {
	if s == nil {
		return false
	}
	i := sort.SearchInts(s.ids, id)
	return i < len(s.ids) && s.ids[i] == id
}

// IDs returns the sorted excluded IDs; callers must not mutate them.
func (s *ExcludeSet) IDs() []int {
	if s == nil {
		return nil
	}
	return s.ids
}

// PlaceRequest finds nodes for a resource request, first-fit: the
// lowest-ID req.Nodes nodes outside excluded (nodes reserved for other
// queued jobs; nil excludes nothing) that each fit req.CPUCores cores and
// the per-node GPU share. The returned allocation is not yet applied.
//
// It answers from the cluster's first-fit scan alone, in two passes. The
// first counts the fitting nodes outside excluded and stops at req.Nodes,
// so a failed probe visits at most req.Nodes-1 fitting nodes plus the
// excluded ones, O(log n) each, and allocates nothing. Only a probe that
// found enough collects them, allocating just the returned NodeIDs slice.
func PlaceRequest(c *cluster.Cluster, req job.Request, excluded *ExcludeSet) (job.Allocation, bool) {
	c.NotePlacementQuery()
	gpus := req.GPUsPerNode()
	fits := 0
	c.ScanPlaceable(req.CPUCores, gpus, func(n *cluster.Node) bool {
		if !excluded.Contains(n.ID) {
			fits++
		}
		return fits < req.Nodes
	})
	if fits < req.Nodes {
		return job.Allocation{}, false
	}
	nodes := make([]int, 0, req.Nodes)
	if req.Nodes > 0 {
		c.ScanPlaceable(req.CPUCores, gpus, func(n *cluster.Node) bool {
			if !excluded.Contains(n.ID) {
				nodes = append(nodes, n.ID)
			}
			return len(nodes) < req.Nodes
		})
	}
	return job.Allocation{
		NodeIDs:  nodes,
		CPUCores: req.CPUCores,
		GPUs:     gpus,
	}, true
}

// failedSet prunes placement scans: once a request fails to place in a
// pass, any request that dominates it (needs at least as many per-node
// cores, per-node GPUs and nodes) cannot place either and is skipped
// without touching the cluster. Keeps long queues scannable at month
// scale.
type failedSet struct {
	entries []job.Request
}

// dominates reports whether request a needs at least as much of every
// dimension as b.
func dominates(a, b job.Request) bool {
	return a.CPUCores >= b.CPUCores &&
		a.GPUsPerNode() >= b.GPUsPerNode() &&
		a.Nodes >= b.Nodes
}

// covered reports whether req is doomed given the recorded failures.
func (f *failedSet) covered(req job.Request) bool {
	for _, e := range f.entries {
		if dominates(req, e) {
			return true
		}
	}
	return false
}

// reset empties the set for a new pass, keeping its capacity.
func (f *failedSet) reset() { f.entries = f.entries[:0] }

// add records a failed request, keeping only minimal elements.
func (f *failedSet) add(req job.Request) {
	kept := f.entries[:0]
	for _, e := range f.entries {
		if dominates(e, req) {
			continue // req is smaller: e is now redundant
		}
		kept = append(kept, e)
	}
	f.entries = append(kept, req)
}

// ReserveNodes picks nodes to hold for an unplaceable job, SLURM-backfill
// style: the job's per-node share will soonest fit on the nodes with the
// most free GPUs (and enough total GPUs), so those are held idle until the
// job starts. Already-excluded nodes are skipped. Returns nil when fewer
// than req.Nodes nodes could ever host the share.
//
// One pass over the nodes in ID order keeps the req.Nodes best so far,
// ordered by free GPUs (descending), then free cores (descending), then ID
// (ascending): a node that ties a held node arrives later and goes after
// it. Nothing is sorted, and the only allocation is the held slice, at
// most the cluster's size.
func ReserveNodes(c *cluster.Cluster, req job.Request, excluded *ExcludeSet) []int {
	c.NotePlacementQuery()
	if req.Nodes > c.Size() {
		return nil // more nodes than the cluster has can never qualify
	}
	gpus := req.GPUsPerNode()
	// The hold is about total node shape, not current occupancy: a node
	// that can never host the share is no hold at all.
	shaped := func(n *cluster.Node) bool { return n.GPUs >= gpus && n.Cores >= req.CPUCores }
	// Excluded nodes are discounted up front, so the pass searches the set
	// only for nodes that would enter the holds.
	qualified := 0
	for _, id := range excluded.IDs() {
		if n, err := c.Node(id); err == nil && shaped(n) {
			qualified--
		}
	}
	held := make([]int, 0, req.Nodes)
	node := func(id int) *cluster.Node { n, _ := c.Node(id); return n }
	c.EachNode(func(n *cluster.Node) bool {
		if !shaped(n) {
			return true
		}
		qualified++
		i := len(held)
		for i > 0 && freeBefore(n, node(held[i-1])) {
			i--
		}
		if i == req.Nodes || excluded.Contains(n.ID) {
			return true
		}
		if len(held) < req.Nodes {
			held = held[:len(held)+1]
		}
		copy(held[i+1:], held[i:])
		held[i] = n.ID
		return true
	})
	if qualified < req.Nodes {
		return nil
	}
	return held
}

// freeBefore reports whether node a ranks before node b for a hold: more
// free GPUs, then more free cores.
func freeBefore(a, b *cluster.Node) bool {
	if ag, bg := a.FreeGPUs(), b.FreeGPUs(); ag != bg {
		return ag > bg
	}
	return a.FreeCores() > b.FreeCores()
}
