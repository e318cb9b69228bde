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
	// Submit enqueues a newly arrived (or requeued preempted) job.
	Submit(j *job.Job)
	// OnJobCompleted notifies that a job finished and its resources were
	// already released.
	OnJobCompleted(j *job.Job)
	// OnJobKilled notifies that a running job was killed by a fault (node
	// crash or injected failure) and its resources were already released.
	// The scheduler must drop every bookkeeping entry for the job; if the
	// job has retry budget left, the simulator re-Submits a fresh clone
	// after its backoff expires.
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

// PlaceRequest finds nodes for a resource request, first-fit: the
// lowest-ID req.Nodes nodes that each fit req.CPUCores cores (per node)
// and the per-node GPU share. The returned allocation is not yet applied.
func PlaceRequest(c *cluster.Cluster, req job.Request) (job.Allocation, bool) {
	return PlaceRequestExcluding(c, req, nil)
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

// Len returns the number of excluded IDs; a nil set is empty.
func (s *ExcludeSet) Len() int {
	if s == nil {
		return 0
	}
	return len(s.ids)
}

// IDs returns the sorted excluded IDs; callers must not mutate them.
func (s *ExcludeSet) IDs() []int {
	if s == nil {
		return nil
	}
	return s.ids
}

// PlaceRequestExcluding is PlaceRequest with a set of excluded node IDs
// (nodes reserved for other queued jobs). It answers through the cluster's
// free-capacity index: a failed probe allocates nothing, and a successful
// one allocates only the returned NodeIDs slice.
func PlaceRequestExcluding(c *cluster.Cluster, req job.Request, excluded *ExcludeSet) (job.Allocation, bool) {
	c.NotePlacementQuery()
	gpus := req.GPUsPerNode()
	count := c.CountPlaceable(req.CPUCores, gpus)
	for _, id := range excluded.IDs() {
		if n, err := c.Node(id); err == nil && n.Fits(req.CPUCores, gpus) {
			count--
		}
	}
	if count < req.Nodes {
		return job.Allocation{}, false
	}
	nodes := make([]int, 0, req.Nodes)
	if req.Nodes > 0 {
		c.ScanPlaceable(req.CPUCores, gpus, func(n *cluster.Node) bool {
			if excluded.Contains(n.ID) {
				return true
			}
			nodes = append(nodes, n.ID)
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
// job starts. Already-excluded nodes are skipped. Returns nil when no node
// is a sensible hold (e.g. the request exceeds every node's shape).
func ReserveNodes(c *cluster.Cluster, req job.Request, excluded *ExcludeSet) []int {
	c.NotePlacementQuery()
	gpus := req.GPUsPerNode()
	qualifies := func(n *cluster.Node) bool {
		// The hold is about total node shape, not current occupancy: a
		// node that can never host the share is no hold at all.
		return !excluded.Contains(n.ID) && n.GPUs >= gpus && n.Cores >= req.CPUCores
	}
	// The cluster's static shape table answers "how many nodes could ever
	// host this share" in O(1); only the (small, bounded) exclusion set
	// needs individual re-checks.
	count := c.CountShaped(req.CPUCores, gpus)
	for _, id := range excluded.IDs() {
		if n, err := c.Node(id); err == nil && n.GPUs >= gpus && n.Cores >= req.CPUCores {
			count--
		}
	}
	if count < req.Nodes {
		return nil
	}
	// ScanFreeDesc yields (FreeGPUs desc, FreeCores desc, ID asc) — the
	// exact order the old implementation sorted its candidates into.
	nodes := make([]int, 0, req.Nodes)
	if req.Nodes > 0 {
		c.ScanFreeDesc(func(n *cluster.Node) bool {
			if !qualifies(n) {
				return true
			}
			nodes = append(nodes, n.ID)
			return len(nodes) < req.Nodes
		})
	}
	return nodes
}
