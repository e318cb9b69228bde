package sched

import (
	"fmt"

	"github.com/coda-repro/coda/internal/fair"
	"github.com/coda-repro/coda/internal/job"
)

// DRF is the dominant-resource-fairness baseline: per-tenant FIFO queues
// served in ascending dominant-share order. Following the paper's
// evaluation setup, GPU is treated as the dominant resource ("With DRF, we
// consider GPU as the dominant resource and enforce that the tenants fairly
// share the dominant resource", §VI-A). Each tenant's queue has
// head-of-line blocking, but a blocked tenant does not block others.
type DRF struct {
	env        Env
	accountant *fair.Accountant
	queues     TenantQueues
	// ReserveDepth mirrors FIFO's backfill-style reservations: each
	// blocked tenant's earliest unplaceable GPU job holds nodes.
	ReserveDepth int

	// reserved and failed are per-pass scratch, as FIFO's, reused across
	// drains so a pass allocates nothing.
	reserved ExcludeSet
	failed   failedSet
}

var (
	_ Scheduler = (*DRF)(nil)
	_ Canceller = (*DRF)(nil)
)

// NewDRF builds the DRF baseline for a cluster with the given totals.
func NewDRF(totalCPU, totalGPU int) (*DRF, error) {
	acc, err := fair.NewAccountant(
		fair.Resources{CPU: float64(totalCPU), GPU: float64(totalGPU)},
		fair.DominantGPU,
	)
	if err != nil {
		return nil, err
	}
	return &DRF{accountant: acc}, nil
}

// Name implements Scheduler.
func (d *DRF) Name() string { return "drf" }

// Bind implements Scheduler.
func (d *DRF) Bind(env Env) { d.env = env }

// Submit implements Scheduler.
func (d *DRF) Submit(j *job.Job) {
	d.queues.PushBack(j)
	d.drain()
}

// OnJobCompleted implements Scheduler.
func (d *DRF) OnJobCompleted(j *job.Job) {
	// Refund ignores jobs the accountant never charged (e.g. requeues).
	_ = d.accountant.Refund(j.ID)
	d.drain()
}

// OnJobKilled implements Scheduler: a fault-killed job stops consuming its
// tenant's dominant share exactly like a completion.
func (d *DRF) OnJobKilled(j *job.Job) {
	_ = d.accountant.Refund(j.ID)
	d.drain()
}

// OnJobCancelled implements Canceller: the queued job is removed and a pass
// runs, as FIFO's does, because nodes the job would have reserved may now
// start other tenants' jobs.
func (d *DRF) OnJobCancelled(j *job.Job) {
	d.queues.Remove(j)
	d.drain()
}

// Tick implements Scheduler.
func (d *DRF) Tick() { d.drain() }

// drain performs progressive filling: the poorest tenant starts its
// earliest job that fits, and a tenant with nothing placeable is set aside
// for this pass. Like the production SLURM setup, an unplaceable job does
// not block later arrivals of the same tenant (§VI-C shows CPU jobs
// starting within seconds under both baselines).
func (d *DRF) drain() {
	d.reserved.Reset()
	reservations := 0
	d.queues.Fill(d.accountant, func(q *JobQueue) bool {
		if d.startFirstFitting(q) {
			return true
		}
		// Backfill-style hold for the blocked tenant's earliest GPU job.
		if reservations < d.ReserveDepth {
			if head := firstGPUJob(q); head != nil {
				for _, nid := range ReserveNodes(d.env.Cluster(), head.Request, &d.reserved) {
					d.reserved.Add(nid)
				}
				reservations++
			}
		}
		return false
	})
}

// firstGPUJob returns the earliest GPU job in q, nil if none.
func firstGPUJob(q *JobQueue) *job.Job {
	for i := 0; i < q.Len(); i++ {
		if j := q.At(i); j.IsGPU() {
			return j
		}
	}
	return nil
}

// startFirstFitting starts the earliest job in q that fits outside the
// reserved nodes; false if none.
func (d *DRF) startFirstFitting(q *JobQueue) bool {
	d.failed.reset()
	for i := 0; i < q.Len(); i++ {
		j := q.At(i)
		if d.failed.covered(j.Request) {
			continue
		}
		alloc, found := PlaceRequest(d.env.Cluster(), j.Request, &d.reserved)
		if !found {
			d.failed.add(j.Request)
			continue
		}
		if err := d.env.StartJob(j.ID, alloc); err != nil {
			continue
		}
		// Accounting failure must not wedge the queue; the job runs.
		_ = d.accountant.Charge(j.ID, j.Tenant, fair.Resources{
			CPU: float64(alloc.TotalCPUCores()),
			GPU: float64(alloc.TotalGPUs()),
		})
		q.Remove(i)
		return true
	}
	return false
}

// CheckInvariants verifies that the tenant queues are in strictly
// ascending tenant order and that the accountant's per-job ledger sums to
// its per-tenant usage.
func (d *DRF) CheckInvariants() error {
	if err := d.queues.CheckInvariants(nil); err != nil {
		return fmt.Errorf("drf: %w", err)
	}
	return d.accountant.CheckInvariants()
}
