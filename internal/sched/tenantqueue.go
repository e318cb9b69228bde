package sched

import (
	"cmp"
	"fmt"
	"slices"

	"github.com/coda-repro/coda/internal/fair"
	"github.com/coda-repro/coda/internal/job"
)

// JobQueue is a FIFO of jobs that also takes requeues at its head. The
// zero value is an empty queue.
type JobQueue struct {
	// jobs[head:] are the queued jobs, front first. The slots before head
	// are zeroed; PushFront reuses them and PushBack reclaims them.
	jobs []*job.Job
	head int
}

// Len returns the number of queued jobs.
func (q *JobQueue) Len() int { return len(q.jobs) - q.head }

// At returns the i-th job from the front.
func (q *JobQueue) At(i int) *job.Job { return q.jobs[q.head+i] }

// PushBack appends j. When the backing array is full and at least half of
// it is popped slots, the queued jobs move to its start instead of
// growing it, so a queue that never empties stays O(Len) in size.
func (q *JobQueue) PushBack(j *job.Job) {
	if len(q.jobs) == cap(q.jobs) && q.head > 0 && 2*q.head >= len(q.jobs) {
		n := copy(q.jobs, q.jobs[q.head:])
		clear(q.jobs[n:])
		q.jobs, q.head = q.jobs[:n], 0
	}
	q.jobs = append(q.jobs, j)
}

// PushFront puts j at the head.
func (q *JobQueue) PushFront(j *job.Job) {
	if q.head > 0 {
		q.head--
		q.jobs[q.head] = j
		return
	}
	q.jobs = slices.Insert(q.jobs, 0, j)
}

// Remove deletes the i-th job from the front and keeps the others in
// order, moving whichever side of it is shorter: removing the head is
// O(1).
func (q *JobQueue) Remove(i int) {
	p := q.head + i
	if i < q.Len()/2 {
		copy(q.jobs[q.head+1:p+1], q.jobs[q.head:p])
		q.jobs[q.head] = nil
		q.head++
	} else {
		copy(q.jobs[p:], q.jobs[p+1:])
		q.jobs[len(q.jobs)-1] = nil
		q.jobs = q.jobs[:len(q.jobs)-1]
	}
	if q.head == len(q.jobs) {
		q.jobs, q.head = q.jobs[:0], 0
	}
}

// copies returns a copy of each queued job, front first, for a
// checkpoint.
func (q *JobQueue) copies() []job.Job {
	out := make([]job.Job, 0, q.Len())
	for i := 0; i < q.Len(); i++ {
		out = append(out, *q.At(i))
	}
	return out
}

// pushCopies appends a copy of each of jobs, restoring a checkpoint.
func (q *JobQueue) pushCopies(jobs []job.Job) {
	for i := range jobs {
		j := jobs[i]
		q.PushBack(&j)
	}
}

// TenantQueues holds one JobQueue per tenant, sorted by tenant ID: the
// per-tenant queues DRF and both of CODA's arrays fill fairly. A tenant's
// entry is created on its first enqueue and kept, empty or not, so every
// walk is in tenant order without collecting or sorting, and a lookup is
// a binary search. The zero value is an empty set.
type TenantQueues struct {
	entries []*tenantQueue
	// cands backs pendingTenants, reused so a pass allocates nothing.
	cands []job.TenantID
}

// tenantQueue is one tenant's entry; refused marks a tenant whose try
// started nothing in the current Fill pass.
type tenantQueue struct {
	tenant  job.TenantID
	jobs    JobQueue
	refused bool
}

// search returns where tenant t's entry is or would be inserted, and
// whether it is there.
func (qs *TenantQueues) search(t job.TenantID) (int, bool) {
	return slices.BinarySearchFunc(qs.entries, t, func(e *tenantQueue, t job.TenantID) int {
		return cmp.Compare(e.tenant, t)
	})
}

// queue returns tenant t's queue, inserting an empty one in tenant order
// on first use.
func (qs *TenantQueues) queue(t job.TenantID) *JobQueue {
	i, ok := qs.search(t)
	if !ok {
		qs.entries = slices.Insert(qs.entries, i, &tenantQueue{tenant: t})
	}
	return &qs.entries[i].jobs
}

// PushBack enqueues j at the tail of its tenant's queue.
func (qs *TenantQueues) PushBack(j *job.Job) { qs.queue(j.Tenant).PushBack(j) }

// PushFront requeues j at the head of its tenant's queue.
func (qs *TenantQueues) PushFront(j *job.Job) { qs.queue(j.Tenant).PushFront(j) }

// Remove deletes j from its tenant's queue, reporting whether it was
// queued there.
func (qs *TenantQueues) Remove(j *job.Job) bool {
	i, ok := qs.search(j.Tenant)
	if !ok {
		return false
	}
	q := &qs.entries[i].jobs
	for k := 0; k < q.Len(); k++ {
		if q.At(k).ID == j.ID {
			q.Remove(k)
			return true
		}
	}
	return false
}

// Len returns the number of queued jobs over all tenants.
func (qs *TenantQueues) Len() int {
	n := 0
	for _, e := range qs.entries {
		n += e.jobs.Len()
	}
	return n
}

// Fill runs one progressive-filling pass of dominant resource fairness.
// It repeatedly offers try the queue of the tenant with the lowest
// dominant share in acc, ties broken by the lower tenant ID, among the
// tenants with queued jobs that have not refused in this pass. A tenant
// whose try returns false (it started nothing) sits out the rest of the
// pass; the pass ends when no tenant is left. try may enqueue into any
// set, this one included.
func (qs *TenantQueues) Fill(acc *fair.Accountant, try func(q *JobQueue) bool) {
	for _, e := range qs.entries {
		e.refused = false
	}
	for {
		t, ok := acc.PoorestTenant(qs.pendingTenants())
		if !ok {
			return
		}
		i, _ := qs.search(t)
		if e := qs.entries[i]; !try(&e.jobs) {
			e.refused = true
		}
	}
}

// pendingTenants lists, in tenant order, the tenants with queued jobs that
// have not refused in this pass. The list is the reused cands scratch,
// valid until the next call.
func (qs *TenantQueues) pendingTenants() []job.TenantID {
	cands := qs.cands[:0]
	for _, e := range qs.entries {
		if !e.refused && e.jobs.Len() > 0 {
			cands = append(cands, e.tenant)
		}
	}
	qs.cands = cands
	return cands
}

// CheckInvariants verifies that the entries are in strictly ascending
// tenant order, so no tenant is repeated, and runs check, when not nil, on
// every queued job.
func (qs *TenantQueues) CheckInvariants(check func(*job.Job) error) error {
	for i, e := range qs.entries {
		if i > 0 && e.tenant <= qs.entries[i-1].tenant {
			return fmt.Errorf("tenant queue %d follows tenant queue %d; want strictly ascending tenants",
				e.tenant, qs.entries[i-1].tenant)
		}
		if check == nil {
			continue
		}
		for k := 0; k < e.jobs.Len(); k++ {
			if err := check(e.jobs.At(k)); err != nil {
				return err
			}
		}
	}
	return nil
}

// TenantQueueState is one tenant's queue in a checkpoint, front first.
type TenantQueueState struct {
	Tenant job.TenantID
	Jobs   []job.Job
}

// CheckpointState returns every tenant's queue in tenant order, empty
// queues included.
func (qs *TenantQueues) CheckpointState() []TenantQueueState {
	out := make([]TenantQueueState, 0, len(qs.entries))
	for _, e := range qs.entries {
		out = append(out, TenantQueueState{Tenant: e.tenant, Jobs: e.jobs.copies()})
	}
	return out
}

// RestoreCheckpointState appends the checkpointed queues to the set in
// list order, without sorting them: the owner's audit, which both
// schedulers' restores run last, rejects a list that is not strictly
// ascending, a repeated tenant included.
func (qs *TenantQueues) RestoreCheckpointState(states []TenantQueueState) {
	for _, st := range states {
		e := &tenantQueue{tenant: st.Tenant}
		e.jobs.pushCopies(st.Jobs)
		qs.entries = append(qs.entries, e)
	}
}
