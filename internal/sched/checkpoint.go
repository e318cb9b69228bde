package sched

import (
	"container/list"
	"encoding/json"
	"fmt"
	"sort"

	"github.com/coda-repro/coda/internal/fair"
	"github.com/coda-repro/coda/internal/job"
)

// Checkpointer is the optional interface a scheduler implements to survive
// controller death: CheckpointState serializes everything the scheduler
// would need to continue bit-identically, and RestoreCheckpoint fills a
// freshly constructed scheduler (same construction parameters) with that
// state before Bind. Every scheduler in this repo implements it.
type Checkpointer interface {
	// CheckpointState returns an opaque serialized form of the scheduler's
	// mutable state.
	CheckpointState() ([]byte, error)
	// RestoreCheckpoint fills a freshly built scheduler with previously
	// checkpointed state. It must be called before Bind.
	RestoreCheckpoint(data []byte) error
}

var (
	_ Checkpointer = (*FIFO)(nil)
	_ Checkpointer = (*DRF)(nil)
	_ Checkpointer = (*Static)(nil)
)

// queueJobs copies a queue's jobs in order.
func queueJobs(q *list.List) []job.Job {
	out := make([]job.Job, 0, q.Len())
	for elem := q.Front(); elem != nil; elem = elem.Next() {
		if j, ok := elem.Value.(*job.Job); ok {
			out = append(out, *j)
		}
	}
	return out
}

// fillQueue rebuilds a queue from serialized jobs.
func fillQueue(q *list.List, jobs []job.Job) {
	for i := range jobs {
		j := jobs[i]
		q.PushBack(&j)
	}
}

type fifoState struct {
	Jobs         []job.Job
	ReserveDepth int
}

// CheckpointState implements Checkpointer. Jobs serialize in arrival
// order regardless of the shape-queue layout, so the bytes match the
// former flat-list representation; seq numbers are reassigned on restore
// (only their relative order matters).
func (f *FIFO) CheckpointState() ([]byte, error) {
	jobs := make([]job.Job, 0, f.size)
	for _, e := range f.entriesInOrder() {
		jobs = append(jobs, *e.j)
	}
	return json.Marshal(fifoState{Jobs: jobs, ReserveDepth: f.ReserveDepth})
}

// RestoreCheckpoint implements Checkpointer.
func (f *FIFO) RestoreCheckpoint(data []byte) error {
	var st fifoState
	if err := json.Unmarshal(data, &st); err != nil {
		return fmt.Errorf("fifo: restore: %w", err)
	}
	if f.size != 0 {
		return fmt.Errorf("fifo: restore into a non-empty scheduler")
	}
	for i := range st.Jobs {
		j := st.Jobs[i]
		f.enqueue(&j)
	}
	f.ReserveDepth = st.ReserveDepth
	return nil
}

type drfTenantQueue struct {
	Tenant job.TenantID
	Jobs   []job.Job
}

type drfState struct {
	Queues       []drfTenantQueue
	Accountant   fair.State
	ReserveDepth int
}

// CheckpointState implements Checkpointer.
func (d *DRF) CheckpointState() ([]byte, error) {
	st := drfState{Accountant: d.accountant.CheckpointState(), ReserveDepth: d.ReserveDepth}
	//coda:ordered-ok entries are sorted below before serialization
	for t, q := range d.queues {
		st.Queues = append(st.Queues, drfTenantQueue{Tenant: t, Jobs: queueJobs(q)})
	}
	sort.Slice(st.Queues, func(i, j int) bool { return st.Queues[i].Tenant < st.Queues[j].Tenant })
	return json.Marshal(st)
}

// RestoreCheckpoint implements Checkpointer.
func (d *DRF) RestoreCheckpoint(data []byte) error {
	var st drfState
	if err := json.Unmarshal(data, &st); err != nil {
		return fmt.Errorf("drf: restore: %w", err)
	}
	if len(d.queues) != 0 {
		return fmt.Errorf("drf: restore into a non-empty scheduler")
	}
	for _, tq := range st.Queues {
		if _, dup := d.queues[tq.Tenant]; dup {
			return fmt.Errorf("drf: duplicate tenant %d in checkpoint", tq.Tenant)
		}
		q := list.New()
		fillQueue(q, tq.Jobs)
		d.queues[tq.Tenant] = q
	}
	if err := d.accountant.RestoreCheckpointState(st.Accountant); err != nil {
		return fmt.Errorf("drf: restore: %w", err)
	}
	d.ReserveDepth = st.ReserveDepth
	return nil
}

type staticState struct {
	Jobs []job.Job
}

// CheckpointState implements Checkpointer. coresPerGPU is derived from the
// construction parameters and is not serialized.
func (s *Static) CheckpointState() ([]byte, error) {
	return json.Marshal(staticState{Jobs: queueJobs(s.queue)})
}

// RestoreCheckpoint implements Checkpointer.
func (s *Static) RestoreCheckpoint(data []byte) error {
	var st staticState
	if err := json.Unmarshal(data, &st); err != nil {
		return fmt.Errorf("static: restore: %w", err)
	}
	if s.queue.Len() != 0 {
		return fmt.Errorf("static: restore into a non-empty scheduler")
	}
	fillQueue(s.queue, st.Jobs)
	return nil
}
