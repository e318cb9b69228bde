package sched

import (
	"encoding/json"
	"fmt"

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

type drfState struct {
	Queues       []TenantQueueState
	Accountant   fair.State
	ReserveDepth int
}

// CheckpointState implements Checkpointer.
func (d *DRF) CheckpointState() ([]byte, error) {
	return json.Marshal(drfState{
		Queues:       d.queues.CheckpointState(),
		Accountant:   d.accountant.CheckpointState(),
		ReserveDepth: d.ReserveDepth,
	})
}

// RestoreCheckpoint implements Checkpointer. The closing audit rejects
// tenant queues that are not in strictly ascending tenant order, a
// repeated tenant included.
func (d *DRF) RestoreCheckpoint(data []byte) error {
	var st drfState
	if err := json.Unmarshal(data, &st); err != nil {
		return fmt.Errorf("drf: restore: %w", err)
	}
	if d.queues.Len() != 0 {
		return fmt.Errorf("drf: restore into a non-empty scheduler")
	}
	d.queues.RestoreCheckpointState(st.Queues)
	if err := d.accountant.RestoreCheckpointState(st.Accountant); err != nil {
		return fmt.Errorf("drf: restore: %w", err)
	}
	d.ReserveDepth = st.ReserveDepth
	if err := d.CheckInvariants(); err != nil {
		return fmt.Errorf("drf: restored state fails invariants: %w", err)
	}
	return nil
}

type staticState struct {
	Jobs []job.Job
}

// CheckpointState implements Checkpointer. coresPerGPU is derived from the
// construction parameters and is not serialized.
func (s *Static) CheckpointState() ([]byte, error) {
	return json.Marshal(staticState{Jobs: s.queue.copies()})
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
	s.queue.pushCopies(st.Jobs)
	return nil
}
