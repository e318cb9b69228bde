package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
	"time"

	"github.com/coda-repro/coda/internal/fair"
	"github.com/coda-repro/coda/internal/history"
	"github.com/coda-repro/coda/internal/job"
	"github.com/coda-repro/coda/internal/sched"
)

// Checkpoint/restore for the full CODA scheduler: history log, multi-array
// ledgers and queues, per-node budget draws, allocator search state, and
// eliminator interventions. Construction parameters (Config, cluster shape)
// are not serialized — the caller rebuilds the scheduler with the same
// parameters and then restores. Restore deliberately does NOT call
// SetHistory: that path runs Rebalance, which would recompute reserves and
// sub-array splits, while the checkpoint carries them verbatim (the live run
// may have rebalanced mid-stream and a resumed run must continue
// bit-identically, not re-derive).

var _ sched.Checkpointer = (*Scheduler)(nil)

type drawState struct {
	Job         job.ID
	FromReserve int
	FromShared  int
}

type budgetState struct {
	Reserve  int
	GPUDraws []drawState
	CPUDraws []drawState
}

type desiredState struct {
	Job   job.ID
	Cores int
}

type runState struct {
	Job   job.Job
	Alloc job.Allocation
}

type multiArrayState struct {
	Budgets   []budgetState
	FourG     []int
	OneG      []int
	CPUAcc    fair.State
	GPUAcc    fair.State
	CPUQueues []sched.TenantQueueState
	GPUQueues []sched.TenantQueueState
	Desired   []desiredState
	Running   []runState
}

type tuneStateSer struct {
	Job       job.Job
	BestCores int
	BestUtil  float64
	CurCores  int
	Step      int
	Phase     int
	StepsUsed int
	NextCheck time.Duration
}

type settledState struct {
	Job  job.ID
	Info settleInfo
}

type allocatorState struct {
	Tuning  []tuneStateSer
	Settled []settledState
}

type interventionState struct {
	Job       job.ID
	OrigCores int
}

type eliminatorState struct {
	Throttled []interventionState
	NextCheck time.Duration
}

type schedulerState struct {
	History json.RawMessage
	Done    int
	Arrays  multiArrayState
	Alloc   allocatorState
	// Elim is nil when the eliminator is disabled; restore enforces that the
	// rebuilt scheduler's configuration matches.
	Elim *eliminatorState
}

func sortedDraws(m map[job.ID]draw) []drawState {
	out := make([]drawState, 0, len(m))
	//coda:ordered-ok entries are sorted below before serialization
	for id, d := range m {
		out = append(out, drawState{Job: id, FromReserve: d.fromReserve, FromShared: d.fromShared})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Job < out[j].Job })
	return out
}

// CheckpointState implements sched.Checkpointer.
func (s *Scheduler) CheckpointState() ([]byte, error) {
	var hist bytes.Buffer
	if err := s.log.Save(&hist); err != nil {
		return nil, fmt.Errorf("coda: checkpoint history: %w", err)
	}
	st := schedulerState{
		History: json.RawMessage(hist.Bytes()),
		Done:    s.done,
	}

	m := s.arrays
	st.Arrays = multiArrayState{
		Budgets:   make([]budgetState, len(m.budgets)),
		FourG:     nodeRange(0, m.fourGNodes),
		OneG:      nodeRange(m.fourGNodes, m.gpuNodes),
		CPUAcc:    m.cpuAcc.CheckpointState(),
		GPUAcc:    m.gpuAcc.CheckpointState(),
		CPUQueues: m.cpuQueues.CheckpointState(),
		GPUQueues: m.gpuQueues.CheckpointState(),
	}
	for i, b := range m.budgets {
		st.Arrays.Budgets[i] = budgetState{
			Reserve:  b.reserve,
			GPUDraws: sortedDraws(b.gpuDraws),
			CPUDraws: sortedDraws(b.cpuDraws),
		}
	}
	//coda:ordered-ok entries are sorted below before serialization
	for id, cores := range m.desired {
		st.Arrays.Desired = append(st.Arrays.Desired, desiredState{Job: id, Cores: cores})
	}
	sort.Slice(st.Arrays.Desired, func(i, j int) bool { return st.Arrays.Desired[i].Job < st.Arrays.Desired[j].Job })
	//coda:ordered-ok entries are sorted below before serialization
	for _, info := range m.running {
		st.Arrays.Running = append(st.Arrays.Running, runState{Job: *info.j, Alloc: info.alloc.Clone()})
	}
	sort.Slice(st.Arrays.Running, func(i, j int) bool { return st.Arrays.Running[i].Job.ID < st.Arrays.Running[j].Job.ID })

	a := s.alloc
	//coda:ordered-ok entries are sorted below before serialization
	for _, ts := range a.tuning {
		st.Alloc.Tuning = append(st.Alloc.Tuning, tuneStateSer{
			Job: *ts.j, BestCores: ts.bestCores, BestUtil: ts.bestUtil,
			CurCores: ts.curCores, Step: ts.step, Phase: int(ts.phase),
			StepsUsed: ts.stepsUsed, NextCheck: ts.nextCheck,
		})
	}
	sort.Slice(st.Alloc.Tuning, func(i, j int) bool { return st.Alloc.Tuning[i].Job.ID < st.Alloc.Tuning[j].Job.ID })
	//coda:ordered-ok entries are sorted below before serialization
	for id, info := range a.settled {
		st.Alloc.Settled = append(st.Alloc.Settled, settledState{Job: id, Info: info})
	}
	sort.Slice(st.Alloc.Settled, func(i, j int) bool { return st.Alloc.Settled[i].Job < st.Alloc.Settled[j].Job })

	if s.elim != nil {
		es := &eliminatorState{NextCheck: s.elim.nextCheck}
		for i, id := range s.elim.throttled.ids {
			es.Throttled = append(es.Throttled, interventionState{Job: id, OrigCores: s.elim.throttled.origCores[i]})
		}
		st.Elim = es
	}
	return json.Marshal(st)
}

// RestoreCheckpoint implements sched.Checkpointer. The scheduler must be
// freshly built with the same Config and cluster shape as the checkpointed
// one, and not yet bound or submitted to.
func (s *Scheduler) RestoreCheckpoint(data []byte) error {
	var st schedulerState
	if err := json.Unmarshal(data, &st); err != nil {
		return fmt.Errorf("coda: restore: %w", err)
	}
	if m := s.arrays; s.done != 0 || len(m.running) != 0 || m.cpuQueues.Len()+m.gpuQueues.Len() != 0 {
		return fmt.Errorf("coda: restore into a non-fresh scheduler")
	}
	if (s.elim == nil) != (st.Elim == nil) {
		return fmt.Errorf("coda: eliminator configuration mismatch (checkpoint has one: %v, scheduler has one: %v)",
			st.Elim != nil, s.elim != nil)
	}

	log, err := history.Load(bytes.NewReader(st.History))
	if err != nil {
		return fmt.Errorf("coda: restore history: %w", err)
	}
	// Direct assignment, not SetHistory: Rebalance must not run, the budget
	// reserves and sub-array splits are restored verbatim below.
	s.log = log
	s.alloc.log = log

	s.done = st.Done

	m := s.arrays
	if len(st.Arrays.Budgets) != len(m.budgets) {
		return fmt.Errorf("coda: checkpoint has %d node budgets, scheduler has %d", len(st.Arrays.Budgets), len(m.budgets))
	}
	for i, bs := range st.Arrays.Budgets {
		b := m.budgets[i]
		if bs.Reserve < 0 || bs.Reserve > b.cores {
			return fmt.Errorf("coda: node %d reserve %d out of [0,%d] in checkpoint", i, bs.Reserve, b.cores)
		}
		b.reserve = bs.Reserve
		for _, d := range bs.GPUDraws {
			if _, dup := b.gpuDraws[d.Job]; dup {
				return fmt.Errorf("coda: node %d duplicate gpu draw for job %d", i, d.Job)
			}
			b.gpuDraws[d.Job] = draw{fromReserve: d.FromReserve, fromShared: d.FromShared}
		}
		for _, d := range bs.CPUDraws {
			if _, dup := b.cpuDraws[d.Job]; dup {
				return fmt.Errorf("coda: node %d duplicate cpu draw for job %d", i, d.Job)
			}
			b.cpuDraws[d.Job] = draw{fromReserve: d.FromReserve, fromShared: d.FromShared}
		}
		b.usedReserve, b.usedShared, b.borrowed = b.sums()
	}
	if err := checkSplit(st.Arrays.FourG, st.Arrays.OneG, m.gpuNodes); err != nil {
		return fmt.Errorf("coda: %w", err)
	}
	m.fourGNodes = len(st.Arrays.FourG)
	if err := m.cpuAcc.RestoreCheckpointState(st.Arrays.CPUAcc); err != nil {
		return fmt.Errorf("coda: restore cpu accountant: %w", err)
	}
	if err := m.gpuAcc.RestoreCheckpointState(st.Arrays.GPUAcc); err != nil {
		return fmt.Errorf("coda: restore gpu accountant: %w", err)
	}
	// Restored in list order; the final audit rejects tenant queues that are
	// not strictly ascending, a repeated tenant included.
	m.cpuQueues.RestoreCheckpointState(st.Arrays.CPUQueues)
	m.gpuQueues.RestoreCheckpointState(st.Arrays.GPUQueues)
	for _, d := range st.Arrays.Desired {
		m.desired[d.Job] = d.Cores
	}
	for i := range st.Arrays.Running {
		rs := st.Arrays.Running[i]
		if _, dup := m.running[rs.Job.ID]; dup {
			return fmt.Errorf("coda: duplicate running job %d in checkpoint", rs.Job.ID)
		}
		j := rs.Job
		m.running[j.ID] = &runInfo{j: &j, alloc: rs.Alloc.Clone()}
	}

	a := s.alloc
	for i := range st.Alloc.Tuning {
		ts := st.Alloc.Tuning[i]
		if ts.Phase < int(phaseBaseline) || ts.Phase > int(phaseDone) {
			return fmt.Errorf("coda: job %d has unknown tune phase %d", ts.Job.ID, ts.Phase)
		}
		j := ts.Job
		a.tuning[j.ID] = &tuneState{
			j: &j, bestCores: ts.BestCores, bestUtil: ts.BestUtil,
			curCores: ts.CurCores, step: ts.Step, phase: tunePhase(ts.Phase),
			stepsUsed: ts.StepsUsed, nextCheck: ts.NextCheck,
		}
	}
	for _, e := range st.Alloc.Settled {
		a.settled[e.Job] = e.Info
	}

	if st.Elim != nil {
		// Restored in list order; the final audit rejects a list that is not
		// strictly ascending by job.
		for _, iv := range st.Elim.Throttled {
			s.elim.throttled.ids = append(s.elim.throttled.ids, iv.Job)
			s.elim.throttled.origCores = append(s.elim.throttled.origCores, iv.OrigCores)
		}
		s.elim.nextCheck = st.Elim.NextCheck
	}

	if err := s.CheckInvariants(); err != nil {
		return fmt.Errorf("coda: restored state fails invariants: %w", err)
	}
	return nil
}

// nodeRange lists the node IDs [lo, hi), nil when the range is empty.
func nodeRange(lo, hi int) []int {
	var ids []int
	for nid := lo; nid < hi; nid++ {
		ids = append(ids, nid)
	}
	return ids
}

// checkSplit verifies that checkpointed sub-array lists are the ID ranges
// the constructor and Rebalance build, [0, len(fourG)) for the 4-GPU
// sub-array and [len(fourG), gpuNodes) for the 1-GPU one: no overlap, no
// gap, no other order.
func checkSplit(fourG, oneG []int, gpuNodes int) error {
	want := 0
	for _, part := range [...][]int{fourG, oneG} {
		for _, nid := range part {
			if nid < 0 || nid >= gpuNodes {
				return fmt.Errorf("sub-array node %d out of range [0,%d)", nid, gpuNodes)
			}
			if nid != want {
				return fmt.Errorf("sub-arrays list node %d where node %d belongs; want 4-GPU nodes [0,%d) and 1-GPU nodes [%d,%d)",
					nid, want, len(fourG), len(fourG), gpuNodes)
			}
			want++
		}
	}
	if want != gpuNodes {
		return fmt.Errorf("GPU node %d is in neither sub-array", want)
	}
	return nil
}
