package membw

import (
	"fmt"

	"github.com/coda-repro/coda/internal/job"
)

// Checkpoint/restore support. Meter capacity and MBA support are construction
// parameters; only the per-node job registrations (demand, active cap,
// throttle eligibility) are serialized.

// JobState is one registered job on one node.
type JobState struct {
	ID     job.ID
	Demand float64
	Cap    float64
	CPUJob bool
}

// MeterState is one node's registrations, sorted by job ID.
type MeterState struct {
	Jobs []JobState
}

// MonitorState is the whole cluster's bandwidth-registration state.
type MonitorState struct {
	Meters []MeterState
}

// CheckpointState captures every meter's registrations.
func (m *Monitor) CheckpointState() MonitorState {
	st := MonitorState{Meters: make([]MeterState, len(m.meters))}
	for i, meter := range m.meters {
		ms := MeterState{Jobs: make([]JobState, 0, len(meter.jobs))}
		for _, id := range meter.ids {
			u := meter.jobs[id]
			ms.Jobs = append(ms.Jobs, JobState{ID: id, Demand: u.demand, Cap: u.cap, CPUJob: u.cpuJob})
		}
		st.Meters[i] = ms
	}
	return st
}

// RestoreCheckpointState fills a freshly built monitor (same node count,
// capacity and MBA support as the checkpointed one) with st.
func (m *Monitor) RestoreCheckpointState(st MonitorState) error {
	if len(st.Meters) != len(m.meters) {
		return fmt.Errorf("membw: checkpoint has %d nodes, monitor has %d", len(st.Meters), len(m.meters))
	}
	for i, meter := range m.meters {
		if len(meter.jobs) != 0 {
			return fmt.Errorf("membw: restore into non-empty meter on node %d", i)
		}
	}
	for i, ms := range st.Meters {
		meter := m.meters[i]
		for _, js := range ms.Jobs {
			if js.Demand < 0 || js.Cap < 0 {
				return fmt.Errorf("membw: node %d job %d has negative demand/cap in checkpoint", i, js.ID)
			}
			if _, dup := meter.jobs[js.ID]; dup {
				return fmt.Errorf("membw: node %d has duplicate job %d in checkpoint", i, js.ID)
			}
			meter.setJob(js.ID, usage{demand: js.Demand, cap: js.Cap, cpuJob: js.CPUJob})
			meter.insertID(js.ID)
		}
	}
	return nil
}
