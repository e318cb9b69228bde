package fair

import (
	"fmt"
	"sort"

	"github.com/coda-repro/coda/internal/job"
)

// Checkpoint/restore support. The accountant's float accumulations are
// order-sensitive, so the serialized form carries the accumulated values
// verbatim (per-tenant usage as it stands after every Charge/Refund/Adjust,
// not recomputed from the per-job ledger) — a restored accountant continues
// bit-identically.

// TenantUsage is one tenant's accumulated usage vector.
type TenantUsage struct {
	Tenant job.TenantID
	Res    Resources
}

// JobCharge is one job's remembered charge.
type JobCharge struct {
	Job    job.ID
	Tenant job.TenantID
	Res    Resources
}

// State is the serializable accountant state. Totals and mode are
// construction parameters and are re-supplied by the caller on restore.
// Checkpoints written before share weights were removed also carry a
// Weights list, always empty, which decoding ignores.
type State struct {
	Used   []TenantUsage
	PerJob []JobCharge
}

// CheckpointState captures the accountant's mutable state, sorted for
// deterministic output.
func (a *Accountant) CheckpointState() State {
	st := State{
		Used:   make([]TenantUsage, 0, len(a.used)),
		PerJob: make([]JobCharge, 0, len(a.perJob)),
	}
	//coda:ordered-ok entries are sorted below before serialization
	for t, r := range a.used {
		st.Used = append(st.Used, TenantUsage{Tenant: t, Res: r})
	}
	sort.Slice(st.Used, func(i, j int) bool { return st.Used[i].Tenant < st.Used[j].Tenant })
	//coda:ordered-ok entries are sorted below before serialization
	for id, c := range a.perJob {
		st.PerJob = append(st.PerJob, JobCharge{Job: id, Tenant: c.tenant, Res: c.res})
	}
	sort.Slice(st.PerJob, func(i, j int) bool { return st.PerJob[i].Job < st.PerJob[j].Job })
	return st
}

// RestoreCheckpointState replaces the accountant's mutable state with st.
// The accountant must have been freshly built with the same totals and mode
// as the checkpointed one.
func (a *Accountant) RestoreCheckpointState(st State) error {
	if len(a.used) != 0 || len(a.perJob) != 0 {
		return fmt.Errorf("fair: restore into a non-empty accountant")
	}
	used := make(map[job.TenantID]Resources, len(st.Used))
	for _, u := range st.Used {
		if _, dup := used[u.Tenant]; dup {
			return fmt.Errorf("fair: duplicate tenant %d in checkpoint", u.Tenant)
		}
		used[u.Tenant] = u.Res
	}
	perJob := make(map[job.ID]charge, len(st.PerJob))
	for _, c := range st.PerJob {
		if _, dup := perJob[c.Job]; dup {
			return fmt.Errorf("fair: duplicate job %d in checkpoint", c.Job)
		}
		if _, ok := used[c.Tenant]; !ok && !c.Res.IsZero() {
			return fmt.Errorf("fair: job %d charged to tenant %d with no usage entry", c.Job, c.Tenant)
		}
		perJob[c.Job] = charge{tenant: c.Tenant, res: c.Res}
	}
	a.used = used
	a.perJob = perJob
	return a.CheckInvariants()
}
