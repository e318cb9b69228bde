// Package membw simulates Intel Memory Bandwidth Monitoring (MBM) and
// Memory Bandwidth Allocation (MBA), the sensor and actuator the paper's
// contention eliminator uses (§V-D). A Meter tracks per-job and per-node
// memory-bandwidth usage; an Allocator caps a job's bandwidth the way MBA's
// throttling classes do. Nodes may be configured without MBA support, in
// which case the eliminator falls back to halving the CPU job's cores.
package membw

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"

	"github.com/coda-repro/coda/internal/job"
)

// Errors reported by the meter.
var (
	// ErrUnknownJob means the job is not registered on the node.
	ErrUnknownJob = errors.New("membw: unknown job")
	// ErrDuplicateJob means the job is already registered on the node.
	ErrDuplicateJob = errors.New("membw: job already registered")
)

// usage is one job's bandwidth record on a node.
type usage struct {
	// demand is what the job would drive unthrottled, in GB/s.
	demand float64
	// cap is the MBA-style throttle; 0 means uncapped.
	cap float64
	// cpuJob marks jobs eligible for throttling (the eliminator never
	// throttles DNN training jobs, §V-A).
	cpuJob bool
}

// effective returns the bandwidth the job actually drives.
func (u usage) effective() float64 {
	if u.cap > 0 && u.cap < u.demand {
		return u.cap
	}
	return u.demand
}

// Meter is the per-node bandwidth monitor, the MBM stand-in.
type Meter struct {
	// capacity is the node's total memory bandwidth in GB/s.
	capacity float64
	// mbaSupported reports whether the node's CPU supports MBA throttling.
	mbaSupported bool
	jobs         map[job.ID]usage
	// ids mirrors the keys of jobs sorted ascending, maintained on
	// register/deregister so Total and AppendJobs iterate in ID order
	// without per-call collection and sorting.
	ids []job.ID
	// total caches Total's ID-order sum while totalOK holds. Every write
	// to jobs clears totalOK, and the next read re-sums in ID order, so a
	// cached total is bit-identical to a fresh one: it is never adjusted
	// by adding or subtracting one job, which would change the float order.
	total   float64
	totalOK bool
}

// setJob writes one job's record and drops the cached total.
func (m *Meter) setJob(id job.ID, u usage) {
	m.jobs[id] = u
	m.totalOK = false
}

// insertID adds id to the sorted ID mirror.
func (m *Meter) insertID(id job.ID) {
	i := sort.Search(len(m.ids), func(i int) bool { return m.ids[i] >= id })
	m.ids = append(m.ids, 0)
	copy(m.ids[i+1:], m.ids[i:])
	m.ids[i] = id
}

// removeID drops id from the sorted ID mirror.
func (m *Meter) removeID(id job.ID) {
	i := sort.Search(len(m.ids), func(i int) bool { return m.ids[i] >= id })
	if i < len(m.ids) && m.ids[i] == id {
		m.ids = append(m.ids[:i], m.ids[i+1:]...)
	}
}

// NewMeter builds a meter for a node with the given bandwidth capacity.
func NewMeter(capacityGBs float64, mbaSupported bool) (*Meter, error) {
	if capacityGBs <= 0 {
		return nil, fmt.Errorf("membw: capacity must be positive, got %g", capacityGBs)
	}
	return &Meter{
		capacity:     capacityGBs,
		mbaSupported: mbaSupported,
		jobs:         make(map[job.ID]usage),
	}, nil
}

// Capacity returns the node bandwidth capacity in GB/s.
func (m *Meter) Capacity() float64 { return m.capacity }

// MBASupported reports whether MBA throttling is available on this node.
func (m *Meter) MBASupported() bool { return m.mbaSupported }

// Register starts tracking a job that drives demand GB/s. cpuJob marks it
// throttle-eligible.
func (m *Meter) Register(id job.ID, demandGBs float64, cpuJob bool) error {
	if demandGBs < 0 {
		return fmt.Errorf("membw: negative demand %g for job %d", demandGBs, id)
	}
	if _, ok := m.jobs[id]; ok {
		return fmt.Errorf("%w: %d", ErrDuplicateJob, id)
	}
	m.setJob(id, usage{demand: demandGBs, cpuJob: cpuJob})
	m.insertID(id)
	return nil
}

// Deregister stops tracking a job.
func (m *Meter) Deregister(id job.ID) error {
	if _, ok := m.jobs[id]; !ok {
		return fmt.Errorf("%w: %d", ErrUnknownJob, id)
	}
	delete(m.jobs, id)
	m.removeID(id)
	m.totalOK = false
	return nil
}

// SetDemand updates a job's unthrottled demand (e.g. after the eliminator
// halves its cores, which roughly halves its bandwidth).
func (m *Meter) SetDemand(id job.ID, demandGBs float64) error {
	u, ok := m.jobs[id]
	if !ok {
		return fmt.Errorf("%w: %d", ErrUnknownJob, id)
	}
	if demandGBs < 0 {
		return fmt.Errorf("membw: negative demand %g for job %d", demandGBs, id)
	}
	u.demand = demandGBs
	m.setJob(id, u)
	return nil
}

// JobBandwidth returns the bandwidth job id currently drives.
func (m *Meter) JobBandwidth(id job.ID) (float64, error) {
	u, ok := m.jobs[id]
	if !ok {
		return 0, fmt.Errorf("%w: %d", ErrUnknownJob, id)
	}
	return u.effective(), nil
}

// HostsAny reports whether the meter tracks a job for which in returns
// true, asking in about each tracked job in ascending ID order until one
// matches. It allocates nothing, so a hot caller can test a set of its own
// against a node before paying for AppendJobs.
func (m *Meter) HostsAny(in func(job.ID) bool) bool {
	for _, id := range m.ids {
		if in(id) {
			return true
		}
	}
	return false
}

// Total returns the node's aggregate bandwidth usage in GB/s. Jobs are
// summed in ID order: float accumulation is order-sensitive, and the
// simulator's determinism guarantee needs bit-identical totals. The sum is
// cached until the next write to the node's jobs.
func (m *Meter) Total() float64 {
	if !m.totalOK {
		m.total = m.sum()
		m.totalOK = true
	}
	return m.total
}

// sum adds the jobs' effective bandwidth in ID order.
func (m *Meter) sum() float64 {
	total := 0.0
	for _, id := range m.ids {
		total += m.jobs[id].effective()
	}
	return total
}

// CheckInvariants reports a cached total that differs, bit for bit, from a
// fresh ID-order sum: a write to the job table that did not drop the cache.
func (m *Meter) CheckInvariants() error {
	if !m.totalOK {
		return nil
	}
	if fresh := m.sum(); math.Float64bits(fresh) != math.Float64bits(m.total) {
		return fmt.Errorf("membw: cached total %v GB/s, jobs sum to %v", m.total, fresh)
	}
	return nil
}

// Utilization returns Total/Capacity in [0, +inf).
func (m *Meter) Utilization() float64 { return m.Total() / m.capacity }

// Pressure returns the bandwidth-contention pressure in [0, 1]: 0 when the
// node is at or under capacity, approaching 1 as demand exceeds capacity.
// The perfmodel package converts pressure into per-model slowdowns.
func (m *Meter) Pressure() float64 {
	total := m.Total()
	if total <= m.capacity {
		return 0
	}
	return 1 - m.capacity/total
}

// JobUsage describes one job's bandwidth record for reporting.
type JobUsage struct {
	// ID is the job.
	ID job.ID
	// DemandGBs is the unthrottled demand.
	DemandGBs float64
	// EffectiveGBs is the post-throttle usage.
	EffectiveGBs float64
	// CapGBs is the active MBA cap (0 when uncapped).
	CapGBs float64
	// CPUJob marks throttle eligibility.
	CPUJob bool
}

// Jobs returns all tracked jobs ordered by descending effective bandwidth
// (ties broken by ID) — the order the eliminator throttles in.
func (m *Meter) Jobs() []JobUsage {
	return m.AppendJobs(nil)
}

// AppendJobs appends the tracked jobs to buf in the same order Jobs uses,
// letting hot callers (the per-event invariant check) reuse a scratch slice.
func (m *Meter) AppendJobs(buf []JobUsage) []JobUsage {
	out := buf
	for _, id := range m.ids {
		u := m.jobs[id]
		out = append(out, JobUsage{
			ID:           id,
			DemandGBs:    u.demand,
			EffectiveGBs: u.effective(),
			CapGBs:       u.cap,
			CPUJob:       u.cpuJob,
		})
	}
	slices.SortFunc(out, func(a, b JobUsage) int {
		//coda:ordered-ok comparator tie-break; both values come from the same deterministic computation
		if a.EffectiveGBs != b.EffectiveGBs {
			if a.EffectiveGBs > b.EffectiveGBs {
				return -1
			}
			return 1
		}
		return int(a.ID) - int(b.ID)
	})
	return out
}

// Throttle applies an MBA-style cap to a CPU job. It fails on nodes without
// MBA support and on non-CPU jobs (training jobs are never throttled).
func (m *Meter) Throttle(id job.ID, capGBs float64) error {
	if !m.mbaSupported {
		return fmt.Errorf("membw: node lacks MBA support; halve job %d's cores instead", id)
	}
	u, ok := m.jobs[id]
	if !ok {
		return fmt.Errorf("%w: %d", ErrUnknownJob, id)
	}
	if !u.cpuJob {
		return fmt.Errorf("membw: job %d is not a CPU job; training jobs are never throttled", id)
	}
	if capGBs <= 0 {
		return fmt.Errorf("membw: cap must be positive, got %g", capGBs)
	}
	u.cap = capGBs
	m.setJob(id, u)
	return nil
}

// Unthrottle removes a job's MBA cap.
func (m *Meter) Unthrottle(id job.ID) error {
	u, ok := m.jobs[id]
	if !ok {
		return fmt.Errorf("%w: %d", ErrUnknownJob, id)
	}
	u.cap = 0
	m.setJob(id, u)
	return nil
}

// Monitor aggregates one Meter per node, the cluster-wide MBM view CODA's
// backend polls (§V-D "CODA monitors the total memory bandwidth usage of
// each node and the memory bandwidth of each CPU job").
type Monitor struct {
	meters []*Meter
}

// NewMonitor builds a monitor with one meter per node.
func NewMonitor(nodes int, capacityGBs float64, mbaSupported bool) (*Monitor, error) {
	if nodes <= 0 {
		return nil, fmt.Errorf("membw: nodes must be positive, got %d", nodes)
	}
	mon := &Monitor{meters: make([]*Meter, nodes)}
	for i := range mon.meters {
		m, err := NewMeter(capacityGBs, mbaSupported)
		if err != nil {
			return nil, err
		}
		mon.meters[i] = m
	}
	return mon, nil
}

// Node returns the meter for node id.
func (m *Monitor) Node(id int) (*Meter, error) {
	if id < 0 || id >= len(m.meters) {
		return nil, fmt.Errorf("membw: node %d out of range [0,%d)", id, len(m.meters))
	}
	return m.meters[id], nil
}

// Size returns the node count.
func (m *Monitor) Size() int { return len(m.meters) }

// HotNodes returns node IDs whose bandwidth utilization is at or above
// threshold (e.g. 0.75 per the paper), ascending by ID.
func (m *Monitor) HotNodes(threshold float64) []int {
	var hot []int
	for i, meter := range m.meters {
		if meter.Utilization() >= threshold {
			hot = append(hot, i)
		}
	}
	return hot
}
