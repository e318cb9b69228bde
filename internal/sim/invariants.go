package sim

import (
	"fmt"
	"slices"

	"github.com/coda-repro/coda/internal/cluster"
)

// invariantChecker is implemented by schedulers that can validate their own
// bookkeeping (core.Scheduler checks array budgets, fair-share accountants
// and queue/running disjointness). The simulator folds it into its
// per-event check when present.
type invariantChecker interface {
	CheckInvariants() error
}

// checkEventInvariants is the per-event gate behind Options.Invariants:
// with InvariantsEvery unset it runs the full audit every time; with a
// positive cadence it runs the O(Δ) delta check — only the nodes and jobs
// the event's mutations journaled — and the full audit every N events.
// The delta check proves exactly the invariants an event can break:
// untouched nodes and jobs were audited when they last changed.
func (s *Simulator) checkEventInvariants() error {
	n := s.opts.InvariantsEvery
	if n <= 0 {
		return s.CheckInvariants()
	}
	s.eventsSinceAudit++
	if s.eventsSinceAudit >= n {
		s.eventsSinceAudit = 0
		return s.CheckInvariants()
	}
	return s.checkInvariantsDelta()
}

// checkInvariantsDelta verifies the invariants on the nodes and jobs the
// current event touched, plus the O(1) conservation identity. Anything the
// event did not touch cannot have changed since its own last check.
func (s *Simulator) checkInvariantsDelta() error {
	for _, nid := range s.cluster.TouchedNodes() {
		if err := s.cluster.CheckNodeInvariants(nid); err != nil {
			return err
		}
		n, err := s.cluster.Node(nid)
		if err != nil {
			return err
		}
		meter, err := s.monitor.Node(nid)
		if err != nil {
			return fmt.Errorf("node %d: %w", nid, err)
		}
		if err := meter.CheckInvariants(); err != nil {
			return fmt.Errorf("node %d: %w", nid, err)
		}
		s.invUsages = meter.AppendJobs(s.invUsages[:0])
		usages := s.invUsages
		if len(usages) != n.JobCount() {
			return fmt.Errorf("node %d: meter tracks %d jobs, node hosts %d", nid, len(usages), n.JobCount())
		}
		for _, u := range usages {
			if _, _, ok := n.JobShare(u.ID); !ok {
				return fmt.Errorf("node %d: meter tracks job %d which holds no share there", nid, u.ID)
			}
		}
		s.invIDs = n.AppendJobs(s.invIDs[:0])
		cpuCores := 0
		for _, id := range s.invIDs {
			r, ok := s.running[id]
			if !ok {
				return fmt.Errorf("node %d holds resources of job %d which is not running (leaked allocation)", nid, id)
			}
			if !r.job.IsGPU() {
				if c, _, ok := n.JobShare(id); ok {
					cpuCores += c
				}
			}
		}
		if cpuCores != s.cpuCoresOn[nid] {
			return fmt.Errorf("node %d: cpu-core cache says %d, shares sum to %d", nid, s.cpuCoresOn[nid], cpuCores)
		}
		if s.pcieLoad[nid] < 0 {
			return fmt.Errorf("node %d: negative pcie load %g", nid, s.pcieLoad[nid])
		}
	}

	for _, id := range s.touchedJobs {
		_, pend := s.pending[id]
		r, run := s.running[id]
		_, retry := s.retrying[id]
		if pend && run {
			return fmt.Errorf("job %d is pending and running simultaneously", id)
		}
		if retry && pend {
			return fmt.Errorf("job %d is retrying and pending simultaneously", id)
		}
		if retry && run {
			return fmt.Errorf("job %d is retrying and running simultaneously", id)
		}
		if run {
			placed, ok := s.cluster.PlacementSize(id)
			if !ok {
				return fmt.Errorf("running job %d holds no cluster placement", id)
			}
			if placed != len(r.alloc.NodeIDs) {
				return fmt.Errorf("running job %d placed on %d nodes, allocation names %d",
					id, placed, len(r.alloc.NodeIDs))
			}
		}
	}

	return s.checkConservation()
}

// checkConservation is the O(1) job-conservation identity shared by the
// delta and full checks.
func (s *Simulator) checkConservation() error {
	accounted := s.arrivalsLeft + len(s.pending) + len(s.running) + len(s.retrying) +
		s.completedJobs + s.terminalJobs + s.cancelledJobs
	if accounted != s.admitted {
		return fmt.Errorf("job conservation broken: %d arrivals left + %d pending + %d running + %d retrying + %d completed + %d terminal + %d cancelled = %d, admitted %d",
			s.arrivalsLeft, len(s.pending), len(s.running), len(s.retrying),
			s.completedJobs, s.terminalJobs, s.cancelledJobs, accounted, s.admitted)
	}
	return nil
}

// CheckInvariants validates the simulator's full accounting after an event:
//
//  1. Cluster capacity: no node over-committed on cores or GPUs, share
//     sums match counters, down nodes host nothing.
//  2. Job-state disjointness: no job is simultaneously pending, running
//     and/or waiting out a retry backoff.
//  3. Placement consistency: every running job holds a cluster placement
//     on exactly its allocation's nodes, and every job holding resources
//     on any node is running (no leaked allocations).
//  4. Bandwidth accounting: the set of jobs registered on each node's
//     memory-bandwidth meter equals the set of jobs occupying the node,
//     and a cached meter total equals a fresh sum.
//     (Demand may exceed capacity — that is contention, the phenomenon
//     under study — but accounting must balance.)
//  5. PCIe load is never negative.
//  6. Job conservation: arrivals left + pending + running + retrying +
//     completed + terminally failed + cancelled = admitted. No admitted
//     job is ever lost.
//
// Behind Options.Invariants it runs after every event; tests enable it
// everywhere, cmd/coda-sim behind -invariants.
func (s *Simulator) CheckInvariants() error {
	if err := s.cluster.CheckInvariants(); err != nil {
		return err
	}

	// Disjointness of the three job states.
	//coda:ordered-ok error reporting on already-broken invariants; any witness will do
	for id := range s.pending {
		if _, ok := s.running[id]; ok {
			return fmt.Errorf("job %d is pending and running simultaneously", id)
		}
	}
	//coda:ordered-ok error reporting on already-broken invariants; any witness will do
	for id := range s.retrying {
		if _, ok := s.pending[id]; ok {
			return fmt.Errorf("job %d is retrying and pending simultaneously", id)
		}
		if _, ok := s.running[id]; ok {
			return fmt.Errorf("job %d is retrying and running simultaneously", id)
		}
	}

	// First-start accounting: a running job has by definition started, and a
	// job marked started must still be in flight (the mark is dropped when
	// the job completes, fails terminally or is cancelled).
	//coda:ordered-ok error reporting on already-broken invariants; any witness will do
	for id := range s.running {
		if !s.startedOnce[id] {
			return fmt.Errorf("running job %d is not marked as started", id)
		}
	}
	//coda:ordered-ok error reporting on already-broken invariants; any witness will do
	for id := range s.startedOnce {
		_, p := s.pending[id]
		_, r := s.running[id]
		_, b := s.retrying[id]
		if !p && !r && !b {
			return fmt.Errorf("job %d is marked started but is not in flight", id)
		}
	}

	// Placement consistency, in sorted ID order for deterministic reports.
	s.invIDs = s.invIDs[:0]
	//coda:ordered-ok collected IDs are fully ordered by the sort below
	for id := range s.running {
		s.invIDs = append(s.invIDs, id)
	}
	slices.Sort(s.invIDs)
	for _, id := range s.invIDs {
		r := s.running[id]
		placed, ok := s.cluster.PlacementSize(id)
		if !ok {
			return fmt.Errorf("running job %d holds no cluster placement", id)
		}
		if placed != len(r.alloc.NodeIDs) {
			return fmt.Errorf("running job %d placed on %d nodes, allocation names %d",
				id, placed, len(r.alloc.NodeIDs))
		}
	}
	var nodeErr error
	s.cluster.EachNode(func(n *cluster.Node) bool {
		cpuCores := 0
		s.invIDs = n.AppendJobs(s.invIDs[:0])
		for _, id := range s.invIDs {
			r, ok := s.running[id]
			if !ok {
				nodeErr = fmt.Errorf("node %d holds resources of job %d which is not running (leaked allocation)", n.ID, id)
				return false
			}
			if !r.job.IsGPU() {
				if c, _, ok := n.JobShare(id); ok {
					cpuCores += c
				}
			}
		}
		if s.cpuCoresOn != nil && cpuCores != s.cpuCoresOn[n.ID] {
			nodeErr = fmt.Errorf("node %d: cpu-core cache says %d, shares sum to %d", n.ID, s.cpuCoresOn[n.ID], cpuCores)
			return false
		}
		// Bandwidth accounting identity: meter registrations == occupancy.
		meter, err := s.monitor.Node(n.ID)
		if err != nil {
			nodeErr = fmt.Errorf("node %d: %w", n.ID, err)
			return false
		}
		if err := meter.CheckInvariants(); err != nil {
			nodeErr = fmt.Errorf("node %d: %w", n.ID, err)
			return false
		}
		s.invUsages = meter.AppendJobs(s.invUsages[:0])
		usages := s.invUsages
		if len(usages) != n.JobCount() {
			nodeErr = fmt.Errorf("node %d: meter tracks %d jobs, node hosts %d", n.ID, len(usages), n.JobCount())
			return false
		}
		for _, u := range usages {
			if _, _, ok := n.JobShare(u.ID); !ok {
				nodeErr = fmt.Errorf("node %d: meter tracks job %d which holds no share there", n.ID, u.ID)
				return false
			}
		}
		return true
	})
	if nodeErr != nil {
		return nodeErr
	}

	for nid, load := range s.pcieLoad {
		if load < 0 {
			return fmt.Errorf("node %d: negative pcie load %g", nid, load)
		}
	}

	// Conservation: no admitted job is ever lost.
	if err := s.checkConservation(); err != nil {
		return err
	}

	if ic, ok := s.scheduler.(invariantChecker); ok {
		if err := ic.CheckInvariants(); err != nil {
			return fmt.Errorf("scheduler: %w", err)
		}
	}
	return nil
}
