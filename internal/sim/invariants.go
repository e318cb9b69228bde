package sim

import (
	"fmt"

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
// current event touched, including the speed caches of every job on a
// touched node, plus the O(1) conservation identity. Anything the event
// did not touch cannot have changed since its own last check.
func (s *Simulator) checkInvariantsDelta() error {
	for _, nid := range s.cluster.TouchedNodes() {
		if err := s.cluster.CheckNodeInvariants(nid); err != nil {
			return err
		}
		n, err := s.cluster.Node(nid)
		if err != nil {
			return err
		}
		if err := s.checkNodeJobs(n); err != nil {
			return err
		}
		for _, r := range s.onNode[nid] {
			if err := s.checkSpeedCache(r); err != nil {
				return err
			}
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
		i, listed := searchRun(s.runOrder, id)
		live := listed && !s.runOrder[i].stopped
		if live && s.runOrder[i] != r {
			return fmt.Errorf("running-job order lists job %d, which is not its running attempt", id)
		}
		if !run {
			continue
		}
		if !live {
			return fmt.Errorf("running job %d is missing from the running-job order", id)
		}
		placed, ok := s.cluster.PlacementSize(id)
		if !ok {
			return fmt.Errorf("running job %d holds no cluster placement", id)
		}
		if placed != len(r.alloc.NodeIDs) {
			return fmt.Errorf("running job %d placed on %d nodes, allocation names %d",
				id, placed, len(r.alloc.NodeIDs))
		}
		for _, nid := range r.alloc.NodeIDs {
			if i, ok := searchRun(s.onNode[nid], id); !ok || s.onNode[nid][i] != r {
				return fmt.Errorf("node %d: running job %d is missing from the node's running-job list", nid, id)
			}
		}
	}

	return s.checkConservation()
}

// checkNodeJobs audits one node's hosted jobs. onNode lists exactly the jobs
// with a share on the node, in strictly ascending ID order, each one its
// job's running attempt; the cpu-core cache equals the CPU jobs' shares;
// the bandwidth meter tracks exactly the hosted jobs, and a cached meter
// total equals a fresh sum; the PCIe load is not negative.
func (s *Simulator) checkNodeJobs(n *cluster.Node) error {
	list := s.onNode[n.ID]
	if len(list) != n.JobCount() {
		return fmt.Errorf("node %d hosts %d jobs but its running-job list has %d (leaked allocation or stale list)",
			n.ID, n.JobCount(), len(list))
	}
	cpuCores := 0
	for i, r := range list {
		id := r.job.ID
		if i > 0 && id <= list[i-1].job.ID {
			return fmt.Errorf("node %d: running-job list has job %d after job %d; want strictly ascending IDs",
				n.ID, id, list[i-1].job.ID)
		}
		if s.running[id] != r {
			return fmt.Errorf("node %d: running-job list holds job %d, which is not its running attempt", n.ID, id)
		}
		c, _, ok := n.JobShare(id)
		if !ok {
			return fmt.Errorf("node %d: running-job list holds job %d, which holds no share there", n.ID, id)
		}
		if !r.job.IsGPU() {
			cpuCores += c
		}
	}
	if cpuCores != s.cpuCoresOn[n.ID] {
		return fmt.Errorf("node %d: cpu-core cache says %d, shares sum to %d", n.ID, s.cpuCoresOn[n.ID], cpuCores)
	}
	// Bandwidth accounting identity: meter registrations == occupancy.
	meter, err := s.monitor.Node(n.ID)
	if err != nil {
		return fmt.Errorf("node %d: %w", n.ID, err)
	}
	if err := meter.CheckInvariants(); err != nil {
		return fmt.Errorf("node %d: %w", n.ID, err)
	}
	// The list was just proven to name exactly the hosted jobs in ID order,
	// so the meter's sorted ID mirror must equal it entry for entry.
	ids := meter.IDs()
	if len(ids) != len(list) {
		return fmt.Errorf("node %d: meter tracks %d jobs, node hosts %d", n.ID, len(ids), len(list))
	}
	for i, r := range list {
		if ids[i] != r.job.ID {
			return fmt.Errorf("node %d: meter tracks job %d where the node hosts job %d", n.ID, ids[i], r.job.ID)
		}
	}
	if s.pcieLoad[n.ID] < 0 {
		return fmt.Errorf("node %d: negative pcie load %g", n.ID, s.pcieLoad[n.ID])
	}
	return nil
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
//     on any node is running (no leaked allocations). The running-job order
//     and each node's running-job list name exactly those jobs, in strictly
//     ascending ID order.
//  4. Bandwidth accounting: the set of jobs registered on each node's
//     memory-bandwidth meter equals the set of jobs occupying the node,
//     and a cached meter total equals a fresh sum.
//     (Demand may exceed capacity — that is contention, the phenomenon
//     under study — but accounting must balance.)
//  5. Speed caches: each running job's cached raw speed and optimal core
//     count equal, bit for bit, a fresh evaluation of its inputs.
//  6. PCIe load is never negative.
//  7. Job conservation: arrivals left + pending + running + retrying +
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
	for id := range s.startedOnce {
		_, p := s.pending[id]
		_, r := s.running[id]
		_, b := s.retrying[id]
		if !p && !r && !b {
			return fmt.Errorf("job %d is marked started but is not in flight", id)
		}
	}

	// The running-job order lists exactly the running attempts, plus the
	// stopped entries it counts, in strictly ascending ID order, and each
	// running attempt holds a cluster placement on exactly its allocation's
	// nodes.
	live, stopped := 0, 0
	for i, r := range s.runOrder {
		id := r.job.ID
		if i > 0 && id <= s.runOrder[i-1].job.ID {
			return fmt.Errorf("running-job order has job %d after job %d; want strictly ascending IDs",
				id, s.runOrder[i-1].job.ID)
		}
		if r.stopped {
			stopped++
			continue
		}
		live++
		if s.running[id] != r {
			return fmt.Errorf("running-job order lists job %d, which is not its running attempt", id)
		}
		if !s.startedOnce[id] {
			return fmt.Errorf("running job %d is not marked as started", id)
		}
		placed, ok := s.cluster.PlacementSize(id)
		if !ok {
			return fmt.Errorf("running job %d holds no cluster placement", id)
		}
		if placed != len(r.alloc.NodeIDs) {
			return fmt.Errorf("running job %d placed on %d nodes, allocation names %d",
				id, placed, len(r.alloc.NodeIDs))
		}
		if err := s.checkSpeedCache(r); err != nil {
			return err
		}
	}
	if live != len(s.running) || stopped != s.runOrderStopped {
		return fmt.Errorf("running-job order lists %d running jobs and %d stopped entries; %d jobs run and %d entries were stopped",
			live, stopped, len(s.running), s.runOrderStopped)
	}
	var nodeErr error
	s.cluster.EachNode(func(n *cluster.Node) bool {
		nodeErr = s.checkNodeJobs(n)
		return nodeErr == nil
	})
	if nodeErr != nil {
		return nodeErr
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
