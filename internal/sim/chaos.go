package sim

import (
	"fmt"
	"time"

	"github.com/coda-repro/coda/internal/chaos"
	"github.com/coda-repro/coda/internal/cluster"
	"github.com/coda-repro/coda/internal/job"
)

// This file is the simulator side of the fault injector: it applies the
// pre-compiled chaos schedule (node crashes, telemetry dropouts,
// stragglers), arms per-job injected failures, and runs the kill →
// backoff → requeue → terminal-failure lifecycle. Everything happens in
// sim-time through the ordinary event heap, so chaotic runs stay
// bit-reproducible under the same seeds.

// handleFault applies one compiled fault.
func (s *Simulator) handleFault(f chaos.Fault) {
	switch f.Kind {
	case chaos.KindNodeCrash:
		s.crashNode(f.Node)
	case chaos.KindNodeRecover:
		if s.downDepth[f.Node] > 0 {
			s.downDepth[f.Node]--
		}
		if s.downDepth[f.Node] == 0 {
			s.setNodeState(f.Node, cluster.NodeUp)
			s.results.Faults.NodeRecoveries++
			// Capacity returned: let the scheduler place waiting work now
			// instead of at the next cadence tick.
			s.scheduler.Tick()
		}
	case chaos.KindNodeDrain:
		// Draining keeps resident jobs; it only stops new placements. An
		// already-down node stays down (crash wins until recovery).
		if s.downDepth[f.Node] == 0 {
			s.setNodeState(f.Node, cluster.NodeDraining)
		}
	case chaos.KindNodeUndrain:
		if s.downDepth[f.Node] == 0 {
			s.setNodeState(f.Node, cluster.NodeUp)
			s.scheduler.Tick()
		}
	case chaos.KindMembwDark:
		s.darkDepth[f.Node]++
		if s.darkDepth[f.Node] == 1 {
			s.results.Faults.MembwDropouts++
		}
	case chaos.KindMembwRestore:
		if s.darkDepth[f.Node] > 0 {
			s.darkDepth[f.Node]--
		}
	case chaos.KindStragglerStart:
		s.slowFactors[f.Node] = append(s.slowFactors[f.Node], f.Factor)
		s.results.Faults.Stragglers++
		s.cluster.Touch(f.Node)
		s.refreshNodes([]int{f.Node})
	case chaos.KindStragglerEnd:
		s.dropSlowFactor(f.Node, f.Factor)
		s.cluster.Touch(f.Node)
		s.refreshNodes([]int{f.Node})
	case chaos.KindControllerKill:
		// Kills replay deterministically from a checkpoint, so count ordinals:
		// only a kill beyond the ones this process already survived is fatal.
		// The counter itself always advances — a baseline run with
		// ExitOnControllerKill off tallies the same kills an interrupted-and-
		// resumed run does, which is what makes the two Results comparable
		// byte for byte.
		s.results.Faults.ControllerKills++
		if s.opts.ExitOnControllerKill && s.results.Faults.ControllerKills > s.killsSurvived {
			s.killed = true
		}
	case chaos.KindServeKill:
		// Count-only inside the engine: the control-plane drill harness
		// decides at which request ordinals the serving process actually
		// dies. Baseline and killed-and-recovered runs tally the same kills,
		// which keeps their Results byte-comparable.
		s.results.Faults.ServeKills++
	}
}

// crashNode takes a node down, killing every job with a share on it.
func (s *Simulator) crashNode(nid int) {
	s.downDepth[nid]++
	if s.downDepth[nid] > 1 {
		return // already down: nothing left to kill
	}
	s.results.Faults.NodeCrashes++
	n, err := s.cluster.Node(nid)
	if err != nil {
		return
	}
	// Mark the node down BEFORE killing its jobs: each kill notifies the
	// scheduler, which may immediately try to place pending work — and must
	// not land it on the node that is going away.
	s.setNodeState(nid, cluster.NodeDown)
	// Jobs spanning several nodes die entirely — a distributed training job
	// does not survive losing a worker. Node.Jobs() is sorted, so the kill
	// order (and therefore every downstream requeue) is deterministic.
	for _, id := range n.Jobs() {
		if r, ok := s.running[id]; ok {
			s.killJob(r)
		}
	}
}

// setNodeState transitions a node, panicking on impossible IDs (the
// schedule was validated against the cluster size at compile time).
func (s *Simulator) setNodeState(nid int, st cluster.NodeState) {
	if err := s.cluster.SetNodeState(nid, st); err != nil {
		panic(fmt.Sprintf("sim: set node %d %v: %v", nid, st, err))
	}
}

// dropSlowFactor removes one instance of a straggler factor from a node.
func (s *Simulator) dropSlowFactor(nid int, factor float64) {
	fs := s.slowFactors[nid]
	for i, f := range fs {
		//coda:ordered-ok exact match of a factor stored verbatim at straggler start
		if f == factor {
			s.slowFactors[nid] = append(fs[:i], fs[i+1:]...)
			return
		}
	}
}

// killJob aborts a running attempt: progress made in the attempt is lost
// goodput, resources are released, the scheduler drops its bookkeeping, and
// the job either waits out a backoff before requeuing or — past its retry
// budget — is terminally reported. Nothing is ever silently dropped.
func (s *Simulator) killJob(r *runningJob) {
	id := r.job.ID
	s.advance(r)
	lost := r.job.Work - r.remaining
	if lost < 0 {
		lost = 0
	}
	s.stopJob(r)
	s.results.noteKill(id, lost)
	s.scheduler.OnJobKilled(r.job)

	s.retries[id]++
	if s.retries[id] > s.opts.Faults.Retries() {
		s.terminalJobs++
		s.forget(id)
		s.results.noteTerminal(id)
		return
	}
	// Retry from scratch: the attempt's progress is gone, so the clone
	// carries the full work of the killed attempt.
	clone := r.job.Clone()
	clone.Work = r.job.Work
	s.retrying[id] = clone
	s.touchJob(id)
	s.pushEvent(event{
		at:    s.now + s.opts.Faults.Backoff(s.retries[id]),
		kind:  evResubmit,
		jobID: id,
	})
}

// handleResubmit moves a killed job from backoff back into the pending
// queue at its scheduler's array head.
func (s *Simulator) handleResubmit(id job.ID) {
	j, ok := s.retrying[id]
	if !ok {
		return
	}
	delete(s.retrying, id)
	s.pending[id] = j
	s.touchJob(id)
	s.results.Faults.Requeues++
	s.results.noteRequeue(id)
	s.scheduler.Submit(j)
}

// armJobFailure schedules the injected mid-run failure of a doomed job's
// current attempt, a fixed fraction of the attempt's work in. The draw is a
// pure hash of (plan seed, job ID): whether a job is doomed never depends
// on scheduling. The failure fires once per job — attempts after the first
// strike run clean.
func (s *Simulator) armJobFailure(r *runningJob) {
	if !s.chaosOn || s.failedOnce[r.job.ID] {
		return
	}
	frac, doomed := s.opts.Faults.JobFailure(r.job.ID)
	if !doomed {
		return
	}
	// Delay in wall-clock sim time at the current speed; if the job speeds
	// up later the failure still lands before completion because progress
	// can only take longer than frac*Work at speeds <= 1.
	delay := time.Duration(frac * float64(r.job.Work))
	if delay < time.Millisecond {
		delay = time.Millisecond
	}
	s.pushEvent(event{at: s.now + delay, kind: evJobFail, jobID: r.job.ID, run: r})
}

// handleJobFailure delivers an injected failure if the pinned attempt is
// still the one running.
func (s *Simulator) handleJobFailure(id job.ID, run *runningJob) {
	r, ok := s.running[id]
	if !ok || r != run {
		return // attempt already over (completed, preempted, crash-killed)
	}
	s.failedOnce[id] = true
	s.results.Faults.JobFailures++
	s.killJob(r)
}
