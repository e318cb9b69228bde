package sim

import (
	"errors"
	"fmt"
	"time"

	"github.com/coda-repro/coda/internal/chaos"
	"github.com/coda-repro/coda/internal/job"
	"github.com/coda-repro/coda/internal/sched"
)

// This file is the simulator's control-plane surface (Options.Service): an
// online scheduler service drives the engine incrementally with RunUntil,
// injects arrivals/faults/cancellations at the current virtual time, and
// finalizes explicitly with Finish. Every mutation happens between events on
// the single-threaded engine, so a WAL replay of the same call sequence at
// the same virtual times reproduces the run bit for bit.

// ErrNotService is returned by every service-mode entry point when the
// simulator was built without Options.Service.
var ErrNotService = errors.New("sim: service-mode call on a batch simulator")

// RunUntil processes every queued event with timestamp <= t, then advances
// virtual time to exactly t. Calling RunUntil(t1) then RunUntil(t2) is
// bit-identical to calling RunUntil(t2) once: the event stream, not the
// call boundaries, determines the run. t must not be in the past.
func (s *Simulator) RunUntil(t time.Duration) error {
	if !s.opts.Service {
		return ErrNotService
	}
	if t < s.now {
		return fmt.Errorf("sim: RunUntil(%v) is in the past (now %v)", t, s.now)
	}
	s.bootstrap()
	for len(s.events) > 0 && s.events[0].at <= t {
		e := s.events.pop()
		s.dispatch(e)
		if err := s.postEvent(e.kind); err != nil {
			return err
		}
		s.recycleEvent(e)
	}
	s.now = t
	return nil
}

// InjectArrival admits a job at the current virtual time. The job's Arrival
// is overwritten with now; its ID must be new to the run. The arrival event
// is queued at now and delivered by the next RunUntil.
func (s *Simulator) InjectArrival(j *job.Job) error {
	if !s.opts.Service {
		return ErrNotService
	}
	if j == nil {
		return errors.New("sim: inject arrival: nil job")
	}
	j.Arrival = s.now
	if err := j.Validate(); err != nil {
		return fmt.Errorf("sim: %w", err)
	}
	if s.jobKnown(j.ID) {
		return fmt.Errorf("sim: inject arrival: job %d already exists", j.ID)
	}
	s.arrivalsLeft++
	s.admitted++
	if j.Arrival > s.lastArrival {
		s.lastArrival = j.Arrival
		s.results.LastArrival = s.lastArrival
	}
	s.pushEvent(event{at: s.now, kind: evArrival, job: j})
	return nil
}

// jobKnown reports whether any lifecycle state (live or historical) already
// uses the ID.
func (s *Simulator) jobKnown(id job.ID) bool {
	if _, ok := s.pending[id]; ok {
		return true
	}
	if _, ok := s.running[id]; ok {
		return true
	}
	if _, ok := s.retrying[id]; ok {
		return true
	}
	_, ok := s.results.Jobs[id]
	return ok
}

// InjectFault queues one fault at the current virtual time; the node
// drain/leave/join API routes through this. Node-scoped kinds are validated
// against the cluster size.
func (s *Simulator) InjectFault(f chaos.Fault) error {
	if !s.opts.Service {
		return ErrNotService
	}
	switch f.Kind {
	case chaos.KindNodeCrash, chaos.KindNodeRecover, chaos.KindNodeDrain,
		chaos.KindNodeUndrain, chaos.KindMembwDark, chaos.KindMembwRestore:
		if f.Node < 0 || f.Node >= s.opts.Cluster.TotalNodes() {
			return fmt.Errorf("sim: inject fault: node %d out of range [0, %d)", f.Node, s.opts.Cluster.TotalNodes())
		}
	case chaos.KindStragglerStart, chaos.KindStragglerEnd:
		if f.Node < 0 || f.Node >= s.opts.Cluster.TotalNodes() {
			return fmt.Errorf("sim: inject fault: node %d out of range [0, %d)", f.Node, s.opts.Cluster.TotalNodes())
		}
		if f.Factor <= 0 || f.Factor >= 1 {
			return fmt.Errorf("sim: inject fault: straggler factor %g out of (0, 1)", f.Factor)
		}
	case chaos.KindControllerKill, chaos.KindServeKill:
		// Process-level: no node target.
	default:
		return fmt.Errorf("sim: inject fault: unknown kind %v", f.Kind)
	}
	f.At = s.now
	s.faultsLeft++
	s.pushEvent(event{at: s.now, kind: evFault, fault: f})
	return nil
}

// CancelJob removes a job from the run at the current virtual time. A
// running job is stopped (its resources released, the scheduler notified via
// OnJobKilled); a queued job additionally requires the scheduler to
// implement sched.Canceller; a job waiting out a retry backoff is simply
// forgotten (its evResubmit event goes stale). Cancelling a finished or
// unknown job is a deterministic error — the same WAL replays to the same
// rejection.
func (s *Simulator) CancelJob(id job.ID) error {
	if !s.opts.Service {
		return ErrNotService
	}
	if r, ok := s.running[id]; ok {
		s.advance(r)
		s.stopJob(r)
		s.cancelledJobs++
		s.forget(id)
		s.results.noteCancel(id)
		s.scheduler.OnJobKilled(r.job)
		return nil
	}
	if j, ok := s.pending[id]; ok {
		c, ok := s.scheduler.(sched.Canceller)
		if !ok {
			return fmt.Errorf("sim: scheduler %q cannot cancel queued jobs", s.scheduler.Name())
		}
		delete(s.pending, id)
		s.touchJob(id)
		s.cancelledJobs++
		s.forget(id)
		s.results.noteCancel(id)
		c.OnJobCancelled(j)
		return nil
	}
	if _, ok := s.retrying[id]; ok {
		delete(s.retrying, id)
		s.touchJob(id)
		s.cancelledJobs++
		s.forget(id)
		s.results.noteCancel(id)
		return nil
	}
	return fmt.Errorf("sim: cancel job %d: not pending, running or retrying", id)
}

// Job lifecycle phases reported by JobPhase.
const (
	PhaseUnknown   = ""
	PhasePending   = "pending"
	PhaseRunning   = "running"
	PhaseRetrying  = "retrying"
	PhaseCompleted = "completed"
	PhaseTerminal  = "terminal"
	PhaseCancelled = "cancelled"
)

// JobPhase reports where a job currently is in its lifecycle, or
// PhaseUnknown for an ID the run has never seen.
func (s *Simulator) JobPhase(id job.ID) string {
	if _, ok := s.pending[id]; ok {
		return PhasePending
	}
	if _, ok := s.running[id]; ok {
		return PhaseRunning
	}
	if _, ok := s.retrying[id]; ok {
		return PhaseRetrying
	}
	if js, ok := s.results.Jobs[id]; ok {
		switch {
		case js.Cancelled:
			return PhaseCancelled
		case js.Completed:
			return PhaseCompleted
		case js.TerminallyFailed:
			return PhaseTerminal
		}
	}
	return PhaseUnknown
}

// JobPlacement returns a copy of a running job's node IDs (nil when the job
// is not running).
func (s *Simulator) JobPlacement(id job.ID) []int {
	r, ok := s.running[id]
	if !ok {
		return nil
	}
	return append([]int(nil), r.alloc.NodeIDs...)
}

// ServiceStats is a point-in-time snapshot of the service's lifecycle
// counters, for /metrics.
type ServiceStats struct {
	Now       time.Duration
	Pending   int
	Running   int
	Retrying  int
	Completed int
	Terminal  int
	Cancelled int
	Events    int64
}

// Stats snapshots the current lifecycle counters.
func (s *Simulator) Stats() ServiceStats {
	return ServiceStats{
		Now:       s.now,
		Pending:   len(s.pending),
		Running:   len(s.running),
		Retrying:  len(s.retrying),
		Completed: s.completedJobs,
		Terminal:  s.terminalJobs,
		Cancelled: s.cancelledJobs,
		Events:    s.results.Events,
	}
}

// Finish finalizes the run and returns its results. Unlike Run, it does not
// wait for idleness — the service decides when the run is over.
func (s *Simulator) Finish() (*Result, error) {
	if !s.opts.Service {
		return nil, ErrNotService
	}
	s.finalize()
	return s.results, nil
}
