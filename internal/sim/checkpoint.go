package sim

import (
	"container/heap"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"time"

	"github.com/coda-repro/coda/internal/chaos"
	"github.com/coda-repro/coda/internal/cluster"
	"github.com/coda-repro/coda/internal/job"
	"github.com/coda-repro/coda/internal/membw"
	"github.com/coda-repro/coda/internal/perfmodel"
	"github.com/coda-repro/coda/internal/sched"
	"github.com/coda-repro/coda/internal/trace"
)

// maxCheckpointJobs bounds the pending + retrying job sets a checkpoint
// will serialize (and Resume will accept). At warehouse scale a scheduler
// bug that stops placing jobs would otherwise accumulate millions of
// pending jobs and turn every checkpoint into an OOM; the bound converts
// that into a loud, attributable error long before the allocator dies. It
// is a var so tests can tighten it.
var maxCheckpointJobs = 2_000_000

// This file is the simulator side of crash-consistent checkpoint/restore:
// Checkpoint captures every piece of mutable state a run accumulates — the
// event heap, RNG stream position, running-attempt progress, chaos windows,
// retry ledgers, metrics and the scheduler's own serialized state — and
// Resume rebuilds a simulator that continues bit-identically from that
// point. The envelope (versioning, checksums, atomic writes) lives in
// internal/checkpoint; this file only deals in state.

// ErrControllerKilled is returned by Run when fault injection kills the
// scheduler process (chaos.KindControllerKill with ExitOnControllerKill
// set). The run did not finalize: restart from the latest checkpoint with
// Resume, or from scratch with SetSurvivedKills.
var ErrControllerKilled = errors.New("sim: controller killed by fault injection")

// CheckpointSink consumes checkpoints as the run takes them. The pointed-to
// Checkpoint shares memory with the live simulator, so a sink must fully
// serialize it before returning and must not retain the pointer.
type CheckpointSink func(*Checkpoint) error

// EventState is one serialized pending event, stored canonically sorted by
// (At, Seq): the order is independent of the event heap's internal layout.
type EventState struct {
	At      time.Duration
	Seq     int64
	Kind    int
	Job     *job.Job `json:",omitempty"` // arrivals
	JobID   job.ID
	Version int64
	Fault   chaos.Fault
	// RunAttempt re-pins an evJobFail event to the attempt it was armed
	// against (see runningJob.attempt); 0 means no pinned attempt.
	RunAttempt int64
}

// RunningState is one serialized running attempt. The perfmodel handle is
// not stored — it is re-derived from the job's model name on restore.
type RunningState struct {
	Job        job.Job
	Alloc      job.Allocation
	Remaining  time.Duration
	Speed      float64
	LastUpdate time.Duration
	Version    int64
	StartedAt  time.Duration
	BwDemand   float64
	Attempt    int64
}

// RetryCount is one job's fault-kill tally.
type RetryCount struct {
	Job   job.ID
	Count int
}

// Checkpoint is the full serializable state of a run in flight. All slices
// that mirror maps are sorted by job ID so the encoding is deterministic;
// accumulated floats are stored verbatim, never recomputed, which is what
// makes a resumed run bit-identical rather than merely close.
type Checkpoint struct {
	// Options reproduces the run configuration (the sink itself is not
	// serializable and is supplied anew to Resume).
	Options Options
	Now     time.Duration
	Seq     int64
	// RNGDraws is the measurement-noise stream position: Resume re-seeds
	// from Options.Seed and discards exactly this many draws.
	RNGDraws uint64
	Attempts int64

	Events   []EventState
	Pending  []job.Job
	Retrying []job.Job
	Running  []RunningState
	PcieLoad []float64

	// StartedOnce lists the in-flight jobs whose first start (and hence
	// queue-time CDF sample) already happened: the running jobs plus any
	// killed, preempted or resubmitted ones back in pending/retrying. Resume
	// rebuilds the set so a restarted attempt is not sampled twice.
	StartedOnce []job.ID `json:",omitempty"`

	ArrivalsLeft int
	LastArrival  time.Duration
	StallCount   int

	// Trace is the streaming-intake cursor (nil for materialized-slice
	// runs): trace config, per-stream RNG draw counts and order-statistic
	// state — everything trace.Resume needs to regenerate the one in-queue
	// arrival (which Events deliberately omits) and the rest of the stream.
	Trace *trace.Cursor `json:",omitempty"`

	ChaosOn     bool
	FaultsLeft  int
	DownDepth   []int       `json:",omitempty"`
	DarkDepth   []int       `json:",omitempty"`
	SlowFactors [][]float64 `json:",omitempty"`
	Retries     []RetryCount
	FailedOnce  []job.ID

	Admitted      int
	CompletedJobs int
	TerminalJobs  int
	CancelledJobs int

	NextCheckpointAt      time.Duration
	EventsSinceCheckpoint int

	Cluster cluster.State
	Monitor membw.MonitorState
	Results *Result

	// SchedulerName guards against resuming under a different policy;
	// Scheduler is the policy's own opaque state (sched.Checkpointer).
	SchedulerName string
	Scheduler     json.RawMessage
}

// SetSurvivedKills tells a fresh (non-resumed) simulator how many controller
// kills its predecessor processes already died to: the chaos schedule
// replays identically on restart, so the first n kills are survived history,
// not new deaths. Resume sets this automatically from the checkpoint.
func (s *Simulator) SetSurvivedKills(n int) { s.killsSurvived = n }

// Checkpoint captures the run's current state. The result shares memory
// with the live simulator — serialize it before the simulation advances.
func (s *Simulator) Checkpoint() (*Checkpoint, error) {
	ckp, ok := s.scheduler.(sched.Checkpointer)
	if !ok {
		return nil, fmt.Errorf("sim: scheduler %q does not support checkpointing", s.scheduler.Name())
	}
	schedState, err := ckp.CheckpointState()
	if err != nil {
		return nil, fmt.Errorf("sim: checkpoint scheduler: %w", err)
	}
	if n := len(s.pending) + len(s.retrying); n > maxCheckpointJobs {
		return nil, fmt.Errorf(
			"sim: checkpoint at t=%v: %d pending+retrying jobs exceed the %d-job serialization bound (scheduler not draining the queue?)",
			s.now, n, maxCheckpointJobs)
	}

	ck := &Checkpoint{
		Options:  s.opts,
		Now:      s.now,
		Seq:      s.seq,
		RNGDraws: s.rngDraws,
		Attempts: s.attempts,

		Pending:  sortedJobs(s.pending),
		Retrying: sortedJobs(s.retrying),
		PcieLoad: s.pcieLoad,

		ArrivalsLeft: s.arrivalsLeft,
		LastArrival:  s.lastArrival,
		StallCount:   s.stallCount,

		ChaosOn:     s.chaosOn,
		FaultsLeft:  s.faultsLeft,
		DownDepth:   s.downDepth,
		DarkDepth:   s.darkDepth,
		SlowFactors: s.slowFactors,

		Admitted:      s.admitted,
		CompletedJobs: s.completedJobs,
		TerminalJobs:  s.terminalJobs,
		CancelledJobs: s.cancelledJobs,

		NextCheckpointAt:      s.nextCheckpointAt,
		EventsSinceCheckpoint: s.eventsSinceCheckpoint,

		Cluster: s.cluster.CheckpointState(),
		Monitor: s.monitor.CheckpointState(),
		Results: s.results,

		SchedulerName: s.scheduler.Name(),
		Scheduler:     schedState,
	}
	ck.Options.CheckpointSink = nil
	if s.source != nil {
		// Copy the cursor: the checkpoint must not alias the live field,
		// which queueNextArrival overwrites at the next arrival.
		cur := s.sourceCursor
		ck.Trace = &cur
	}

	// Canonicalize the pending events to sorted (at, seq) order — the heap's
	// internal layout must not leak into the encoding. A streamed run's
	// single in-queue arrival is skipped: Resume regenerates it (job and
	// sequence number both) from the Trace cursor.
	evs := slices.Clone(s.events)
	sort.Slice(evs, func(i, j int) bool {
		if evs[i].at != evs[j].at {
			return evs[i].at < evs[j].at
		}
		return evs[i].seq < evs[j].seq
	})
	ck.Events = make([]EventState, 0, len(evs))
	for _, e := range evs {
		if s.source != nil && e.kind == evArrival {
			continue
		}
		es := EventState{
			At: e.at, Seq: e.seq, Kind: int(e.kind),
			Job: e.job, JobID: e.jobID, Version: e.version, Fault: e.fault,
		}
		if e.run != nil {
			es.RunAttempt = e.run.attempt
		}
		ck.Events = append(ck.Events, es)
	}
	//coda:ordered-ok entries are sorted below before serialization
	for _, r := range s.running {
		ck.Running = append(ck.Running, RunningState{
			Job: *r.job, Alloc: r.alloc.Clone(), Remaining: r.remaining,
			Speed: r.speed, LastUpdate: r.lastUpdate, Version: r.version,
			StartedAt: r.startedAt, BwDemand: r.bwDemand, Attempt: r.attempt,
		})
	}
	sort.Slice(ck.Running, func(i, j int) bool { return ck.Running[i].Job.ID < ck.Running[j].Job.ID })
	//coda:ordered-ok entries are sorted below before serialization
	for id, n := range s.retries {
		ck.Retries = append(ck.Retries, RetryCount{Job: id, Count: n})
	}
	sort.Slice(ck.Retries, func(i, j int) bool { return ck.Retries[i].Job < ck.Retries[j].Job })
	//coda:ordered-ok entries are sorted below before serialization
	for id := range s.failedOnce {
		ck.FailedOnce = append(ck.FailedOnce, id)
	}
	sort.Slice(ck.FailedOnce, func(i, j int) bool { return ck.FailedOnce[i] < ck.FailedOnce[j] })
	//coda:ordered-ok entries are sorted below before serialization
	for id := range s.startedOnce {
		ck.StartedOnce = append(ck.StartedOnce, id)
	}
	sort.Slice(ck.StartedOnce, func(i, j int) bool { return ck.StartedOnce[i] < ck.StartedOnce[j] })
	return ck, nil
}

func sortedJobs(m map[job.ID]*job.Job) []job.Job {
	out := make([]job.Job, 0, len(m))
	//coda:ordered-ok entries are sorted below before serialization
	for _, j := range m {
		out = append(out, *j)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Resume rebuilds a simulator from a checkpoint so that Run continues
// bit-identically with the uninterrupted run. The scheduler must be freshly
// constructed with the same policy and parameters as the checkpointed one
// (its state is restored before Bind); sink replaces the unserializable
// CheckpointSink from the original options and may be nil to stop
// checkpointing. Resume takes ownership of ck, which must come from a
// decoded checkpoint file, not from a live simulator.
func Resume(ck *Checkpoint, scheduler sched.Scheduler, sink CheckpointSink) (*Simulator, error) {
	if scheduler == nil {
		return nil, errors.New("sim: resume: scheduler is nil")
	}
	if scheduler.Name() != ck.SchedulerName {
		return nil, fmt.Errorf("sim: resume: checkpoint was taken under scheduler %q, got %q",
			ck.SchedulerName, scheduler.Name())
	}
	ckp, ok := scheduler.(sched.Checkpointer)
	if !ok {
		return nil, fmt.Errorf("sim: resume: scheduler %q does not support checkpointing", scheduler.Name())
	}
	if ck.Results == nil {
		return nil, errors.New("sim: resume: checkpoint carries no results")
	}
	opts := ck.Options
	opts.CheckpointSink = sink
	if err := opts.Validate(); err != nil {
		return nil, fmt.Errorf("sim: resume: %w", err)
	}
	nodes := opts.Cluster.TotalNodes()
	if len(ck.PcieLoad) != nodes {
		return nil, fmt.Errorf("sim: resume: %d pcie loads for %d nodes", len(ck.PcieLoad), nodes)
	}
	if n := len(ck.Pending) + len(ck.Retrying); n > maxCheckpointJobs {
		return nil, fmt.Errorf(
			"sim: resume: %d pending+retrying jobs exceed the %d-job checkpoint bound (corrupt or runaway checkpoint)",
			n, maxCheckpointJobs)
	}

	c, err := cluster.New(opts.Cluster)
	if err != nil {
		return nil, fmt.Errorf("sim: resume: %w", err)
	}
	if err := c.RestoreCheckpointState(ck.Cluster); err != nil {
		return nil, fmt.Errorf("sim: resume cluster: %w", err)
	}
	mon, err := membw.NewMonitor(nodes, opts.Cluster.BandwidthGBs, opts.MBASupported)
	if err != nil {
		return nil, fmt.Errorf("sim: resume: %w", err)
	}
	if err := mon.RestoreCheckpointState(ck.Monitor); err != nil {
		return nil, fmt.Errorf("sim: resume monitor: %w", err)
	}

	s := &Simulator{
		opts:        opts,
		cluster:     c,
		monitor:     mon,
		scheduler:   scheduler,
		rng:         rand.New(rand.NewSource(opts.Seed)),
		pending:     make(map[job.ID]*job.Job, len(ck.Pending)),
		running:     make(map[job.ID]*runningJob, len(ck.Running)),
		pcieLoad:    append([]float64(nil), ck.PcieLoad...),
		cpuCoresOn:  make([]int, nodes),
		refreshSeen: make(map[job.ID]bool),

		now:      ck.Now,
		seq:      ck.Seq,
		rngDraws: ck.RNGDraws,
		attempts: ck.Attempts,

		arrivalsLeft: ck.ArrivalsLeft,
		lastArrival:  ck.LastArrival,
		stallCount:   ck.StallCount,

		admitted:      ck.Admitted,
		completedJobs: ck.CompletedJobs,
		terminalJobs:  ck.TerminalJobs,
		cancelledJobs: ck.CancelledJobs,

		killsSurvived: ck.Results.Faults.ControllerKills,
		resumed:       true,

		nextCheckpointAt:      ck.NextCheckpointAt,
		eventsSinceCheckpoint: ck.EventsSinceCheckpoint,

		results: ck.Results,
	}
	// Fast-forward the noise generator to the checkpointed stream position.
	for i := uint64(0); i < ck.RNGDraws; i++ {
		_ = s.rng.Float64()
	}

	for i := range ck.Pending {
		j := ck.Pending[i]
		if _, dup := s.pending[j.ID]; dup {
			return nil, fmt.Errorf("sim: resume: duplicate pending job %d", j.ID)
		}
		s.pending[j.ID] = &j
	}
	for i := range ck.Running {
		rs := ck.Running[i]
		if _, dup := s.running[rs.Job.ID]; dup {
			return nil, fmt.Errorf("sim: resume: duplicate running job %d", rs.Job.ID)
		}
		j := rs.Job
		r := &runningJob{
			job: &j, alloc: rs.Alloc.Clone(), remaining: rs.Remaining,
			speed: rs.Speed, lastUpdate: rs.LastUpdate, version: rs.Version,
			startedAt: rs.StartedAt, bwDemand: rs.BwDemand, attempt: rs.Attempt,
		}
		if j.IsGPU() {
			model, err := perfmodel.Lookup(j.Model)
			if err != nil {
				return nil, fmt.Errorf("sim: resume job %d: %w", j.ID, err)
			}
			r.model = model
		}
		s.running[j.ID] = r
		// cpuCoresOn is derived state: rebuild it from the restored
		// allocations instead of serializing it.
		if !j.IsGPU() {
			for _, nid := range r.alloc.NodeIDs {
				s.cpuCoresOn[nid] += r.alloc.CPUCores
			}
		}
	}

	s.startedOnce = make(map[job.ID]bool, len(ck.StartedOnce))
	if len(ck.StartedOnce) > 0 {
		for _, id := range ck.StartedOnce {
			s.startedOnce[id] = true
		}
	} else {
		// Checkpoints written before StartedOnce existed omit the field;
		// those predate MaxJobStats too, so the per-job records are complete
		// and the set can be rebuilt from them.
		for id, js := range ck.Results.Jobs {
			if js.Started && !js.Completed && !js.TerminallyFailed && !js.Cancelled {
				s.startedOnce[id] = true
			}
		}
	}
	//coda:ordered-ok error reporting on a corrupt checkpoint; any witness will do
	for id := range s.running {
		if !s.startedOnce[id] {
			return nil, fmt.Errorf("sim: resume: running job %d not marked as started", id)
		}
	}

	if ck.ChaosOn {
		s.chaosOn = true
		s.faultsLeft = ck.FaultsLeft
		if len(ck.DownDepth) != nodes || len(ck.DarkDepth) != nodes || len(ck.SlowFactors) != nodes {
			return nil, fmt.Errorf("sim: resume: chaos state sized %d/%d/%d for %d nodes",
				len(ck.DownDepth), len(ck.DarkDepth), len(ck.SlowFactors), nodes)
		}
		s.downDepth = append([]int(nil), ck.DownDepth...)
		s.darkDepth = append([]int(nil), ck.DarkDepth...)
		s.slowFactors = make([][]float64, nodes)
		for i, fs := range ck.SlowFactors {
			s.slowFactors[i] = append([]float64(nil), fs...)
		}
		s.retries = make(map[job.ID]int, len(ck.Retries))
		for _, rc := range ck.Retries {
			s.retries[rc.Job] = rc.Count
		}
		s.retrying = make(map[job.ID]*job.Job, len(ck.Retrying))
		for i := range ck.Retrying {
			j := ck.Retrying[i]
			if _, dup := s.retrying[j.ID]; dup {
				return nil, fmt.Errorf("sim: resume: duplicate retrying job %d", j.ID)
			}
			s.retrying[j.ID] = &j
		}
		s.failedOnce = make(map[job.ID]bool, len(ck.FailedOnce))
		for _, id := range ck.FailedOnce {
			s.failedOnce[id] = true
		}
	} else if ck.FaultsLeft != 0 || len(ck.Retrying) != 0 {
		return nil, errors.New("sim: resume: chaos state present but chaos is off")
	}

	for i, es := range ck.Events {
		kind := eventKind(es.Kind)
		switch kind {
		case evArrival:
			if ck.Trace != nil {
				return nil, fmt.Errorf("sim: resume: streamed checkpoint carries materialized arrival event %d", i)
			}
			if es.Job == nil {
				return nil, fmt.Errorf("sim: resume: arrival event %d carries no job", i)
			}
		case evCompletion, evTick, evSample, evFault, evResubmit, evJobFail:
		default:
			return nil, fmt.Errorf("sim: resume: event %d has unknown kind %d", i, es.Kind)
		}
		e := &event{
			at: es.At, seq: es.Seq, kind: kind,
			job: es.Job, jobID: es.JobID, version: es.Version, fault: es.Fault,
		}
		if kind == evJobFail && es.RunAttempt != 0 {
			// Re-pin the injected failure to its attempt. A mismatch (or a
			// no-longer-running job) means the event was already stale at
			// checkpoint time; leaving run nil keeps it stale after resume.
			if r, ok := s.running[es.JobID]; ok && r.attempt == es.RunAttempt {
				e.run = r
			}
		}
		heap.Push(&s.events, e)
	}

	if ck.Trace != nil {
		src, err := trace.Resume(*ck.Trace)
		if err != nil {
			return nil, fmt.Errorf("sim: resume trace source: %w", err)
		}
		s.source = src
		s.totalJobs = src.Total()
		// Regenerate the arrival the checkpoint skipped: the cursor was
		// captured immediately before that job was drawn, so the first
		// draw of the resumed source is exactly it.
		s.queueNextArrival()
		if s.intakeErr != nil {
			return nil, fmt.Errorf("sim: resume: %w", s.intakeErr)
		}
	}

	if err := ckp.RestoreCheckpoint(ck.Scheduler); err != nil {
		return nil, fmt.Errorf("sim: resume scheduler: %w", err)
	}
	scheduler.Bind(s)

	// A checkpoint is taken after the invariant gate, so a restored state
	// must pass it too — unconditionally, even when the run itself has
	// Options.Invariants off. A failure here means the checkpoint (or the
	// restore path) is corrupt and the run must not start.
	if err := s.CheckInvariants(); err != nil {
		return nil, fmt.Errorf("sim: resumed state fails invariants: %w", err)
	}
	return s, nil
}

// maybeCheckpoint takes a checkpoint when either cadence has come due. Both
// cadences can be armed at once; one checkpoint satisfies both.
func (s *Simulator) maybeCheckpoint() error {
	if s.opts.CheckpointSink == nil {
		return nil
	}
	due := false
	if n := s.opts.CheckpointEveryEvents; n > 0 {
		s.eventsSinceCheckpoint++
		if s.eventsSinceCheckpoint >= n {
			due = true
			s.eventsSinceCheckpoint = 0
		}
	}
	if every := s.opts.CheckpointEvery; every > 0 {
		// Catch up past idle stretches: arm exactly one checkpoint, advance
		// the deadline past now.
		for s.now >= s.nextCheckpointAt {
			due = true
			s.nextCheckpointAt += every
		}
	}
	if !due {
		return nil
	}
	ck, err := s.Checkpoint()
	if err != nil {
		return err
	}
	return s.opts.CheckpointSink(ck)
}
