// Package sim is the deterministic discrete-event simulator that stands in
// for the paper's physical 80-node GPU cluster. It owns virtual time, job
// arrival/completion events, job progress integration (work advances at
// the speed the perfmodel package dictates for the current allocation and
// contention), memory-bandwidth and PCIe accounting, and metric sampling.
// Schedulers act on the cluster exclusively through the sched.Env interface
// this package implements, so FIFO, DRF and CODA run under identical
// physics.
package sim

import (
	"container/heap"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"time"

	"github.com/coda-repro/coda/internal/chaos"
	"github.com/coda-repro/coda/internal/cluster"
	"github.com/coda-repro/coda/internal/job"
	"github.com/coda-repro/coda/internal/membw"
	"github.com/coda-repro/coda/internal/perfmodel"
	"github.com/coda-repro/coda/internal/sched"
	"github.com/coda-repro/coda/internal/trace"
)

// Options configures a simulation run.
type Options struct {
	// Cluster describes the hardware.
	Cluster cluster.Config
	// MBASupported controls whether nodes offer MBA throttling (§V-D's
	// fallback path halves CPU-job cores when false).
	MBASupported bool
	// TickInterval is the scheduler's periodic invocation cadence.
	TickInterval time.Duration
	// SampleInterval is the metrics sampling cadence.
	SampleInterval time.Duration
	// UtilNoise is the relative amplitude of GPU-utilization measurement
	// noise (the allocator must tolerate it, §V-B2).
	UtilNoise float64
	// Seed drives the measurement-noise generator.
	Seed int64
	// MaxVirtualTime aborts runaway simulations; 0 means no cap.
	MaxVirtualTime time.Duration
	// Faults is the deterministic fault-injection plan; the zero value
	// injects nothing and leaves every code path of a fault-free run
	// untouched (bit-identical to a build without chaos).
	Faults chaos.Plan
	// Invariants enables the always-on invariant checker: after every
	// event the simulator validates cluster accounting, queue/running
	// disjointness and job conservation, and Run fails fast on the first
	// violation. Tests enable it everywhere; cmd/coda-sim exposes it as
	// the -invariants flag.
	Invariants bool
	// InvariantsEvery is the full-audit cadence when Invariants is on: a
	// positive N runs the O(Δ) delta check — only the nodes and jobs the
	// event touched — after every event and the full audit every N events.
	// 0 runs the full audit after every event (tests use that everywhere;
	// the delta path is for month-scale runs that still want checking).
	// Ignored while Invariants is off.
	InvariantsEvery int

	// CheckpointEvery takes a crash-consistent checkpoint each time virtual
	// time advances past another multiple of this cadence; 0 disables
	// time-based checkpointing. CheckpointEveryEvents checkpoints every N
	// processed events; 0 disables event-based checkpointing. Both feed
	// CheckpointSink and are no-ops without one.
	CheckpointEvery       time.Duration
	CheckpointEveryEvents int
	// CheckpointSink receives each checkpoint. The *Checkpoint shares memory
	// with the live simulator: a sink must serialize (checkpoint.Encode or
	// equivalent) before returning and must not retain the pointer.
	CheckpointSink CheckpointSink `json:"-"`
	// ExitOnControllerKill makes an injected chaos.KindControllerKill abort
	// Run with ErrControllerKilled, simulating scheduler-process death. When
	// false the kill is only counted — that is the baseline an interrupted-
	// and-resumed run must reproduce bit-for-bit.
	ExitOnControllerKill bool
	// MaxJobStats bounds the per-job history kept in Result.Jobs: only the
	// first N admitted jobs get a JobStats record (aggregate counters and
	// distributions still observe every job). 0 keeps every job, which is
	// O(jobs) memory — fine at paper scale, not at 25M jobs.
	MaxJobStats int
	// CompactCDFs stores the queueing-time distributions (GPUQueue,
	// CPUQueue, PerTenant) as log-bucketed sketches of ~500 fixed buckets
	// instead of raw per-job samples, making result size independent of job
	// count at ≤12.5% value resolution. Dumps of compact runs are not
	// byte-comparable to dumps of exact runs.
	CompactCDFs bool
	// Service switches the simulator into control-plane mode: the run is
	// driven incrementally with RunUntil instead of Run, jobs and faults are
	// injected at the current virtual time (InjectArrival/InjectFault), jobs
	// can be cancelled, tick and sample events re-arm unconditionally (an
	// online service idles between requests instead of finishing), and the
	// stall detector is off. Chaos state is always initialized so node
	// drain/leave/join operations can flow through the fault machinery.
	Service bool
}

// DefaultOptions returns the standard run configuration.
func DefaultOptions() Options {
	return Options{
		Cluster:        cluster.DefaultConfig(),
		MBASupported:   true,
		TickInterval:   30 * time.Second,
		SampleInterval: 5 * time.Minute,
		UtilNoise:      0.005,
		Seed:           7,
	}
}

// Validate checks the options.
func (o Options) Validate() error {
	if err := o.Cluster.Validate(); err != nil {
		return err
	}
	if o.TickInterval <= 0 {
		return fmt.Errorf("sim options: tick interval must be positive, got %v", o.TickInterval)
	}
	if o.SampleInterval <= 0 {
		return fmt.Errorf("sim options: sample interval must be positive, got %v", o.SampleInterval)
	}
	if o.UtilNoise < 0 || o.UtilNoise >= 0.5 {
		return fmt.Errorf("sim options: util noise %g out of [0, 0.5)", o.UtilNoise)
	}
	if o.MaxVirtualTime < 0 {
		return fmt.Errorf("sim options: negative max virtual time %v", o.MaxVirtualTime)
	}
	if o.InvariantsEvery < 0 {
		return fmt.Errorf("sim options: negative invariant audit cadence %d", o.InvariantsEvery)
	}
	if o.CheckpointEvery < 0 {
		return fmt.Errorf("sim options: negative checkpoint cadence %v", o.CheckpointEvery)
	}
	if o.CheckpointEveryEvents < 0 {
		return fmt.Errorf("sim options: negative checkpoint event cadence %d", o.CheckpointEveryEvents)
	}
	if o.MaxJobStats < 0 {
		return fmt.Errorf("sim options: negative per-job stats bound %d", o.MaxJobStats)
	}
	if !o.Faults.Empty() {
		if err := o.Faults.Validate(o.Cluster.TotalNodes()); err != nil {
			return err
		}
	}
	return nil
}

// eventKind enumerates simulator events.
type eventKind int

const (
	evArrival eventKind = iota + 1
	evCompletion
	evTick
	evSample
	// evFault delivers one pre-compiled chaos fault.
	evFault
	// evResubmit requeues a fault-killed job after its retry backoff.
	evResubmit
	// evJobFail is an injected mid-run failure of one running attempt.
	evJobFail
)

// String implements fmt.Stringer (for invariant-violation reports).
func (k eventKind) String() string {
	switch k {
	case evArrival:
		return "arrival"
	case evCompletion:
		return "completion"
	case evTick:
		return "tick"
	case evSample:
		return "sample"
	case evFault:
		return "fault"
	case evResubmit:
		return "resubmit"
	case evJobFail:
		return "job-failure"
	default:
		return fmt.Sprintf("event(%d)", int(k))
	}
}

// event is one heap entry. seq breaks time ties deterministically in
// insertion order.
type event struct {
	at      time.Duration
	seq     int64
	kind    eventKind
	job     *job.Job // arrivals
	jobID   job.ID   // completions, resubmits
	version int64    // completions: must match the running job's version
	// fault is the chaos fault to apply (evFault).
	fault chaos.Fault
	// run pins an injected failure (evJobFail) to one specific attempt: if
	// the attempt completed, was preempted or was crash-killed first, the
	// pointer no longer matches s.running and the event is stale.
	run *runningJob
}

// eventHeap is the pending-event queue: a binary min-heap on (at, seq), so
// events come out in strictly ascending (at, seq) order regardless of
// insertion order. Checkpoints never record its layout: the snapshot is
// canonicalized to sorted (at, seq) order.
type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(*event)) }
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	it := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return it
}

// runningJob is the live state of a started job.
type runningJob struct {
	job   *job.Job
	model *perfmodel.Model // nil for CPU jobs
	alloc job.Allocation
	// remaining is work left, measured in time-at-full-speed.
	remaining time.Duration
	// speed is the current progress rate in (0, 1].
	speed float64
	// lastUpdate is when remaining was last integrated.
	lastUpdate time.Duration
	// version invalidates stale completion events after speed changes.
	version int64
	// startedAt is when this (possibly re-queued) run began.
	startedAt time.Duration
	// bwDemand is the job's current per-node unthrottled bandwidth demand.
	bwDemand float64
	// attempt is a simulator-wide monotonic serial for this started attempt.
	// Checkpoints use it to re-pin evJobFail events to the attempt they were
	// armed against: a pointer cannot survive serialization, a serial can.
	attempt int64
}

// cfg returns the job's training configuration.
func (r *runningJob) cfg() perfmodel.Config {
	return perfmodel.Config{
		Nodes: len(r.alloc.NodeIDs),
		GPUs:  r.alloc.GPUs * len(r.alloc.NodeIDs),
	}
}

// minSpeed floors progress so completion events always exist.
const minSpeed = 0.01

// Simulator drives one scheduler over one trace.
type Simulator struct {
	opts      Options
	cluster   *cluster.Cluster
	monitor   *membw.Monitor
	scheduler sched.Scheduler
	rng       *rand.Rand

	now    time.Duration
	events eventHeap
	seq    int64

	// Streaming intake (nil source means the materialized-slice path).
	// Exactly one arrival event sits in the queue at a time; handleArrival
	// pulls the next one from the source on demand. sourceCursor is the
	// source state captured immediately before drawing the queued arrival,
	// so a checkpoint can regenerate it; totalJobs anchors the arrival
	// sequence numbers; intakeErr latches a mid-run generation failure.
	source       *trace.Source
	sourceCursor trace.Cursor
	totalJobs    int
	intakeErr    error

	// rngDraws counts measurement-noise draws so a resumed run can re-seed
	// the generator and fast-forward to the same stream position.
	rngDraws uint64
	// attempts is the monotonic serial handed to each started attempt.
	attempts int64

	pending map[job.ID]*job.Job
	running map[job.ID]*runningJob
	// startedOnce marks jobs that started at least once and have not yet
	// reached a terminal state. A job's queue-time sample fires exactly on
	// its first start, and the aggregate CDFs must see every job even when
	// Options.MaxJobStats bounds the per-job Jobs map — so first-start
	// detection cannot live in the result records. Entries are deleted on
	// completion, terminal failure and cancellation, keeping the set sized
	// by the in-flight population, not the trace length.
	startedOnce map[job.ID]bool
	// pcieLoad is the per-node sum of GPU-job PCIe demands.
	pcieLoad []float64

	arrivalsLeft int
	lastArrival  time.Duration
	stallCount   int

	// Chaos state. chaosOn gates every fault code path so a fault-free run
	// never consults any of it.
	chaosOn bool
	// faultsLeft counts undelivered evFault events: while positive, the
	// stall detector must not declare a wedge (a recovery may still come).
	faultsLeft int
	// downDepth / darkDepth count overlapping crash / telemetry-dark
	// windows per node; slowFactors holds each node's active straggler
	// multipliers. Slices, indexed by node ID, for deterministic scans.
	downDepth   []int
	darkDepth   []int
	slowFactors [][]float64
	// retries counts fault kills per job; retrying holds killed jobs
	// waiting out their backoff; failedOnce marks jobs whose injected
	// failure already fired.
	retries    map[job.ID]int
	retrying   map[job.ID]*job.Job
	failedOnce map[job.ID]bool
	// admitted / completedJobs / terminalJobs / cancelledJobs feed the
	// job-conservation invariant: admitted = arrivalsLeft + pending +
	// running + retrying + completed + terminal + cancelled at every event
	// boundary.
	admitted      int
	completedJobs int
	terminalJobs  int
	cancelledJobs int

	// Checkpoint/restore state. killsSurvived is how many controller kills
	// this process has already lived through (kills recorded before the
	// checkpoint it resumed from, or set by the harness for fresh restarts);
	// only a kill beyond that count aborts the run. killed latches the abort;
	// resumed suppresses the bootstrap events Run would otherwise re-push.
	killsSurvived         int
	killed                bool
	resumed               bool
	bootstrapped          bool
	nextCheckpointAt      time.Duration
	eventsSinceCheckpoint int

	// freeEvents is a deterministic free-list of recycled heap events: the
	// event loop allocates an *event only when the list is empty. (A
	// sync.Pool would tie recycling to the runtime scheduler and GC — this
	// stays bit-identical run to run.)
	freeEvents []*event
	// cpuCoresOn[nid] is the per-node sum of CPU-job cores, maintained
	// incrementally so the contention hot path never walks node job maps.
	cpuCoresOn []int
	// Reusable scratch: refreshSeen/refreshIDs back refreshNodes,
	// sampleIDs backs sample, fragMinCores backs fragRate, invIDs backs
	// the invariant checkers, touchedJobs journals the job IDs events
	// touched for the delta invariant check.
	refreshSeen  map[job.ID]bool
	refreshIDs   []job.ID
	sampleIDs    []job.ID
	fragMinCores map[int]int
	invIDs       []job.ID
	invUsages    []membw.JobUsage
	touchedJobs  []job.ID
	// eventsSinceAudit counts events since the last full invariant audit.
	eventsSinceAudit int

	results *Result
}

// newSimulator builds the trace-independent core shared by New (materialized
// slice) and NewStreaming (lazy source): cluster, monitor, queue, result
// containers. The caller seeds the intake path, arms chaos and binds the
// scheduler.
func newSimulator(opts Options, scheduler sched.Scheduler) (*Simulator, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	if scheduler == nil {
		return nil, errors.New("sim: scheduler is nil")
	}
	c, err := cluster.New(opts.Cluster)
	if err != nil {
		return nil, err
	}
	mon, err := membw.NewMonitor(opts.Cluster.TotalNodes(), opts.Cluster.BandwidthGBs, opts.MBASupported)
	if err != nil {
		return nil, err
	}
	// Seal the simulator's copy of the options: the fault plan's slice must
	// not alias the caller's, or editing a reused spec would rewrite this
	// run's schedule.
	opts = opts.Clone()
	s := &Simulator{
		opts:        opts,
		cluster:     c,
		monitor:     mon,
		scheduler:   scheduler,
		rng:         rand.New(rand.NewSource(opts.Seed)),
		pending:     make(map[job.ID]*job.Job),
		running:     make(map[job.ID]*runningJob),
		startedOnce: make(map[job.ID]bool),
		pcieLoad:    make([]float64, opts.Cluster.TotalNodes()),
		cpuCoresOn:  make([]int, opts.Cluster.TotalNodes()),
		refreshSeen: make(map[job.ID]bool),
		results:     newResult(scheduler.Name(), opts.CompactCDFs),
	}
	if opts.CheckpointEvery > 0 {
		s.nextCheckpointAt = opts.CheckpointEvery
	}
	if opts.MaxVirtualTime > 0 && opts.SampleInterval > 0 {
		samples := int(opts.MaxVirtualTime/opts.SampleInterval) + 2
		s.results.growSeries(samples)
	}
	return s, nil
}

// armChaos initializes fault-injection state and queues the compiled fault
// schedule. It must run after the intake path has been seeded so fault
// events sort after coincident arrivals in both intake modes.
func (s *Simulator) armChaos() error {
	opts := s.opts
	// Service mode always initializes chaos state even with an empty plan:
	// node drain/leave/join operations are delivered through the fault
	// machinery at runtime.
	if !opts.Faults.Empty() || opts.Service {
		s.chaosOn = true
		s.downDepth = make([]int, opts.Cluster.TotalNodes())
		s.darkDepth = make([]int, opts.Cluster.TotalNodes())
		s.slowFactors = make([][]float64, opts.Cluster.TotalNodes())
		s.retries = make(map[job.ID]int)
		s.retrying = make(map[job.ID]*job.Job)
		s.failedOnce = make(map[job.ID]bool)
	}
	if !opts.Faults.Empty() {
		faults, err := opts.Faults.Compile(opts.Cluster.TotalNodes())
		if err != nil {
			return fmt.Errorf("sim: %w", err)
		}
		for _, f := range faults {
			s.pushEvent(event{at: f.At, kind: evFault, fault: f})
			s.faultsLeft++
		}
	}
	return nil
}

// New builds a simulator for the scheduler and a fully materialized trace.
func New(opts Options, scheduler sched.Scheduler, jobs []*job.Job) (*Simulator, error) {
	s, err := newSimulator(opts, scheduler)
	if err != nil {
		return nil, err
	}
	s.totalJobs = len(jobs)
	gpuJobs, cpuJobs := 0, 0
	for _, j := range jobs {
		if err := j.Validate(); err != nil {
			return nil, fmt.Errorf("sim: %w", err)
		}
		s.pushEvent(event{at: j.Arrival, kind: evArrival, job: j})
		if j.Arrival > s.lastArrival {
			s.lastArrival = j.Arrival
		}
		s.arrivalsLeft++
		if j.IsGPU() {
			gpuJobs++
		} else {
			cpuJobs++
		}
	}
	// Pre-size the trace-proportional metric storage so month-scale runs
	// never grow it mid-flight.
	s.results.GPUQueue.Grow(gpuJobs)
	s.results.CPUQueue.Grow(cpuJobs)
	s.admitted = s.arrivalsLeft
	if err := s.armChaos(); err != nil {
		return nil, err
	}
	s.results.LastArrival = s.lastArrival
	scheduler.Bind(s)
	return s, nil
}

// NewStreaming builds a simulator that pulls its trace lazily from src:
// exactly one pending arrival event exists at any moment, so intake memory
// is O(1) in the job count. The source must be freshly constructed (nothing
// drained); the simulator takes ownership and drains it as the run advances.
//
// At identical Options and trace config, a streaming run's results are
// byte-identical (per DumpResult) to a materialized New run over
// trace.Generate of the same config.
func NewStreaming(opts Options, scheduler sched.Scheduler, src *trace.Source) (*Simulator, error) {
	if src == nil {
		return nil, errors.New("sim: streaming trace source is nil")
	}
	if src.Remaining() != src.Total() {
		return nil, fmt.Errorf("sim: streaming trace source already drained %d of %d jobs",
			src.Total()-src.Remaining(), src.Total())
	}
	s, err := newSimulator(opts, scheduler)
	if err != nil {
		return nil, err
	}
	s.source = src
	s.totalJobs = src.Total()
	s.arrivalsLeft = s.totalJobs
	s.admitted = s.totalJobs
	cfg := src.Config()
	s.results.GPUQueue.Grow(cfg.GPUJobs)
	s.results.CPUQueue.Grow(cfg.CPUJobs)
	s.queueNextArrival()
	if s.intakeErr != nil {
		return nil, fmt.Errorf("sim: %w", s.intakeErr)
	}
	if err := s.armChaos(); err != nil {
		return nil, err
	}
	scheduler.Bind(s)
	return s, nil
}

func (s *Simulator) push(e *event) {
	e.seq = s.seq
	s.seq++
	heap.Push(&s.events, e)
}

// takeEvent returns a recycled queue entry when one is free so the
// steady-state event loop allocates nothing per event.
func (s *Simulator) takeEvent() *event {
	if n := len(s.freeEvents); n > 0 {
		e := s.freeEvents[n-1]
		s.freeEvents[n-1] = nil
		s.freeEvents = s.freeEvents[:n-1]
		return e
	}
	return new(event)
}

// pushEvent queues ev with the next auto-assigned sequence number.
func (s *Simulator) pushEvent(ev event) {
	e := s.takeEvent()
	*e = ev
	s.push(e)
}

// pushArrival queues one streamed arrival. Its sequence number is not drawn
// from s.seq but fixed by the job's position in the trace, negative so the
// relative order against every other event kind reproduces the materialized
// path exactly: there, arrival k gets seq k-1 and everything else starts at
// totalJobs, so arrivals sort first at equal timestamps and among
// themselves by ID; here, arrival k gets seq k-1-totalJobs (< 0) and
// everything else starts at 0 — the same relative order, stream or slice.
func (s *Simulator) pushArrival(j *job.Job) {
	e := s.takeEvent()
	*e = event{at: j.Arrival, seq: int64(j.ID) - 1 - int64(s.totalJobs), kind: evArrival, job: j}
	heap.Push(&s.events, e)
}

// queueNextArrival captures the source cursor, draws the next job and
// queues its arrival event. Capturing the cursor before the draw is what
// makes mid-stream checkpoints complete: a resumed source regenerates the
// very job whose arrival event the checkpoint skipped. A generation error
// latches intakeErr and aborts the run at the next event boundary.
func (s *Simulator) queueNextArrival() {
	s.sourceCursor = s.source.CheckpointState()
	j, err := s.source.Next()
	if err != nil {
		s.intakeErr = fmt.Errorf("streaming intake: %w", err)
		return
	}
	if j == nil {
		return // source drained
	}
	if j.ID < 1 || int64(j.ID) > int64(s.totalJobs) {
		s.intakeErr = fmt.Errorf("streaming intake: job ID %d outside trace range [1, %d]", j.ID, s.totalJobs)
		return
	}
	s.pushArrival(j)
}

// recycleEvent returns a dispatched event to the free list. Only events
// popped from the heap may be recycled, and never while any reference to
// them is still live.
func (s *Simulator) recycleEvent(e *event) {
	*e = event{}
	s.freeEvents = append(s.freeEvents, e)
}

// idle reports whether nothing remains to simulate.
func (s *Simulator) idle() bool {
	return s.arrivalsLeft == 0 && len(s.pending) == 0 && len(s.running) == 0 &&
		len(s.retrying) == 0
}

// stallTicks is how many consecutive no-progress ticks (with nothing
// running and no arrivals left) the simulator tolerates before declaring
// the pending jobs permanently unplaceable. The grace period lets stateful
// schedulers that defer work across ticks (e.g. requeue-after-preempt) act.
const stallTicks = 10

// stalled reports a permanent wedge: jobs pend, but no arrivals remain,
// nothing runs, and stallTicks consecutive ticks started nothing.
func (s *Simulator) stalled() bool {
	if s.arrivalsLeft != 0 || len(s.running) != 0 || len(s.pending) == 0 {
		s.stallCount = 0
		return false
	}
	if s.faultsLeft > 0 || len(s.retrying) > 0 {
		// A pending fault (e.g. a node recovery) or a backoff resubmission
		// can still change what is placeable: not a permanent wedge.
		s.stallCount = 0
		return false
	}
	s.stallCount++
	return s.stallCount >= stallTicks
}

// maxEvents bounds runaway simulations (well above any legitimate run).
const maxEvents = 200_000_000

// Run executes the simulation to completion and returns the results. When
// fault injection kills the controller (and ExitOnControllerKill is set) it
// returns ErrControllerKilled without finalizing; the caller restarts from
// the latest checkpoint via Resume.
func (s *Simulator) Run() (*Result, error) {
	s.bootstrap()

	for steps := 0; len(s.events) > 0; steps++ {
		if steps > maxEvents {
			return nil, fmt.Errorf("sim: exceeded %d events at t=%v (scheduler wedged?)", maxEvents, s.now)
		}
		e := heap.Pop(&s.events).(*event)
		if s.opts.MaxVirtualTime > 0 && e.at > s.opts.MaxVirtualTime {
			break
		}
		if s.dispatch(e) {
			// No arrivals remain, nothing runs, and the tick started
			// nothing: the pending jobs are unplaceable and no future
			// event can change that. Stop instead of spinning forever.
			s.finalize()
			return s.results, nil
		}
		if err := s.postEvent(e.kind); err != nil {
			return nil, err
		}
		s.recycleEvent(e)
		if s.idle() {
			break
		}
	}
	s.finalize()
	return s.results, nil
}

// bootstrap pushes the initial tick/sample cadence events exactly once per
// process. A resumed run carries its tick/sample events inside the restored
// heap; re-pushing them would double the cadence streams.
func (s *Simulator) bootstrap() {
	if s.resumed || s.bootstrapped {
		return
	}
	s.bootstrapped = true
	if s.opts.TickInterval > 0 {
		s.pushEvent(event{at: s.opts.TickInterval, kind: evTick})
	}
	s.pushEvent(event{at: 0, kind: evSample})
}

// dispatch advances virtual time to e.at and applies the event. It reports
// whether a tick proved the run permanently wedged (batch mode only — a
// service idles between requests instead of stalling out).
func (s *Simulator) dispatch(e *event) (stalled bool) {
	s.now = e.at
	s.results.Events++

	switch e.kind {
	case evArrival:
		s.handleArrival(e.job)
	case evCompletion:
		s.handleCompletion(e.jobID, e.version)
	case evTick:
		s.scheduler.Tick()
		if !s.opts.Service && s.stalled() {
			return true
		}
		if s.opts.Service || !s.idle() {
			s.pushEvent(event{at: s.now + s.opts.TickInterval, kind: evTick})
		}
	case evSample:
		s.sample()
		if s.opts.Service || !s.idle() {
			s.pushEvent(event{at: s.now + s.opts.SampleInterval, kind: evSample})
		}
	case evFault:
		s.faultsLeft--
		s.handleFault(e.fault)
	case evResubmit:
		s.handleResubmit(e.jobID)
	case evJobFail:
		s.handleJobFailure(e.jobID, e.run)
	}
	return false
}

// postEvent runs the per-event epilogue shared by Run and RunUntil:
// invariant checking, touched-journal reset, the controller-kill latch, and
// the checkpoint cadence.
func (s *Simulator) postEvent(kind eventKind) error {
	if s.intakeErr != nil {
		return fmt.Errorf("sim: %w", s.intakeErr)
	}
	if s.opts.Invariants {
		if err := s.checkEventInvariants(); err != nil {
			return fmt.Errorf("sim: invariant violated after %v event at t=%v: %w", kind, s.now, err)
		}
	}
	// The touched journals only matter to the delta checker above;
	// resetting them unconditionally keeps them from growing when
	// checking is off.
	s.cluster.ResetTouched()
	s.touchedJobs = s.touchedJobs[:0]
	if s.killed {
		// Died mid-run: no finalize, no results. State up to the latest
		// checkpoint survives; everything after it is lost, exactly like
		// a real scheduler crash.
		return ErrControllerKilled
	}
	if err := s.maybeCheckpoint(); err != nil {
		return fmt.Errorf("sim: checkpoint at t=%v: %w", s.now, err)
	}
	return nil
}

func (s *Simulator) handleArrival(j *job.Job) {
	s.arrivalsLeft--
	s.pending[j.ID] = j
	s.touchJob(j.ID)
	// On-admit max-update: a no-op for the materialized path (New scanned
	// the whole slice up front) but load-bearing for streaming intake,
	// where nobody has seen the future arrivals yet.
	if j.Arrival > s.lastArrival {
		s.lastArrival = j.Arrival
		s.results.LastArrival = s.lastArrival
	}
	s.results.noteArrival(j, s.opts.MaxJobStats)
	s.scheduler.Submit(j)
	if s.source != nil {
		s.queueNextArrival()
	}
}

// touchJob journals a job whose lifecycle state the current event changed;
// the delta invariant checker audits exactly these.
func (s *Simulator) touchJob(id job.ID) { s.touchedJobs = append(s.touchedJobs, id) }

func (s *Simulator) handleCompletion(id job.ID, version int64) {
	r, ok := s.running[id]
	if !ok || r.version != version {
		return // stale event
	}
	s.advance(r)
	if r.remaining > time.Millisecond {
		// Numerical drift: reschedule instead of completing early.
		s.scheduleCompletion(r)
		return
	}
	s.stopJob(r)
	s.completedJobs++
	delete(s.startedOnce, id)
	s.results.noteCompletion(r, s.now)
	s.scheduler.OnJobCompleted(r.job)
}

// stopJob releases a running job's resources and refreshes neighbours.
func (s *Simulator) stopJob(r *runningJob) {
	id := r.job.ID
	if err := s.cluster.Release(id); err != nil {
		panic(fmt.Sprintf("sim: release job %d: %v", id, err))
	}
	s.touchJob(id)
	if !r.job.IsGPU() {
		for _, nid := range r.alloc.NodeIDs {
			s.cpuCoresOn[nid] -= r.alloc.CPUCores
		}
	}
	for _, nid := range r.alloc.NodeIDs {
		meter, err := s.monitor.Node(nid)
		if err == nil {
			_ = meter.Deregister(id)
		}
		if r.model != nil {
			pcie, perr := r.model.PCIeDemand(r.cfg())
			if perr == nil {
				s.pcieLoad[nid] -= pcie
				if s.pcieLoad[nid] < 0 {
					s.pcieLoad[nid] = 0
				}
			}
		}
	}
	delete(s.running, id)
	r.version++ // kill outstanding completion events
	s.refreshNodes(r.alloc.NodeIDs)
}

// advance integrates a job's progress up to now.
func (s *Simulator) advance(r *runningJob) {
	dt := s.now - r.lastUpdate
	if dt <= 0 {
		return
	}
	r.remaining -= time.Duration(float64(dt) * r.speed)
	if r.remaining < 0 {
		r.remaining = 0
	}
	r.lastUpdate = s.now
}

// scheduleCompletion queues the job's (re)computed completion event.
func (s *Simulator) scheduleCompletion(r *runningJob) {
	r.version++
	eta := time.Duration(float64(r.remaining) / r.speed)
	s.pushEvent(event{
		at:      s.now + eta,
		kind:    evCompletion,
		jobID:   r.job.ID,
		version: r.version,
	})
}

// contentionAt computes the shared-resource pressure on one node.
func (s *Simulator) contentionAt(nodeID int) perfmodel.Contention {
	meter, err := s.monitor.Node(nodeID)
	if err != nil {
		return perfmodel.Contention{}
	}
	n, err := s.cluster.Node(nodeID)
	pcieUtil, llc := 0.0, 0.0
	if err == nil {
		if n.PCIeGBs > 0 {
			pcieUtil = s.pcieLoad[nodeID] / n.PCIeGBs
		}
		// CPU jobs occupy last-level cache roughly in proportion to the
		// cores they run on. Fig. 7 shows every model shrugging this off;
		// modeling it keeps that claim testable end to end. cpuCoresOn is
		// maintained incrementally by StartJob/ResizeJob/stopJob so this
		// hot path never walks the node's job map.
		if n.Cores > 0 {
			llc = float64(s.cpuCoresOn[nodeID]) / float64(n.Cores)
		}
	}
	return perfmodel.Contention{
		BandwidthUtil: meter.Utilization(),
		LLCPressure:   llc,
		PCIeUtil:      pcieUtil,
	}
}

// worstContention returns the max-pressure view across a job's nodes
// (gradient synchronization waits for the slowest worker).
func (s *Simulator) worstContention(nodeIDs []int) perfmodel.Contention {
	var worst perfmodel.Contention
	for _, nid := range nodeIDs {
		c := s.contentionAt(nid)
		if c.BandwidthUtil > worst.BandwidthUtil {
			worst.BandwidthUtil = c.BandwidthUtil
		}
		if c.LLCPressure > worst.LLCPressure {
			worst.LLCPressure = c.LLCPressure
		}
		if c.PCIeUtil > worst.PCIeUtil {
			worst.PCIeUtil = c.PCIeUtil
		}
	}
	return worst
}

// slowdown returns the straggler multiplier for a job spanning nodeIDs:
// synchronous training paces at the slowest worker, so the job takes the
// minimum over its nodes of each node's product of active factors.
func (s *Simulator) slowdown(nodeIDs []int) float64 {
	if !s.chaosOn {
		return 1
	}
	worst := 1.0
	for _, nid := range nodeIDs {
		if nid < 0 || nid >= len(s.slowFactors) {
			continue
		}
		f := 1.0
		for _, sf := range s.slowFactors[nid] {
			f *= sf
		}
		if f < worst {
			worst = f
		}
	}
	return worst
}

// computeSpeed returns the job's progress rate at the current allocation
// and contention.
func (s *Simulator) computeSpeed(r *runningJob) float64 {
	speed := s.baseSpeed(r) * s.slowdown(r.alloc.NodeIDs)
	if speed < minSpeed {
		return minSpeed
	}
	return speed
}

// baseSpeed is the fault-free progress rate (allocation + contention only).
func (s *Simulator) baseSpeed(r *runningJob) float64 {
	if r.model != nil {
		speed, err := r.model.Speed(r.cfg(), r.job.BatchSize, r.alloc.CPUCores, s.worstContention(r.alloc.NodeIDs))
		if err != nil || speed < minSpeed {
			return minSpeed
		}
		return speed
	}
	// CPU jobs: slowed by bandwidth throttling and by core shrinkage.
	speed := 1.0
	if r.job.Bandwidth > 0 {
		meter, err := s.monitor.Node(r.alloc.NodeIDs[0])
		if err == nil {
			if eff, err := meter.JobBandwidth(r.job.ID); err == nil && r.bwDemand > 0 {
				speed *= eff / r.bwDemand
			}
		}
	}
	if req := r.job.Request.CPUCores; req > 0 && r.alloc.CPUCores < req {
		speed *= float64(r.alloc.CPUCores) / float64(req)
	}
	if speed < minSpeed {
		return minSpeed
	}
	return speed
}

// refreshNodes re-evaluates the speed of every job touching the nodes and
// reschedules their completions when the speed changed.
func (s *Simulator) refreshNodes(nodeIDs []int) {
	clear(s.refreshSeen)
	for _, nid := range nodeIDs {
		n, err := s.cluster.Node(nid)
		if err != nil {
			continue
		}
		// Collect into reusable scratch and sort: the per-node visit order
		// must stay identical to the Jobs() order this loop used to walk,
		// because scheduleCompletion hands out heap sequence numbers.
		s.refreshIDs = n.AppendJobs(s.refreshIDs[:0])
		slices.Sort(s.refreshIDs)
		for _, id := range s.refreshIDs {
			if s.refreshSeen[id] {
				continue
			}
			s.refreshSeen[id] = true
			r, ok := s.running[id]
			if !ok {
				continue
			}
			s.advance(r)
			newSpeed := s.computeSpeed(r)
			//coda:ordered-ok change detector; both sides come from the same deterministic computation
			if newSpeed != r.speed {
				r.speed = newSpeed
				s.scheduleCompletion(r)
			}
		}
	}
}
