package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"github.com/coda-repro/coda/internal/cluster"
	"github.com/coda-repro/coda/internal/ctl/wal"
	"github.com/coda-repro/coda/internal/job"
	"github.com/coda-repro/coda/internal/membw"
	"github.com/coda-repro/coda/internal/sched"
)

// kind names one layer boundary the traced run records spans at. Every
// span is recorded from the benchmark's own decorators around the calls
// into a layer; the program itself carries no tracing.
type kind uint8

const (
	kSubmit kind = iota
	kTick
	kComplete
	kKilled
	kCancel
	kSchedCkpt
	kSchedRestore
	kInvCheck
	kEnvStart
	kEnvResize
	kEnvPreempt
	kEnvThrottle
	kEnvUnthrottle
	kEnvGPUUtil
	kEnvMeter
	kWALAppend
	kCkptSave
	kCtlTick
	numKinds
)

var kindNames = [numKinds]string{
	kSubmit:        "sched.submit",
	kTick:          "sched.tick",
	kComplete:      "sched.complete",
	kKilled:        "sched.killed",
	kCancel:        "sched.cancel",
	kSchedCkpt:     "sched.checkpoint",
	kSchedRestore:  "sched.restore",
	kInvCheck:      "inv.sched_check",
	kEnvStart:      "env.start",
	kEnvResize:     "env.resize",
	kEnvPreempt:    "env.preempt",
	kEnvThrottle:   "env.throttle",
	kEnvUnthrottle: "env.unthrottle",
	kEnvGPUUtil:    "env.gpuutil",
	kEnvMeter:      "env.meter",
	kWALAppend:     "wal.append",
	kCkptSave:      "ckpt.save",
	kCtlTick:       "ctl.tick",
}

// isSched reports whether k is a call into the scheduler layer.
func (k kind) isSched() bool { return k <= kSchedRestore }

// isEnv reports whether k is a call from the scheduler into the engine.
func (k kind) isEnv() bool { return k >= kEnvStart && k <= kEnvMeter }

// span is one recorded call: its layer, the span open when it began (-1 for
// none), its start and end in nanoseconds since the recorder's origin, and
// the time its direct children covered.
type span struct {
	kind       kind
	parent     int32
	start, end int64
	child      int64
}

// recorder keeps spans in memory for one traced phase. Every decorator of
// a phase shares one recorder, and all of them run on the engine's single
// goroutine (the simulator loop, or the control plane's ticker), so the
// recorder needs no locking: the open-span stack is the call stack.
//
// Calls into the engine (the env.* kinds) are leaves and by far the most
// frequent — CODA reads every node's meter on every tick — so they are
// aggregated per kind and charged to their parent span instead of being
// stored one by one.
type recorder struct {
	origin time.Time
	spans  []span
	open   []int32
	// leafCalls and leafTotal aggregate the leaf calls by kind.
	leafCalls [numKinds]int
	leafTotal [numKinds]int64
	// bytes counts payload bytes through the durable-store decorators, by
	// kind; records counts WAL records appended.
	bytes   [numKinds]int64
	records int64
	// cluster is the engine's cluster, captured at Bind for the placement
	// query counter.
	cluster *cluster.Cluster
}

func newRecorder() *recorder { return &recorder{origin: time.Now()} }

func (r *recorder) now() int64 { return int64(time.Since(r.origin)) }

func (r *recorder) begin(k kind) int32 {
	parent := int32(-1)
	if n := len(r.open); n > 0 {
		parent = r.open[n-1]
	}
	id := int32(len(r.spans))
	r.spans = append(r.spans, span{kind: k, parent: parent, start: r.now()})
	r.open = append(r.open, id)
	return id
}

func (r *recorder) end(id int32) {
	s := &r.spans[id]
	s.end = r.now()
	r.open = r.open[:len(r.open)-1]
	if s.parent >= 0 {
		r.spans[s.parent].child += s.end - s.start
	}
}

// leaf records one leaf call of kind k that began at start.
func (r *recorder) leaf(k kind, start int64) {
	d := r.now() - start
	r.leafCalls[k]++
	r.leafTotal[k] += d
	if n := len(r.open); n > 0 {
		r.spans[r.open[n-1]].child += d
	}
}

// layerStats aggregates the calls of one kind.
type layerStats struct {
	calls int
	total time.Duration // sum of call durations
	self  time.Duration // total minus time covered by child calls
	durs  []float64     // per-call durations in ns (stored spans only)
}

// summarize folds the spans and leaf aggregates into per-kind totals. A
// span's self time is its duration minus its direct children's; children
// never overlap because the decorators run on one goroutine.
func (r *recorder) summarize() [numKinds]layerStats {
	var out [numKinds]layerStats
	for _, s := range r.spans {
		st := &out[s.kind]
		d := s.end - s.start
		st.calls++
		st.total += time.Duration(d)
		st.self += time.Duration(d - s.child)
		st.durs = append(st.durs, float64(d))
	}
	for k := range out {
		out[k].calls += r.leafCalls[k]
		out[k].total += time.Duration(r.leafTotal[k])
		out[k].self += time.Duration(r.leafTotal[k])
	}
	return out
}

// topLevel returns the summed duration of the spans of kinds matching
// keep that have no parent of a kind matching keep: the wall time a layer
// covered, counted once however deeply its calls nest.
func (r *recorder) topLevel(keep func(kind) bool) time.Duration {
	var t int64
	for _, s := range r.spans {
		if !keep(s.kind) {
			continue
		}
		if s.parent >= 0 && keep(r.spans[s.parent].kind) {
			continue
		}
		t += s.end - s.start
	}
	return time.Duration(t)
}

// write stores the spans as CSV (kind,parent,start_ns,end_ns,child_ns)
// once the run has ended.
func (r *recorder) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "kind,parent,start_ns,end_ns,child_ns")
	for _, s := range r.spans {
		fmt.Fprintf(w, "%s,%d,%d,%d,%d\n", kindNames[s.kind], s.parent, s.start, s.end, s.child)
	}
	if err := w.Flush(); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

// invariantChecker is the optional self-audit the simulator forwards to
// when invariants are on (core.Scheduler implements it).
type invariantChecker interface {
	CheckInvariants() error
}

// tracedScheduler times every sched.Scheduler call and hands the inner
// scheduler a traced Env at Bind. It reports the inner Name, so results
// and checkpoints carry the policy's own name.
type tracedScheduler struct {
	inner sched.Scheduler
	rec   *recorder
}

func (t *tracedScheduler) Name() string { return t.inner.Name() }

func (t *tracedScheduler) Bind(env sched.Env) {
	t.rec.cluster = env.Cluster()
	t.inner.Bind(&tracedEnv{inner: env, rec: t.rec})
}

func (t *tracedScheduler) Submit(j *job.Job) {
	defer t.rec.end(t.rec.begin(kSubmit))
	t.inner.Submit(j)
}

func (t *tracedScheduler) Tick() {
	defer t.rec.end(t.rec.begin(kTick))
	t.inner.Tick()
}

func (t *tracedScheduler) OnJobCompleted(j *job.Job) {
	defer t.rec.end(t.rec.begin(kComplete))
	t.inner.OnJobCompleted(j)
}

func (t *tracedScheduler) OnJobKilled(j *job.Job) {
	defer t.rec.end(t.rec.begin(kKilled))
	t.inner.OnJobKilled(j)
}

// The mirrors forward one optional interface each. traceScheduler embeds
// exactly the mirrors whose interface the inner scheduler implements, so
// the simulator's type assertions see the same method set traced or not.
type cancelMirror struct {
	c   sched.Canceller
	rec *recorder
}

func (m cancelMirror) OnJobCancelled(j *job.Job) {
	defer m.rec.end(m.rec.begin(kCancel))
	m.c.OnJobCancelled(j)
}

type ckptMirror struct {
	c   sched.Checkpointer
	rec *recorder
}

func (m ckptMirror) CheckpointState() ([]byte, error) {
	defer m.rec.end(m.rec.begin(kSchedCkpt))
	return m.c.CheckpointState()
}

func (m ckptMirror) RestoreCheckpoint(data []byte) error {
	defer m.rec.end(m.rec.begin(kSchedRestore))
	return m.c.RestoreCheckpoint(data)
}

type invMirror struct {
	c   invariantChecker
	rec *recorder
}

func (m invMirror) CheckInvariants() error {
	defer m.rec.end(m.rec.begin(kInvCheck))
	return m.c.CheckInvariants()
}

// traceScheduler wraps inner so that its calls are recorded in rec. The
// wrapper implements sched.Canceller, sched.Checkpointer and the invariant
// checker exactly when inner does.
func traceScheduler(inner sched.Scheduler, rec *recorder) sched.Scheduler {
	b := &tracedScheduler{inner: inner, rec: rec}
	c, isC := inner.(sched.Canceller)
	k, isK := inner.(sched.Checkpointer)
	v, isV := inner.(invariantChecker)
	cm, km, vm := cancelMirror{c, rec}, ckptMirror{k, rec}, invMirror{v, rec}
	switch {
	case isC && isK && isV:
		return struct {
			*tracedScheduler
			cancelMirror
			ckptMirror
			invMirror
		}{b, cm, km, vm}
	case isC && isK:
		return struct {
			*tracedScheduler
			cancelMirror
			ckptMirror
		}{b, cm, km}
	case isC && isV:
		return struct {
			*tracedScheduler
			cancelMirror
			invMirror
		}{b, cm, vm}
	case isK && isV:
		return struct {
			*tracedScheduler
			ckptMirror
			invMirror
		}{b, km, vm}
	case isC:
		return struct {
			*tracedScheduler
			cancelMirror
		}{b, cm}
	case isK:
		return struct {
			*tracedScheduler
			ckptMirror
		}{b, km}
	case isV:
		return struct {
			*tracedScheduler
			invMirror
		}{b, vm}
	default:
		return b
	}
}

// tracedEnv times the scheduler's calls into the engine as leaf calls:
// simulator accounting, perfmodel contention evaluations and membw reads
// all happen behind these methods. Now and Cluster are plain reads and pass through
// untimed; placement work is counted by the cluster's own query counter.
type tracedEnv struct {
	inner sched.Env
	rec   *recorder
}

func (e *tracedEnv) Now() time.Duration        { return e.inner.Now() }
func (e *tracedEnv) Cluster() *cluster.Cluster { return e.inner.Cluster() }

func (e *tracedEnv) Meter(nodeID int) (*membw.Meter, error) {
	defer e.rec.leaf(kEnvMeter, e.rec.now())
	return e.inner.Meter(nodeID)
}

func (e *tracedEnv) StartJob(id job.ID, alloc job.Allocation) error {
	defer e.rec.leaf(kEnvStart, e.rec.now())
	return e.inner.StartJob(id, alloc)
}

func (e *tracedEnv) ResizeJob(id job.ID, coresPerNode int) error {
	defer e.rec.leaf(kEnvResize, e.rec.now())
	return e.inner.ResizeJob(id, coresPerNode)
}

func (e *tracedEnv) PreemptJob(id job.ID) (*job.Job, error) {
	defer e.rec.leaf(kEnvPreempt, e.rec.now())
	return e.inner.PreemptJob(id)
}

func (e *tracedEnv) ThrottleJob(id job.ID, capGBs float64) error {
	defer e.rec.leaf(kEnvThrottle, e.rec.now())
	return e.inner.ThrottleJob(id, capGBs)
}

func (e *tracedEnv) UnthrottleJob(id job.ID) error {
	defer e.rec.leaf(kEnvUnthrottle, e.rec.now())
	return e.inner.UnthrottleJob(id)
}

func (e *tracedEnv) GPUUtil(id job.ID) (float64, error) {
	defer e.rec.leaf(kEnvGPUUtil, e.rec.now())
	return e.inner.GPUUtil(id)
}

// tracedLog times WAL appends and counts their records and bytes.
type tracedLog struct {
	inner wal.Log
	rec   *recorder
}

func (l *tracedLog) Append(frames [][]byte) error {
	id := l.rec.begin(kWALAppend)
	err := l.inner.Append(frames)
	l.rec.end(id)
	l.rec.records += int64(len(frames))
	for _, f := range frames {
		l.rec.bytes[kWALAppend] += int64(len(f))
	}
	return err
}

func (l *tracedLog) Bytes() ([]byte, error) { return l.inner.Bytes() }
func (l *tracedLog) Syncs() int             { return l.inner.Syncs() }

// tracedStore times checkpoint saves and counts their bytes.
type tracedStore struct {
	inner wal.CheckpointStore
	rec   *recorder
}

func (s *tracedStore) Save(data []byte, seq uint64) error {
	defer s.rec.end(s.rec.begin(kCkptSave))
	s.rec.bytes[kCkptSave] += int64(len(data))
	return s.inner.Save(data, seq)
}

func (s *tracedStore) Latest() ([]byte, error) { return s.inner.Latest() }
