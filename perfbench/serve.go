package main

import (
	"bytes"
	"cmp"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/coda-repro/coda/internal/cluster"
	"github.com/coda-repro/coda/internal/core"
	"github.com/coda-repro/coda/internal/ctl"
	"github.com/coda-repro/coda/internal/ctl/wal"
	"github.com/coda-repro/coda/internal/sched"
	"github.com/coda-repro/coda/internal/sim"
	"github.com/coda-repro/coda/internal/trace"
)

// The serve-mixed workload definition. The control plane ticks every
// serveTick of wall time and each tick advances virtual time by serveStep,
// a 3,000x compression. The machine is configured as cmd/coda-serve
// configures it: CODA, full invariant audits after every event, a
// checkpoint every 64 applied requests, a file WAL and a file checkpoint
// store.
const (
	serveTick      = 20 * time.Millisecond
	serveStep      = time.Minute
	serveNodes     = cluster.DefaultNodes
	serveCkptEvery = 64
	// fixedRate is the offered load, in requests per second, that the
	// latency metrics are measured at; it sits well below capacity.
	fixedRate = 240.0
	// ackLimit is the ack p99 a ladder step must stay under, in ticks. It
	// sits where the ack p99 climbs steeply with the rate, so noise moves
	// the passing step little; at 5 ticks it cut the gradual part of the
	// curve, where probes at about 900 req/s read 66-164 ms across seeds.
	ackLimit = 10 * serveTick
	// warmup is the start of every phase that latencies ignore: the
	// machine starts empty and the first ticks pay one-off allocations.
	warmup = 250 * time.Millisecond
	// maxInflight bounds the generator's outstanding requests; reaching it
	// means the backlog is growing.
	maxInflight = 4096
)

// The request script. Submits sit at their jobs' arrival times in a trace
// of the paper's rate and mix (ctl.ScriptFromJobs to the virtual second).
// Each submitted job is read back once, readDelay later. One node in turn
// is drained every drainEvery and undrained drainFor later. The read and
// drain shares are choices of this workload, not measured from a client.
const (
	scriptJobs = 12_000
	scriptTick = time.Second
	readDelay  = 30 * time.Minute
	drainEvery = 2 * time.Hour
	drainFor   = time.Hour
)

// ladder is the fixed rate ladder max_rps searches, 5% steps from 100 to
// about 1,870 requests per second.
func ladder() []float64 {
	var out []float64
	r := 100.0
	for i := 0; i <= 60; i++ {
		out = append(out, r)
		r *= 1.05
	}
	return out
}

// op is the kind of one scripted request.
type op uint8

const (
	opSubmit op = iota
	opStatus
	opDrain
	opUndrain
)

// request is one scripted request at a virtual instant of the trace.
type request struct {
	at   time.Duration
	op   op
	body []byte // submit: the job spec
	// arg is the node of a drain or undrain, and for a status read the
	// ordinal of the submit it reads back.
	arg int
}

// serveScript is the seeded request stream, in virtual-time order.
type serveScript struct {
	seed  int64
	reqs  []request
	trace trace.Config
}

func newServeScript(seed int64) (*serveScript, error) {
	cfg := trace.DefaultConfig()
	cfg.Seed = seed
	cfg.CPUJobs = scriptJobs * 3 / 4
	cfg.GPUJobs = scriptJobs - cfg.CPUJobs
	cfg.Duration = scriptJobs * 24 * time.Hour / 3333
	jobs, err := trace.Generate(cfg)
	if err != nil {
		return nil, err
	}
	steps, err := ctl.ScriptFromJobs(jobs, scriptTick, seed, ctl.RequestChaos{}, 0)
	if err != nil {
		return nil, err
	}
	s := &serveScript{seed: seed, trace: cfg}
	for i, st := range steps {
		body, err := json.Marshal(st.Req.Job)
		if err != nil {
			return nil, err
		}
		s.reqs = append(s.reqs,
			request{at: st.At, op: opSubmit, body: body},
			request{at: st.At + readDelay, op: opStatus, arg: i + 1})
	}
	for i := 0; drainEvery*time.Duration(i+1) < cfg.Duration; i++ {
		at := drainEvery * time.Duration(i+1)
		s.reqs = append(s.reqs,
			request{at: at, op: opDrain, arg: i % serveNodes},
			request{at: at + drainFor, op: opUndrain, arg: i % serveNodes})
	}
	slices.SortStableFunc(s.reqs, func(a, b request) int { return cmp.Compare(a.at, b.at) })
	return s, nil
}

// timetable returns the first n requests of the script and their due
// times: the script's virtual times compressed linearly so that the
// n requests span dur, which offers exactly n/dur requests per second and
// keeps the trace's bursts and daily shape. It also returns that
// compression over the control plane's own (serveStep per serveTick).
func (s *serveScript) timetable(n int, dur time.Duration) ([]request, []time.Duration, float64, error) {
	if n >= len(s.reqs) {
		return nil, nil, 0, fmt.Errorf("a phase of %d requests needs a longer script than %d", n, len(s.reqs))
	}
	span := float64(s.reqs[n].at)
	dues := make([]time.Duration, n)
	for i := range dues {
		dues[i] = time.Duration(float64(s.reqs[i].at) / span * float64(dur))
	}
	speed := span / float64(dur) / (float64(serveStep) / float64(serveTick))
	return s.reqs[:n], dues, speed, nil
}

// fixedPhaseDur shortens a fixed-rate phase of about dur so that its
// writes (every request but the status reads, each one WAL record) end
// half a checkpoint interval past a checkpoint. A recovery from the phase
// then replays the same number of WAL records whatever the seed.
func (s *serveScript) fixedPhaseDur(dur time.Duration) time.Duration {
	n := int(fixedRate * dur.Seconds())
	writes := 0
	for _, rq := range s.reqs[:n] {
		if rq.op != opStatus {
			writes++
		}
	}
	for n > 0 && writes%serveCkptEvery != serveCkptEvery/2 {
		n--
		if s.reqs[n].op != opStatus {
			writes--
		}
	}
	return time.Duration(float64(n) / fixedRate * float64(time.Second))
}

// serveOptions is coda-serve's engine configuration on the paper's
// cluster.
func serveOptions(seed int64) sim.Options {
	opts := sim.DefaultOptions()
	opts.Cluster = cluster.DefaultConfig()
	opts.Cluster.Nodes = serveNodes
	opts.Seed = seed
	opts.Invariants = true
	return opts
}

// newCODA builds the serving policy; a non-nil rec traces it.
func newCODA(rec *recorder) func() (sched.Scheduler, error) {
	cc := cluster.DefaultConfig()
	return func() (sched.Scheduler, error) {
		s, err := core.New(core.DefaultConfig(), serveNodes, cc.CoresPerNode, cc.GPUsPerNode)
		if err != nil {
			return nil, err
		}
		if rec == nil {
			return s, nil
		}
		return traceScheduler(s, rec), nil
	}
}

// serveStores opens the durable stores in dir the way coda-serve lays
// them out.
func serveStores(dir string) (*wal.FileLog, *wal.FileStore, error) {
	log, err := wal.OpenFileLog(filepath.Join(dir, "requests.wal"))
	if err != nil {
		return nil, nil, err
	}
	store, err := wal.NewFileStore(filepath.Join(dir, "checkpoints"))
	if err != nil {
		_ = log.Close()
		return nil, nil, err
	}
	return log, store, nil
}

// startMachine builds a machine from the stores in dir exactly as
// coda-serve starts: ctl.Resume, which cold-starts on an empty directory.
// A non-nil rec traces the scheduler, the WAL and the checkpoint store.
func startMachine(dir string, seed int64, rec *recorder) (*ctl.Machine, *wal.FileLog, error) {
	log, store, err := serveStores(dir)
	if err != nil {
		return nil, nil, err
	}
	cfg := ctl.Config{
		Options:         serveOptions(seed),
		NewScheduler:    newCODA(rec),
		Log:             log,
		Store:           store,
		CheckpointEvery: serveCkptEvery,
	}
	if rec != nil {
		cfg.Log = &tracedLog{inner: log, rec: rec}
		cfg.Store = &tracedStore{inner: store, rec: rec}
	}
	m, _, err := ctl.Resume(cfg)
	if err != nil {
		_ = log.Close()
		return nil, nil, err
	}
	return m, log, nil
}

// phase is one open-loop run against a fresh machine.
type phase struct {
	rate float64
	dur  time.Duration
	rec  *recorder
	// keep leaves the machine and its data directory for recovery.
	keep bool
}

// phaseResult is what one phase measured. Latencies count only requests
// due after the warm-up.
type phaseResult struct {
	acks, reads []float64 // ms from due to answer: writes, status reads
	readWait    []float64 // ns a status read spent inside the handler
	late        []float64 // ms the generator sent each request after its due time
	ticks       []float64 // ns per control-plane tick
	busy        time.Duration
	offered     int64
	failed      int64
	submits     int64 // accepted submits
	events      int64
	endLag      time.Duration // least tick start delay over the last ticks of the load
	overflow    bool          // the generator hit maxInflight
	heapMiB     float64       // live heap after the phase, machine still held
	wall        time.Duration // from the phase start until every request was answered
	speed       float64       // script time compression over the control plane's

	machine *ctl.Machine
	log     *wal.FileLog
	dir     string
}

// ok reports whether the phase sustained its rate: nothing failed, ack p99
// within the limit, the generator and the ticker kept their timetables.
func (r *phaseResult) ok() bool {
	return r.failed == 0 && !r.overflow &&
		quantile(r.acks, 0.99) <= ms(ackLimit) &&
		quantile(r.late, 0.99) <= ms(serveTick) &&
		r.endLag <= 2*serveTick
}

// valid reports whether the generator kept its timetable to within a tick;
// a phase where it lagged more measured the generator, not the server.
func (r *phaseResult) valid() bool { return quantile(r.late, 0.99) <= ms(serveTick) }

func (r *phaseResult) close() {
	if r.log != nil {
		_ = r.log.Close()
	}
}

// outcome is one answered request, times relative to the phase start.
type outcome struct {
	op        op
	due, done time.Duration
	inHandler time.Duration
	failed    bool
}

func runPhase(cfg runConfig, script *serveScript, p phase) (*phaseResult, error) {
	reqs, dues, speed, err := script.timetable(int(math.Round(p.rate*p.dur.Seconds())), p.dur)
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(filepath.Join(cfg.workDir, "tmp"), "serve-")
	if err != nil {
		return nil, err
	}
	m, log, err := startMachine(dir, script.seed, p.rec)
	if err != nil {
		_ = os.RemoveAll(dir)
		return nil, err
	}
	res := &phaseResult{machine: m, log: log, dir: dir, speed: speed}
	if !p.keep {
		defer func() {
			res.close()
			_ = os.RemoveAll(dir)
		}()
	}
	server := ctl.NewServer(m, ctl.ServerConfig{})
	events0 := m.Stats().Events

	start := time.Now()
	var stopTicks atomic.Bool
	var tickErr error
	var lag, ticked atomic.Int64
	var lags []time.Duration // ticker-owned until tickDone closes
	tickDone := make(chan struct{})
	go func() {
		defer close(tickDone)
		at := m.Now()
		for k := 1; !stopTicks.Load(); k++ {
			due := start.Add(time.Duration(k) * serveTick)
			time.Sleep(time.Until(due))
			l := time.Since(due)
			lag.Store(int64(l))
			lags = append(lags, l)
			ticked.Add(1)
			at += serveStep
			t0 := time.Now()
			var id int32
			if p.rec != nil {
				id = p.rec.begin(kCtlTick)
			}
			err := server.Tick(at)
			if p.rec != nil {
				p.rec.end(id)
			}
			d := time.Since(t0)
			res.busy += d
			res.ticks = append(res.ticks, ns(d))
			if err != nil {
				tickErr = err
				return
			}
		}
	}()

	var (
		mu       sync.Mutex
		outs     []outcome
		wg       sync.WaitGroup
		inflight atomic.Int64
		acked    atomic.Int64
	)
	for i, rq := range reqs {
		due := start.Add(dues[i])
		time.Sleep(time.Until(due))
		if time.Duration(lag.Load()) > 10*serveTick || inflight.Load() >= maxInflight {
			// The server has fallen hopelessly behind: stop offering load
			// rather than queue seconds of requests.
			res.overflow = true
			break
		}
		res.late = append(res.late, ms(time.Since(due)))
		res.offered++
		o := rq.op
		req := httpRequest(rq, acked.Load())
		inflight.Add(1)
		wg.Add(1)
		go func(due time.Time) {
			defer wg.Done()
			defer inflight.Add(-1)
			w := httptest.NewRecorder()
			t0 := time.Now()
			server.ServeHTTP(w, req)
			done := time.Now()
			failed := w.Code != http.StatusOK
			if !failed && o != opStatus {
				var resp ctl.Response
				if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil || resp.Err != "" {
					failed = true
				} else if o == opSubmit {
					for cur := acked.Load(); resp.JobID > cur && !acked.CompareAndSwap(cur, resp.JobID); cur = acked.Load() {
					}
				}
			}
			mu.Lock()
			outs = append(outs, outcome{op: o, due: due.Sub(start), done: done.Sub(start), inHandler: done.Sub(t0), failed: failed})
			mu.Unlock()
		}(due)
	}
	loaded := int(ticked.Load())
	wg.Wait()
	res.wall = time.Since(start)
	stopTicks.Store(true)
	<-tickDone
	// A growing backlog shows as a tick delay that never recovers: the
	// least delay over the last ten ticks of the load. One slow tick (a
	// collection, a checkpoint) does not count.
	if loaded > 0 {
		res.endLag = slices.Min(lags[max(0, loaded-10):loaded])
	}
	// The engine's state only grows during a phase, so the live heap at
	// its end, with the machine still held, is the phase's peak retained
	// heap.
	res.heapMiB = liveHeap()
	if tickErr != nil {
		return nil, fmt.Errorf("control plane tick: %w", tickErr)
	}

	for _, o := range outs {
		if o.failed {
			res.failed++
		} else if o.op == opSubmit {
			res.submits++
		}
		if o.due < warmup {
			continue
		}
		lat := ms(o.done - o.due)
		if o.op == opStatus {
			res.reads = append(res.reads, lat)
			res.readWait = append(res.readWait, ns(o.inHandler))
		} else {
			res.acks = append(res.acks, lat)
		}
	}
	res.events = m.Stats().Events - events0
	return res, nil
}

// httpRequest builds a scripted request. A status read targets the job of
// the submit it reads back, or the newest acknowledged job when that one
// is not acknowledged yet; before the first acknowledgement it reads
// /healthz instead.
func httpRequest(rq request, acked int64) *http.Request {
	switch rq.op {
	case opSubmit:
		return httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(rq.body))
	case opDrain:
		return httptest.NewRequest(http.MethodPost, "/v1/nodes/"+strconv.Itoa(rq.arg)+"/drain", nil)
	case opUndrain:
		return httptest.NewRequest(http.MethodPost, "/v1/nodes/"+strconv.Itoa(rq.arg)+"/undrain", nil)
	}
	id := min(int64(rq.arg), acked)
	if id == 0 {
		return httptest.NewRequest(http.MethodGet, "/healthz", nil)
	}
	return httptest.NewRequest(http.MethodGet, "/v1/jobs/"+strconv.FormatInt(id, 10), nil)
}

// checkLive finishes the phase's live machine and checks it: consistent
// fault counters, every accepted submit accounted for, none terminal. It
// returns the finished result and its dump.
func checkLive(res *phaseResult) (*sim.Result, string, error) {
	stats := res.machine.Stats()
	live, err := res.machine.Finish()
	if err != nil {
		return nil, "", err
	}
	if err := live.Faults.Sane(); err != nil {
		return nil, "", fmt.Errorf("%w: %v", errIncorrect, err)
	}
	inSystem := int64(stats.Pending + stats.Running + stats.Retrying + stats.Completed + stats.Terminal + stats.Cancelled)
	if inSystem != res.submits || stats.Terminal != 0 {
		return nil, "", fmt.Errorf("%w: %d accepted submits but %d jobs in the machine (%d terminal)",
			errIncorrect, res.submits, inSystem, stats.Terminal)
	}
	return live, sim.DumpResult(live), nil
}

// resume rebuilds an untraced machine from the phase's data directory,
// as coda-serve recovers, and advances it to virtual time now. It returns
// the machine and the time both steps took.
func resume(res *phaseResult, seed int64, now time.Duration) (*ctl.Machine, time.Duration, error) {
	runtime.GC()
	log, store, err := serveStores(res.dir)
	if err != nil {
		return nil, 0, err
	}
	defer log.Close()
	cfg := ctl.Config{
		Options:         serveOptions(seed),
		NewScheduler:    newCODA(nil),
		Log:             log,
		Store:           store,
		CheckpointEvery: serveCkptEvery,
	}
	t0 := time.Now()
	m, recovered, err := ctl.Resume(cfg)
	if err == nil {
		err = m.AdvanceTo(now)
	}
	d := time.Since(t0)
	if err == nil && !recovered {
		err = fmt.Errorf("%w: the data directory held nothing to recover", errIncorrect)
	}
	return m, d, err
}

// recoverIdentical checks the live machine, then resumes a machine from
// the phase's data directory and requires its dump to equal the live
// one's byte for byte. It returns the live result, the dump's digest and
// the resume time.
func recoverIdentical(res *phaseResult, seed int64) (*sim.Result, string, time.Duration, error) {
	now := res.machine.Now()
	live, want, err := checkLive(res)
	if err != nil {
		return nil, "", 0, err
	}
	m, d, err := resume(res, seed, now)
	if err != nil {
		return nil, "", 0, err
	}
	got, err := m.Finish()
	if err != nil {
		return nil, "", 0, err
	}
	if dump := sim.DumpResult(got); dump != want {
		return nil, "", 0, fmt.Errorf("%w: recovered machine differs from the live one at %s", errIncorrect, sim.FirstDiff(want, dump))
	}
	sum := sha256.Sum256([]byte(want))
	return live, hex.EncodeToString(sum[:]), d, nil
}

// Between the ladder's probes the run samples setupsPerProbe machine
// starts and resumesPerProbe recoveries, so those medians spread over the
// whole measuring time.
const (
	ladderProbes    = 6
	setupsPerProbe  = 17
	resumesPerProbe = 2
)

func runServeMixed(cfg runConfig) (report, error) {
	if err := os.MkdirAll(filepath.Join(cfg.workDir, "tmp"), 0o755); err != nil {
		return report{}, err
	}
	script, err := newServeScript(cfg.seed)
	if err != nil {
		return report{}, err
	}
	if cfg.traced {
		return traceServe(cfg, script)
	}

	// The fixed rate runs twice, each time on a fresh machine for 30% of
	// the measuring time: once first and once last. Its latencies are
	// pooled, so the p99 rests on two runs spread over the whole measuring
	// time. The ladder's binary search takes the 40% between them. Unlike
	// the batch workloads, serve-mixed reports its times as measured:
	// reference runs (reference.go) timed between its phases did not track
	// its own timings and only added noise (README.md, Machine speed).
	fixedDur := script.fixedPhaseDur(cfg.measure * 3 / 10)
	fixed, err := runPhase(cfg, script, phase{rate: fixedRate, dur: fixedDur, keep: true})
	if err != nil {
		return report{}, err
	}
	defer func() {
		fixed.close()
		_ = os.RemoveAll(fixed.dir)
	}()
	now := fixed.machine.Now()
	_, digest, d, err := recoverIdentical(fixed, cfg.seed)
	if err != nil {
		return report{}, err
	}
	recovers := []float64{d.Seconds()}
	fmt.Fprintf(cfg.log, "serve-mixed seed=%d: offered=%d failed=%d accepted_submits=%d script_speed=%.2f sim.events=%d gen.late_p99_ms=%.3f dump.sha256=%s\n",
		cfg.seed, fixed.offered, fixed.failed, fixed.submits, fixed.speed, fixed.events, quantile(fixed.late, 0.99), digest)

	steps := ladder()
	probeDur := cfg.measure * 4 / 10 / ladderProbes
	var setups []float64
	lo, hi := -1, len(steps)
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		r, err := runPhase(cfg, script, phase{rate: steps[mid], dur: probeDur})
		if err != nil {
			return report{}, err
		}
		fmt.Fprintf(cfg.log, "serve-mixed ladder: %.1f req/s script_speed=%.2f ok=%t ack_p99_ms=%.2f late_p99_ms=%.2f end_lag_ms=%.2f failed=%d\n",
			steps[mid], r.speed, r.ok(), quantile(r.acks, 0.99), quantile(r.late, 0.99), ms(r.endLag), r.failed)
		if r.ok() {
			lo = mid
		} else {
			hi = mid
		}

		for j := 0; j < setupsPerProbe; j++ {
			d, err := timeStart(cfg, script.seed)
			if err != nil {
				return report{}, err
			}
			setups = append(setups, d.Seconds())
		}
		for j := 0; j < resumesPerProbe; j++ {
			_, d, err := resume(fixed, cfg.seed, now)
			if err != nil {
				return report{}, err
			}
			recovers = append(recovers, d.Seconds())
		}
	}
	if lo < 0 {
		return report{}, errors.New("no step of the rate ladder was sustained")
	}
	again, err := runPhase(cfg, script, phase{rate: fixedRate, dur: fixedDur})
	if err != nil {
		return report{}, err
	}
	fmt.Fprintf(cfg.log, "serve-mixed fixed rate: ack_p99_ms first=%.2f last=%.2f\n",
		quantile(fixed.acks, 0.99), quantile(again.acks, 0.99))

	acks := append(slices.Clone(fixed.acks), again.acks...)
	m := map[string]metric{}
	set(m, "setup_s", median(setups))
	// events_per_s is a batch metric. Here it carries the control plane's
	// event throughput at the fixed offered rate, which falls only when the
	// server falls behind the timetable.
	set(m, "events_per_s", float64(fixed.events+again.events)/(fixed.wall+again.wall).Seconds())
	set(m, "peak_heap_mib", fixed.heapMiB)
	set(m, "recover_s", median(recovers))
	set(m, "ack_p50_ms", median(acks))
	set(m, "ack_p99_ms", quantile(acks, 0.99))
	set(m, "max_rps", steps[lo])
	offered, failed := fixed.offered+again.offered, fixed.failed+again.failed
	rep := report{Correct: true, Attempted: offered, Failed: failed, Metrics: m}
	for _, r := range []*phaseResult{fixed, again} {
		if r.failed != 0 || r.overflow || !r.valid() {
			rep.Correct = false
			return rep, fmt.Errorf("%w: %d of %d requests failed at the fixed rate (generator late p99 %.2f ms)",
				errIncorrect, r.failed, r.offered, quantile(r.late, 0.99))
		}
	}
	return rep, nil
}

// timeStart times one machine start in a fresh directory, as coda-serve
// starts: open the stores, ctl.Resume's cold start, ctl.NewServer.
func timeStart(cfg runConfig, seed int64) (time.Duration, error) {
	dir, err := os.MkdirTemp(filepath.Join(cfg.workDir, "tmp"), "setup-")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	runtime.GC()
	t0 := time.Now()
	m, log, err := startMachine(dir, seed, nil)
	if err != nil {
		return 0, err
	}
	ctl.NewServer(m, ctl.ServerConfig{})
	d := time.Since(t0)
	return d, log.Close()
}

// traceServe runs the fixed-rate phase untraced and then traced, each on a
// fresh machine, and recovers an untraced machine from the traced phase's
// data directory: the byte-identical dump proves the decorators observe
// without changing anything.
func traceServe(cfg runConfig, script *serveScript) (report, error) {
	dur := cfg.measure / 2
	plain, err := runPhase(cfg, script, phase{rate: fixedRate, dur: dur})
	if err != nil {
		return report{}, err
	}
	rec := newRecorder()
	traced, err := runPhase(cfg, script, phase{rate: fixedRate, dur: dur, rec: rec, keep: true})
	if err != nil {
		return report{}, err
	}
	defer func() {
		traced.close()
		_ = os.RemoveAll(traced.dir)
	}()
	live, digest, _, err := recoverIdentical(traced, script.seed)
	if err != nil {
		return report{}, err
	}
	fmt.Fprintf(cfg.log, "serve-mixed seed=%d: traced run recovered byte-identically untraced, dump.sha256=%s\n", cfg.seed, digest)
	next, err := drainSource(script.trace)
	if err != nil {
		return report{}, err
	}
	m := perLayer(layerInputs{
		rec:         rec,
		engine:      traced.busy,
		overhead:    ratio(ns(traced.busy), ns(plain.busy)) - 1,
		events:      traced.events,
		throttles:   int64(live.Throttles),
		preemptions: int64(live.Preemptions),
		traceNext:   next,
		statusMs:    plain.reads,
		ticks:       traced.ticks,
		readWait:    traced.readWait,
		lateMs:      traced.late,
	})
	spans := filepath.Join(cfg.workDir, "spans", fmt.Sprintf("serve-mixed-seed%d.csv", script.seed))
	if err := rec.write(spans); err != nil {
		return report{}, err
	}
	failed := plain.failed + traced.failed
	correct := failed == 0 && plain.valid() && traced.valid()
	rep := report{Correct: correct, Attempted: plain.offered + traced.offered, Failed: failed, Metrics: m}
	if !correct {
		return rep, fmt.Errorf("%w: %d requests failed", errIncorrect, failed)
	}
	return rep, nil
}
