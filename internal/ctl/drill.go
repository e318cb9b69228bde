package ctl

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"github.com/coda-repro/coda/internal/ctl/wal"
	"github.com/coda-repro/coda/internal/job"
	"github.com/coda-repro/coda/internal/sched"
	"github.com/coda-repro/coda/internal/sim"
)

// Step is one scripted control-plane request at a virtual instant. Scripts
// are the drill harness's replacement for live HTTP traffic: a fixed,
// seed-reproducible request stream both the baseline and the killed run
// execute identically.
type Step struct {
	At  time.Duration
	Req Request
}

// RequestChaos perturbs a client request stream the way a flaky network
// does: requests vanish (client gave up), arrive twice (client retried a
// request that had in fact landed), or swap order with a neighbor. The
// perturbation is applied while building the script — before either run —
// so it tests that a messy stream is still served deterministically, not
// that the server repairs the mess.
type RequestChaos struct {
	// DropProb is the per-submit probability the request never arrives.
	DropProb float64
	// DupProb is the per-submit probability the request arrives twice (a
	// second admission with a fresh ID — the WAL has no dedup layer).
	DupProb float64
	// SwapProb is the per-adjacent-pair probability the two requests trade
	// places in the stream.
	SwapProb float64
}

// drillRNG is a tiny deterministic splitmix64 stream for script building.
type drillRNG uint64

func (r *drillRNG) next() uint64 {
	*r += 0x9e3779b97f4a7c15
	x := uint64(*r)
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// unit returns a uniform float64 in [0, 1).
func (r *drillRNG) unit() float64 { return float64(r.next()>>11) / (1 << 53) }

// specFromJob maps an engine job back to its client-side spec (the inverse
// of JobSpec.ToJob, minus the server-assigned ID).
func specFromJob(j *job.Job) (*JobSpec, error) {
	spec := &JobSpec{
		Tenant:       int(j.Tenant),
		Model:        j.Model,
		BatchSize:    j.BatchSize,
		CPUCores:     j.Request.CPUCores,
		GPUs:         j.Request.GPUs,
		Nodes:        j.Request.Nodes,
		WorkSeconds:  j.Work.Seconds(),
		BandwidthGBs: j.Bandwidth,
	}
	switch j.Kind {
	case job.KindCPU:
		spec.Kind = "cpu"
	case job.KindGPUTraining:
		spec.Kind = "gpu-training"
	case job.KindBandwidthHog:
		spec.Kind = "bandwidth-hog"
	default:
		return nil, fmt.Errorf("ctl: job %d has unknown kind %v", j.ID, j.Kind)
	}
	switch j.Category {
	case job.CategoryNone:
		spec.Category = ""
	case job.CategoryCV:
		spec.Category = "cv"
	case job.CategoryNLP:
		spec.Category = "nlp"
	case job.CategorySpeech:
		spec.Category = "speech"
	default:
		return nil, fmt.Errorf("ctl: job %d has unknown category %v", j.ID, j.Category)
	}
	return spec, nil
}

// ScriptFromJobs turns a generated trace into a control-plane script:
// submits at each job's arrival quantized up to the tick cadence, chaos
// perturbation (drop/dup/swap) applied by seed, and — when cancelEvery > 0
// — a cancel after every cancelEvery-th surviving submit, targeting the ID
// the server will deterministically have assigned to it. Job IDs inside
// the trace are ignored: the server owns ID assignment.
func ScriptFromJobs(jobs []*job.Job, tick time.Duration, seed int64, chaos RequestChaos, cancelEvery int) ([]Step, error) {
	if tick <= 0 {
		return nil, fmt.Errorf("ctl: script tick %v must be positive", tick)
	}
	rng := drillRNG(uint64(seed)*0x9e3779b97f4a7c15 + 0x2545f4914f6cdd1d)

	ordered := append([]*job.Job(nil), jobs...)
	sort.SliceStable(ordered, func(i, j int) bool { return ordered[i].Arrival < ordered[j].Arrival })

	var steps []Step
	for _, j := range ordered {
		spec, err := specFromJob(j)
		if err != nil {
			return nil, err
		}
		at := quantizeUp(j.Arrival, tick)
		if rng.unit() < chaos.DropProb {
			continue
		}
		steps = append(steps, Step{At: at, Req: Request{Op: OpSubmit, Job: spec}})
		if rng.unit() < chaos.DupProb {
			dup := *spec
			steps = append(steps, Step{At: at + tick, Req: Request{Op: OpSubmit, Job: &dup}})
		}
	}
	// Swap adjacent requests in stream order, keeping the time slots: the
	// payloads trade places, like two packets reordered in flight.
	for i := 0; i+1 < len(steps); i++ {
		if rng.unit() < chaos.SwapProb {
			steps[i].Req, steps[i+1].Req = steps[i+1].Req, steps[i].Req
		}
	}
	// Cancels ride one tick behind their target. The k-th submit in the
	// final stream gets ID k, so targets are predictable without running
	// anything. Cancels of already-finished jobs are deterministic
	// rejections — still WAL records, still replayed identically.
	if cancelEvery > 0 {
		var cancels []Step
		submits := 0
		for _, st := range steps {
			if st.Req.Op != OpSubmit {
				continue
			}
			submits++
			if submits%cancelEvery == 0 {
				cancels = append(cancels, Step{
					At:  st.At + tick,
					Req: Request{Op: OpCancel, JobID: int64(submits)},
				})
			}
		}
		steps = append(steps, cancels...)
	}
	sort.SliceStable(steps, func(i, j int) bool { return steps[i].At < steps[j].At })
	return steps, nil
}

func quantizeUp(t, tick time.Duration) time.Duration {
	if t <= 0 {
		return 0
	}
	return ((t + tick - 1) / tick) * tick
}

// DrillConfig shapes one kill-and-recover drill.
type DrillConfig struct {
	// Seed drives script perturbation and kill-point placement.
	Seed int64
	// Chaos perturbs the request stream (both runs see the same stream).
	Chaos RequestChaos
	// Kills is how many times the killed run dies and recovers; kill points
	// are distinct seeded batch ordinals.
	Kills int
	// CancelEvery inserts a cancel after every Nth submit; 0 disables.
	CancelEvery int
	// Tick is the admission batching cadence.
	Tick time.Duration
	// CheckpointEvery is the machine checkpoint cadence in applied records;
	// 0 means recovery replays the whole WAL from genesis.
	CheckpointEvery int
	// Horizon is the virtual end time both runs are drained to before
	// results are compared; 0 means one hour past the last scripted step.
	Horizon time.Duration
}

// DrillReport is the evidence a drill leaves behind.
type DrillReport struct {
	// Kills is how many kill-and-recover cycles the killed run survived.
	Kills int
	// Replayed is how many WAL records recovery re-applied in total.
	Replayed int
	// Diff is empty when the killed run's dump matched the baseline's;
	// otherwise it pinpoints the first divergent line.
	Diff string
}

// RunKillDrill is the control plane's determinism proof: it runs one
// scripted request stream twice — once uninterrupted, once killed at
// cfg.Kills seeded batch boundaries and recovered from checkpoint + WAL
// suffix each time — and demands the two final sim.DumpResult dumps be
// byte-identical. Any divergence (a job scheduled differently, a counter
// off by one, a float a bit different) is reported as the first differing
// line. The killed run's merged fault counters must also pass Sane().
//
// Both runs serve each batch as Server.Tick does: apply, then the
// checkpoint the batch made due. At a seeded half of the kill points the
// process dies between the two, after the batch was acknowledged and
// before its checkpoint, so recovery starts from the older checkpoint and
// replays a longer WAL suffix.
func RunKillDrill(opts sim.Options, newSched func() (sched.Scheduler, error), jobs []*job.Job, cfg DrillConfig) (*DrillReport, error) {
	if cfg.Tick <= 0 {
		cfg.Tick = time.Minute
	}
	if cfg.Kills < 0 {
		return nil, fmt.Errorf("ctl: drill wants %d kills", cfg.Kills)
	}
	script, err := ScriptFromJobs(jobs, cfg.Tick, cfg.Seed, cfg.Chaos, cfg.CancelEvery)
	if err != nil {
		return nil, err
	}
	if len(script) == 0 {
		return nil, errors.New("ctl: drill script is empty (all requests dropped?)")
	}
	batches := batchScript(script)
	horizon := cfg.Horizon
	if horizon <= 0 {
		horizon = batches[len(batches)-1].at + time.Hour
	}

	// Baseline: one machine, no interruptions.
	baseCfg := Config{
		Options:         opts,
		NewScheduler:    newSched,
		Log:             wal.NewMemLog(),
		Store:           wal.NewMemStore(),
		CheckpointEvery: cfg.CheckpointEvery,
	}
	base, err := NewMachine(baseCfg)
	if err != nil {
		return nil, fmt.Errorf("ctl: drill baseline: %w", err)
	}
	for _, b := range batches {
		before := base.Applied()
		if _, err := base.ApplyBatch(b.at, b.reqs); err != nil {
			return nil, fmt.Errorf("ctl: drill baseline batch at %v: %w", b.at, err)
		}
		if err := base.checkpointDue(before); err != nil {
			return nil, fmt.Errorf("ctl: drill baseline checkpoint at %v: %w", b.at, err)
		}
	}
	if err := base.AdvanceTo(horizon); err != nil {
		return nil, fmt.Errorf("ctl: drill baseline drain: %w", err)
	}
	baseRes, err := base.Finish()
	if err != nil {
		return nil, fmt.Errorf("ctl: drill baseline finish: %w", err)
	}
	want := sim.DumpResult(baseRes)

	// Killed run: same script, same stores throughout, fresh machine after
	// every kill — recovery is checkpoint + WAL suffix, nothing else.
	killAfter := pickKillPoints(cfg.Seed, cfg.Kills, len(batches))
	killedCfg := Config{
		Options:         opts,
		NewScheduler:    newSched,
		Log:             wal.NewMemLog(),
		Store:           wal.NewMemStore(),
		CheckpointEvery: cfg.CheckpointEvery,
	}
	m, err := NewMachine(killedCfg)
	if err != nil {
		return nil, fmt.Errorf("ctl: drill killed run: %w", err)
	}
	report := &DrillReport{}
	for i, b := range batches {
		before := m.Applied()
		if _, err := m.ApplyBatch(b.at, b.reqs); err != nil {
			return nil, fmt.Errorf("ctl: drill killed batch at %v: %w", b.at, err)
		}
		beforeCheckpoint, kill := killAfter[i]
		if !beforeCheckpoint {
			if err := m.checkpointDue(before); err != nil {
				return nil, fmt.Errorf("ctl: drill killed checkpoint at %v: %w", b.at, err)
			}
		}
		if kill {
			// The process dies here: the machine is dropped on the floor
			// (no Finish, no flush) and rebuilt from durable state alone.
			m, _, err = Resume(killedCfg)
			if err != nil {
				return nil, fmt.Errorf("ctl: drill recovery after batch %d: %w", i, err)
			}
			report.Kills++
		}
	}
	report.Replayed = m.Counters().ServeReplayed
	if err := m.AdvanceTo(horizon); err != nil {
		return nil, fmt.Errorf("ctl: drill killed drain: %w", err)
	}
	killedRes, err := m.Finish()
	if err != nil {
		return nil, fmt.Errorf("ctl: drill killed finish: %w", err)
	}
	if err := killedRes.Faults.Sane(); err != nil {
		return nil, fmt.Errorf("ctl: drill killed run counters: %w", err)
	}
	got := sim.DumpResult(killedRes)
	if got != want {
		report.Diff = sim.FirstDiff(want, got)
	}
	return report, nil
}

// batch groups script steps sharing one virtual instant: one WAL append,
// one fsync, one canonical order.
type batch struct {
	at   time.Duration
	reqs []Request
}

func batchScript(script []Step) []batch {
	var out []batch
	for _, st := range script {
		if n := len(out); n > 0 && out[n-1].at == st.At {
			out[n-1].reqs = append(out[n-1].reqs, st.Req)
			continue
		}
		out = append(out, batch{at: st.At, reqs: []Request{st.Req}})
	}
	return out
}

// pickKillPoints seeds n distinct batch ordinals to die after. With fewer
// batches than requested kills, every batch boundary kills. A point's
// value says where in its batch the process dies: true before the
// checkpoint the batch made due (after its acknowledgement), false after
// it. Every other point in seeded draw order dies before the checkpoint.
func pickKillPoints(seed int64, n, batches int) map[int]bool {
	points := make(map[int]bool, n)
	if batches <= 0 || n <= 0 {
		return points
	}
	rng := drillRNG(uint64(seed) ^ 0xd1b54a32d192ed03 + 1)
	if n >= batches {
		first := int(rng.next() & 1)
		for i := 0; i < batches; i++ {
			points[i] = (i+first)%2 == 0
		}
		return points
	}
	for len(points) < n {
		i := int(rng.next() % uint64(batches))
		if _, dup := points[i]; !dup {
			points[i] = len(points)%2 == 0
		}
	}
	return points
}
