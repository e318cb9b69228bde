package sim

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"github.com/coda-repro/coda/internal/chaos"
	"github.com/coda-repro/coda/internal/core"
	"github.com/coda-repro/coda/internal/job"
	"github.com/coda-repro/coda/internal/metrics"
	"github.com/coda-repro/coda/internal/sched"
	"github.com/coda-repro/coda/internal/trace"
)

// oneNodeOptions is testOptions shrunk to a single node so directed fault
// tests know exactly which node a job runs on.
func oneNodeOptions() Options {
	opts := testOptions()
	opts.Cluster.Nodes = 1
	return opts
}

// TestCrashKillsRequeuesAndCompletes: a node crash kills the resident job,
// the job waits out its backoff, requeues when the node recovers and still
// finishes. Nothing is lost, every step is counted.
func TestCrashKillsRequeuesAndCompletes(t *testing.T) {
	opts := oneNodeOptions()
	opts.Faults = chaos.Plan{Faults: []chaos.Fault{
		{At: 10 * time.Minute, Kind: chaos.KindNodeCrash, Node: 0},
		{At: 40 * time.Minute, Kind: chaos.KindNodeRecover, Node: 0},
	}}
	res := mustRun(t, opts, sched.NewFIFO(), []*job.Job{cpuJob(1, 0, 8, time.Hour)})

	f := res.Faults
	if f.NodeCrashes != 1 || f.NodeRecoveries != 1 {
		t.Errorf("crashes=%d recoveries=%d, want 1/1", f.NodeCrashes, f.NodeRecoveries)
	}
	if f.JobKills != 1 || f.Requeues != 1 {
		t.Errorf("kills=%d requeues=%d, want 1/1", f.JobKills, f.Requeues)
	}
	if f.GoodputLost <= 0 {
		t.Errorf("goodput lost = %v, want > 0 (the job had 10m of progress)", f.GoodputLost)
	}
	js := res.Jobs[1]
	if js.Kills != 1 || js.Requeues != 1 {
		t.Errorf("job kills=%d requeues=%d, want 1/1", js.Kills, js.Requeues)
	}
	if !js.Completed {
		t.Fatal("killed job never completed after the node recovered")
	}
	// The node was down 10m..40m and the attempt restarted from scratch:
	// completion can be no earlier than recovery + full work.
	if js.CompletedAt < 40*time.Minute+time.Hour {
		t.Errorf("completed at %v, impossibly early for a from-scratch retry", js.CompletedAt)
	}
	if js.TerminallyFailed {
		t.Error("completed job marked terminally failed")
	}
}

// TestRetryBudgetExhaustionIsTerminal: a job killed more often than its
// retry budget allows is terminally reported — visible in the counters and
// its stats — never silently dropped.
func TestRetryBudgetExhaustionIsTerminal(t *testing.T) {
	opts := oneNodeOptions()
	opts.Faults = chaos.Plan{
		MaxRetries: 1,
		Faults: []chaos.Fault{
			{At: 10 * time.Minute, Kind: chaos.KindNodeCrash, Node: 0},
			{At: 12 * time.Minute, Kind: chaos.KindNodeRecover, Node: 0},
			{At: 30 * time.Minute, Kind: chaos.KindNodeCrash, Node: 0},
			{At: 32 * time.Minute, Kind: chaos.KindNodeRecover, Node: 0},
		},
	}
	res := mustRun(t, opts, sched.NewFIFO(), []*job.Job{cpuJob(1, 0, 8, 4*time.Hour)})

	if res.Faults.TerminalFailures != 1 {
		t.Fatalf("terminal failures = %d, want 1", res.Faults.TerminalFailures)
	}
	if res.Faults.JobKills != 2 {
		t.Errorf("kills = %d, want 2 (one per crash)", res.Faults.JobKills)
	}
	js := res.Jobs[1]
	if !js.TerminallyFailed {
		t.Fatal("job not marked terminally failed")
	}
	if js.Completed {
		t.Error("terminally failed job also marked completed")
	}
}

// TestDrainStopsPlacements: a drained node keeps running nothing new but
// kills nothing; undraining opens it again.
func TestDrainStopsPlacements(t *testing.T) {
	opts := oneNodeOptions()
	opts.Faults = chaos.Plan{Faults: []chaos.Fault{
		{At: 0, Kind: chaos.KindNodeDrain, Node: 0},
		{At: 30 * time.Minute, Kind: chaos.KindNodeUndrain, Node: 0},
	}}
	res := mustRun(t, opts, sched.NewFIFO(), []*job.Job{cpuJob(1, time.Minute, 8, time.Hour)})

	js := res.Jobs[1]
	if !js.Completed {
		t.Fatal("job never completed")
	}
	if js.FirstStart < 30*time.Minute {
		t.Errorf("job started at %v while the node was draining", js.FirstStart)
	}
	if js.Kills != 0 {
		t.Errorf("drain killed a job: kills=%d", js.Kills)
	}
}

// TestStragglerSlowsJob: a straggler window with factor 0.5 roughly doubles
// a resident job's runtime relative to a clean run.
func TestStragglerSlowsJob(t *testing.T) {
	clean := mustRun(t, oneNodeOptions(), sched.NewFIFO(),
		[]*job.Job{cpuJob(1, 0, 8, time.Hour)})

	opts := oneNodeOptions()
	opts.Faults = chaos.Plan{Faults: []chaos.Fault{
		{At: 0, Kind: chaos.KindStragglerStart, Node: 0, Factor: 0.5},
		{At: 10 * time.Hour, Kind: chaos.KindStragglerEnd, Node: 0, Factor: 0.5},
	}}
	slowed := mustRun(t, opts, sched.NewFIFO(), []*job.Job{cpuJob(1, 0, 8, time.Hour)})

	if res := slowed.Faults.Stragglers; res != 1 {
		t.Errorf("stragglers = %d, want 1", res)
	}
	ratio := float64(slowed.Jobs[1].EndToEnd()) / float64(clean.Jobs[1].EndToEnd())
	if ratio < 1.8 || ratio > 2.2 {
		t.Errorf("straggler slowdown = %.2fx, want ~2x", ratio)
	}
}

// meterProbe reads node 0's bandwidth meter on every tick and records what
// came back.
type meterProbe struct {
	envScheduler
	reads    int
	darkErrs int
	lastErr  error
}

func (m *meterProbe) Tick() {
	m.reads++
	if _, err := m.env.Meter(0); err != nil {
		m.lastErr = err
		if errors.Is(err, ErrTelemetryDark) {
			m.darkErrs++
		}
	}
}

// TestMembwDarkMeterErrors: during a telemetry dropout the scheduler-facing
// meter fails with ErrTelemetryDark while the run itself proceeds, and the
// degraded exposure is measured.
func TestMembwDarkMeterErrors(t *testing.T) {
	opts := oneNodeOptions()
	opts.Faults = chaos.Plan{Faults: []chaos.Fault{
		{At: 0, Kind: chaos.KindMembwDark, Node: 0},
	}}
	probe := &meterProbe{envScheduler: envScheduler{auto: true}}
	res := mustRun(t, opts, probe, []*job.Job{cpuJob(1, 0, 8, time.Hour)})

	if probe.reads == 0 {
		t.Fatal("probe never ticked")
	}
	if probe.darkErrs != probe.reads {
		t.Errorf("%d of %d meter reads failed dark (last err: %v); dropout never ends, all should",
			probe.darkErrs, probe.reads, probe.lastErr)
	}
	if res.Faults.MembwDropouts != 1 {
		t.Errorf("dropouts = %d, want 1", res.Faults.MembwDropouts)
	}
	if res.Faults.DegradedSamples == 0 {
		t.Error("no degraded samples recorded during a run-long dropout")
	}
	if !res.Jobs[1].Completed {
		t.Error("job did not complete; dark telemetry must not stop the physics")
	}
}

// chaosRun runs the full CODA scheduler over a generated trace under a
// fault plan, with the invariant checker hot.
func chaosRun(t *testing.T, simSeed, traceSeed int64, plan chaos.Plan) *Result {
	t.Helper()
	cfg := trace.DefaultConfig()
	cfg.CPUJobs, cfg.GPUJobs = 60, 20
	cfg.Duration = 12 * time.Hour
	cfg.Seed = traceSeed
	jobs, err := trace.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	opts := testOptions()
	opts.Seed = simSeed
	opts.Faults = plan
	s, err := core.New(core.DefaultConfig(), opts.Cluster.Nodes, opts.Cluster.CoresPerNode, opts.Cluster.GPUsPerNode)
	if err != nil {
		t.Fatal(err)
	}
	return mustRun(t, opts, s, jobs)
}

// TestChaosPropertyRandomPlans is the property-based suite: random fault
// plans over random workloads. For every seed combination the invariant
// checker must stay silent for the whole run (mustRun fails otherwise) and
// every admitted job must end accounted for — completed within its retry
// budget or terminally reported. No job may vanish.
func TestChaosPropertyRandomPlans(t *testing.T) {
	cases := []struct {
		name               string
		simSeed, traceSeed int64
		plan               chaos.Plan
	}{
		{"crash-heavy", 1, 101, chaos.Plan{
			Seed: 11, Horizon: 12 * time.Hour,
			NodeCrashesPerDay: 10, CrashDowntime: 20 * time.Minute,
		}},
		{"dropout-heavy", 2, 102, chaos.Plan{
			Seed: 12, Horizon: 12 * time.Hour,
			MembwDropsPerDay: 24, MembwDropDuration: 15 * time.Minute,
		}},
		{"straggler-heavy", 3, 103, chaos.Plan{
			Seed: 13, Horizon: 12 * time.Hour,
			StragglersPerDay: 12, StragglerFactor: 0.4, StragglerDuration: 45 * time.Minute,
		}},
		{"job-failures", 4, 104, chaos.Plan{
			Seed:           14,
			JobFailureProb: 0.3,
		}},
		{"everything", 5, 105, chaos.Plan{
			Seed: 15, Horizon: 12 * time.Hour,
			NodeCrashesPerDay: 6, CrashDowntime: 25 * time.Minute,
			MembwDropsPerDay: 12, MembwDropDuration: 10 * time.Minute,
			StragglersPerDay: 8, StragglerFactor: 0.5, StragglerDuration: 30 * time.Minute,
			JobFailureProb: 0.2, MaxRetries: 2, RetryBackoff: 2 * time.Minute,
		}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			res := chaosRun(t, tc.simSeed, tc.traceSeed, tc.plan)
			completed, terminal := 0, 0
			for id, js := range res.Jobs {
				switch {
				case js.Completed && js.TerminallyFailed:
					t.Errorf("job %d is both completed and terminally failed", id)
				case js.Completed:
					completed++
				case js.TerminallyFailed:
					terminal++
				default:
					t.Errorf("job %d lost: started=%t kills=%d requeues=%d",
						id, js.Started, js.Kills, js.Requeues)
				}
				if js.Kills > 0 && !js.Completed && !js.TerminallyFailed {
					t.Errorf("killed job %d neither completed nor terminally reported", id)
				}
			}
			if completed+terminal != len(res.Jobs) {
				t.Errorf("%d completed + %d terminal != %d admitted", completed, terminal, len(res.Jobs))
			}
			if res.Faults.TerminalFailures != terminal {
				t.Errorf("terminal counter %d disagrees with per-job stats %d",
					res.Faults.TerminalFailures, terminal)
			}
		})
	}
}

// TestLedgersHoldOnlyInFlightJobs runs CODA until no job is in flight,
// once in batch mode under crashes, injected job failures and one retry
// each, and once in service mode with the same failures, nodes that leave
// and rejoin, and cancels of queued, running and backing-off jobs. Every
// job completed, failed terminally or was cancelled, and each took its
// retry count, failed-once mark and first-start mark with it, so the
// checkpoint taken at the end carries none.
func TestLedgersHoldOnlyInFlightJobs(t *testing.T) {
	plan := chaos.Plan{
		Seed: 18, Horizon: 12 * time.Hour,
		NodeCrashesPerDay: 10, CrashDowntime: 20 * time.Minute,
		JobFailureProb: 0.3, MaxRetries: 1,
	}
	newCODA := func(o Options) sched.Scheduler {
		s, err := core.New(core.DefaultConfig(), o.Cluster.Nodes, o.Cluster.CoresPerNode, o.Cluster.GPUsPerNode)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	opts := testOptions()
	opts.Seed = 8
	opts.Faults = plan
	batch, err := New(opts, newCODA(opts), contractTrace(t))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := batch.Run(); err != nil {
		t.Fatal(err)
	}

	svc := serviceOptions()
	svc.Seed = 8
	svc.Faults = chaos.Plan{Seed: 18, JobFailureProb: 0.3, MaxRetries: 1, RetryBackoff: 30 * time.Minute}
	service := newService(t, svc, newCODA(svc))
	serviceScript(t, service, contractTrace(t))

	for _, run := range []struct {
		name string
		s    *Simulator
	}{{"batch", batch}, {"service", service}} {
		name, s := run.name, run.s
		f := s.results.Faults
		if f.JobFailures == 0 || f.Requeues == 0 || f.TerminalFailures == 0 {
			t.Errorf("%s run: %d job failures, %d requeues, %d terminal failures; want all three",
				name, f.JobFailures, f.Requeues, f.TerminalFailures)
		}
		ck, err := s.Checkpoint()
		if err != nil {
			t.Fatal(err)
		}
		if n := len(ck.Pending) + len(ck.Running) + len(ck.Retrying); n > 0 {
			t.Fatalf("%s run ended with %d jobs in flight", name, n)
		}
		if len(ck.Retries) > 0 || len(ck.FailedOnce) > 0 || len(ck.StartedOnce) > 0 {
			t.Errorf("%s run's final checkpoint keeps %d retry counts, %d failed-once marks and %d first-start marks, want none",
				name, len(ck.Retries), len(ck.FailedOnce), len(ck.StartedOnce))
		}
	}
}

// TestChaosSameSeedBitIdentical is the metamorphic determinism test's first
// half: the same sim seed, trace seed and fault plan must reproduce the
// whole run bit for bit — fault counters, kills and requeues included.
func TestChaosSameSeedBitIdentical(t *testing.T) {
	plan := chaos.Plan{
		Seed: 77, Horizon: 12 * time.Hour,
		NodeCrashesPerDay: 8, CrashDowntime: 20 * time.Minute,
		MembwDropsPerDay: 10, MembwDropDuration: 10 * time.Minute,
		StragglersPerDay: 6, StragglerDuration: 30 * time.Minute,
		JobFailureProb: 0.15,
	}
	a := dumpResult(chaosRun(t, 7, 42, plan))
	b := dumpResult(chaosRun(t, 7, 42, plan))
	if a != b {
		t.Fatalf("same-seed chaotic runs diverged at %s", firstDiff(a, b))
	}
	clean := dumpResult(chaosRun(t, 7, 42, chaos.Plan{}))
	if clean == a {
		t.Error("fault plan had no observable effect; the dump is not sensitive enough")
	}
}

// seriesPrefix renders a series' samples strictly before cutoff, bit-exact.
func seriesPrefix(s *metrics.Series, cutoff time.Duration) string {
	var b strings.Builder
	times, vals := s.Times(), s.Values()
	for i := range vals {
		if times[i] >= cutoff {
			break
		}
		fmt.Fprintf(&b, " %d=%s", times[i], hexFloat(vals[i]))
	}
	return b.String()
}

// TestDifferentFaultSeedDivergesOnlyAfterFirstFault is the second half of
// the metamorphic test: changing only the fault seed leaves the run
// bit-identical up to the first injected fault of either schedule, and
// visibly different after.
func TestDifferentFaultSeedDivergesOnlyAfterFirstFault(t *testing.T) {
	mk := func(seed int64) chaos.Plan {
		return chaos.Plan{
			Seed: seed, Horizon: 12 * time.Hour,
			NodeCrashesPerDay: 6, CrashDowntime: 30 * time.Minute,
		}
	}
	planA, planB := mk(1), mk(2)
	nodes := testOptions().Cluster.Nodes

	firstFault := func(p chaos.Plan) time.Duration {
		faults, err := p.Compile(nodes)
		if err != nil {
			t.Fatal(err)
		}
		if len(faults) == 0 {
			t.Fatalf("plan seed %d compiled to no faults; pick another seed", p.Seed)
		}
		return faults[0].At
	}
	cut := firstFault(planA)
	if b := firstFault(planB); b < cut {
		cut = b
	}

	resA := chaosRun(t, 7, 42, planA)
	resB := chaosRun(t, 7, 42, planB)

	series := []struct {
		name string
		a, b *metrics.Series
	}{
		{"gpuActive", &resA.GPUActive, &resB.GPUActive},
		{"gpuUtil", &resA.GPUUtilSeries, &resB.GPUUtilSeries},
		{"cpuActive", &resA.CPUActive, &resB.CPUActive},
		{"cpuUtil", &resA.CPUUtilSeries, &resB.CPUUtilSeries},
		{"frag", &resA.FragSeries, &resB.FragSeries},
		{"queuedGPU", &resA.QueuedGPU, &resB.QueuedGPU},
		{"queuedCPU", &resA.QueuedCPU, &resB.QueuedCPU},
	}
	for _, s := range series {
		pa, pb := seriesPrefix(s.a, cut), seriesPrefix(s.b, cut)
		if pa != pb {
			t.Errorf("series %s diverged BEFORE the first injected fault (t=%v):\n  A:%s\n  B:%s",
				s.name, cut, pa, pb)
		}
	}
	if dumpResult(resA) == dumpResult(resB) {
		t.Error("different fault seeds produced identical runs; injection is inert")
	}
}
