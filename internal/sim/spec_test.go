package sim

import (
	"strings"
	"testing"
	"time"

	"github.com/coda-repro/coda/internal/chaos"
	"github.com/coda-repro/coda/internal/core"
	"github.com/coda-repro/coda/internal/sched"
	"github.com/coda-repro/coda/internal/trace"
)

// chaoticSpec builds a small CODA spec with a non-empty fault plan — the
// exact shape where the latent aliasing hazard lived: Options carries a
// chaos.Plan whose Faults slice would otherwise be shared across reuses.
func chaoticSpec(t *testing.T) RunSpec {
	t.Helper()
	cfg := trace.DefaultConfig()
	cfg.CPUJobs, cfg.GPUJobs = 40, 12
	cfg.Duration = 8 * time.Hour
	cfg.Seed = 5
	opts := testOptions()
	opts.Seed = 9
	opts.Faults = chaos.Plan{
		Seed:    3,
		Horizon: cfg.Duration,
		Faults: []chaos.Fault{
			{At: time.Hour, Kind: chaos.KindNodeCrash, Node: 1},
			{At: 2 * time.Hour, Kind: chaos.KindNodeRecover, Node: 1},
		},
		JobFailureProb: 0.05,
	}
	return RunSpec{
		Name:    "chaotic",
		Options: opts,
		Trace:   &cfg,
		NewScheduler: func() (sched.Scheduler, error) {
			return core.New(core.DefaultConfig(), opts.Cluster.Nodes, opts.Cluster.CoresPerNode, opts.Cluster.GPUsPerNode)
		},
	}
}

func TestPlanCloneSeversFaultSlice(t *testing.T) {
	orig := chaos.Plan{
		Seed:   1,
		Faults: []chaos.Fault{{At: time.Hour, Kind: chaos.KindNodeCrash, Node: 2}},
	}
	cp := orig.Clone()
	cp.Faults[0].At = 5 * time.Hour
	cp.Faults[0].Node = 7
	if orig.Faults[0].At != time.Hour || orig.Faults[0].Node != 2 {
		t.Fatalf("mutating the clone's fault reached the original: %+v", orig.Faults[0])
	}
}

func TestOptionsCloneSeversPlan(t *testing.T) {
	opts := testOptions()
	opts.Faults = chaos.Plan{
		Seed:   1,
		Faults: []chaos.Fault{{At: time.Hour, Kind: chaos.KindNodeCrash, Node: 0}},
	}
	cp := opts.Clone()
	cp.Faults.Faults[0].Kind = chaos.KindNodeDrain
	if opts.Faults.Faults[0].Kind != chaos.KindNodeCrash {
		t.Fatal("mutating the cloned options' plan reached the original")
	}
}

// TestSpecReuseIsIsolated is the satellite acceptance test for the sharing
// hazard: one spec seeds two runs, one run's plan is then mutated, and the
// other run must still reproduce the pristine baseline bit for bit.
func TestSpecReuseIsIsolated(t *testing.T) {
	spec := chaoticSpec(t)
	baselineRes, err := spec.Clone().Run()
	if err != nil {
		t.Fatal(err)
	}
	baseline := DumpResult(baselineRes)

	// Seed two runs from the same spec; sabotage B's copy of the plan the
	// way a sweep harness might (retarget the crash, change job-failure
	// odds) before running either.
	runA, runB := spec.Clone(), spec.Clone()
	runB.Options.Faults.Faults[0] = chaos.Fault{At: 30 * time.Minute, Kind: chaos.KindNodeCrash, Node: 3}
	runB.Options.Faults.Faults[1] = chaos.Fault{At: 4 * time.Hour, Kind: chaos.KindNodeRecover, Node: 3}
	runB.Options.Faults.JobFailureProb = 0.5
	runB.Trace.HogFraction = 0.5

	resB, err := runB.Run()
	if err != nil {
		t.Fatal(err)
	}
	resA, err := runA.Run()
	if err != nil {
		t.Fatal(err)
	}
	if got := DumpResult(resA); got != baseline {
		t.Fatalf("run B's mutations perturbed run A; diverged at %s", FirstDiff(baseline, got))
	}
	if DumpResult(resB) == baseline {
		t.Error("sabotaged plan produced an identical run; the test lost its sensitivity")
	}
	// The source spec itself must also be untouched.
	if spec.Options.Faults.JobFailureProb != 0.05 || spec.Options.Faults.Faults[0].Node != 1 || spec.Trace.HogFraction != trace.DefaultConfig().HogFraction {
		t.Error("cloned run leaked mutations back into the source spec")
	}
}

// TestSimulatorSealsPlan: even without RunSpec, handing Options straight
// to New must not leave the simulator aliasing the caller's fault slice.
func TestSimulatorSealsPlan(t *testing.T) {
	spec := chaoticSpec(t)
	want, err := spec.Clone().Run() // pristine baseline, before any sabotage
	if err != nil {
		t.Fatal(err)
	}
	opts := spec.Options
	s, err := core.New(core.DefaultConfig(), opts.Cluster.Nodes, opts.Cluster.CoresPerNode, opts.Cluster.GPUsPerNode)
	if err != nil {
		t.Fatal(err)
	}
	jobs, err := trace.Generate(*spec.Trace)
	if err != nil {
		t.Fatal(err)
	}
	simulator, err := New(opts, s, jobs)
	if err != nil {
		t.Fatal(err)
	}
	// Sabotage the caller's plan after construction, then run. opts shares
	// its Faults slice with spec, so only the simulator's sealed copy can
	// still match the baseline.
	opts.Faults.Faults[0] = chaos.Fault{At: time.Minute, Kind: chaos.KindNodeCrash, Node: 0}
	res, err := simulator.Run()
	if err != nil {
		t.Fatal(err)
	}
	if a, b := DumpResult(want), DumpResult(res); a != b {
		t.Fatalf("post-construction plan edit perturbed the run; diverged at %s", FirstDiff(a, b))
	}
}

func TestFirstDiff(t *testing.T) {
	got := FirstDiff("a\nb\nc", "a\nX\nc")
	if !strings.Contains(got, "line 2") || !strings.Contains(got, "run A: b") || !strings.Contains(got, "run B: X") {
		t.Errorf("diff did not locate line 2: %q", got)
	}
	if got := FirstDiff("a\nb", "a\nb\nc"); !strings.Contains(got, "different lengths") {
		t.Errorf("length mismatch not reported: %q", got)
	}
}

func TestRunSpecValidate(t *testing.T) {
	spec := chaoticSpec(t)
	if err := spec.Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	noSched := spec.Clone()
	noSched.NewScheduler = nil
	if err := noSched.Validate(); err == nil {
		t.Error("spec without scheduler factory should fail validation")
	}
	if _, err := noSched.Run(); err == nil {
		t.Error("running a spec without scheduler factory should fail")
	}
	noTrace := spec.Clone()
	noTrace.Trace = nil
	if err := noTrace.Validate(); err == nil {
		t.Error("spec without a trace should fail validation")
	}
	if res, err := noTrace.Run(); err == nil {
		t.Errorf("running a spec without a trace should fail, got a result with %d events", res.Events)
	}
	badTrace := spec.Clone()
	badTrace.Trace.Duration = 0
	if err := badTrace.Validate(); err == nil {
		t.Error("spec with an invalid trace config should fail validation")
	}
	badOpts := spec.Clone()
	badOpts.Options.TickInterval = -time.Second
	if err := badOpts.Validate(); err == nil {
		t.Error("spec with invalid options should fail validation")
	}
}
