package core

import (
	"testing"
	"time"

	"github.com/coda-repro/coda/internal/cluster"
	"github.com/coda-repro/coda/internal/history"
	"github.com/coda-repro/coda/internal/job"
	"github.com/coda-repro/coda/internal/perfmodel"
	"github.com/coda-repro/coda/internal/sim"
	"github.com/coda-repro/coda/internal/trace"
)

func testOptions() sim.Options {
	opts := sim.DefaultOptions()
	opts.Cluster = cluster.Config{
		Nodes: 4, CoresPerNode: 28, GPUsPerNode: 5,
		BandwidthGBs: 120, PCIeGBs: 16,
	}
	opts.SampleInterval = time.Minute
	// Run every core test under the simulator's per-event invariant checker,
	// which also folds in the CODA scheduler's own CheckInvariants.
	opts.Invariants = true
	return opts
}

func newCoda(t *testing.T, cfg Config, opts sim.Options) *Scheduler {
	t.Helper()
	s, err := New(cfg, opts.Cluster.Nodes, opts.Cluster.CoresPerNode, opts.Cluster.GPUsPerNode)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func gpuJob(id job.ID, arrival time.Duration, model string, reqCores, gpus, nodes int, work time.Duration) *job.Job {
	m, err := perfmodel.Lookup(model)
	if err != nil {
		panic(err)
	}
	return &job.Job{
		ID: id, Kind: job.KindGPUTraining, Tenant: 1, Category: m.Category,
		Model: model, Request: job.Request{CPUCores: reqCores, GPUs: gpus, Nodes: nodes},
		Arrival: arrival, Work: work,
	}
}

func cpuJob(id job.ID, arrival time.Duration, tenant job.TenantID, cores int, work time.Duration) *job.Job {
	return &job.Job{
		ID: id, Kind: job.KindCPU, Tenant: tenant,
		Request: job.Request{CPUCores: cores, Nodes: 1},
		Arrival: arrival, Work: work, Bandwidth: 0.3 * float64(cores),
	}
}

func hogJob(id job.ID, arrival time.Duration, cores int, bw float64, work time.Duration) *job.Job {
	return &job.Job{
		ID: id, Kind: job.KindBandwidthHog, Tenant: 3,
		Request: job.Request{CPUCores: cores, Nodes: 1},
		Arrival: arrival, Work: work, Bandwidth: bw,
	}
}

func runCoda(t *testing.T, cfg Config, opts sim.Options, jobs []*job.Job) (*sim.Result, *Scheduler) {
	t.Helper()
	s := newCoda(t, cfg, opts)
	simulator, err := sim.New(opts, s, jobs)
	if err != nil {
		t.Fatal(err)
	}
	res, err := simulator.Run()
	if err != nil {
		t.Fatal(err)
	}
	if err := s.arrays.CheckInvariants(); err != nil {
		t.Fatalf("multi-array invariants: %v", err)
	}
	return res, s
}

func TestNewValidation(t *testing.T) {
	if _, err := New(DefaultConfig(), 0, 28, 5); err == nil {
		t.Error("zero nodes should fail")
	}
	cfg := DefaultConfig()
	cfg.Array.ReserveCores = 99
	if _, err := New(cfg, 4, 28, 5); err != nil {
		// MaxCores is clamped but the reserve is validated per node count.
		t.Logf("reserve validation: %v (expected)", err)
	} else {
		t.Error("oversized reserve should fail")
	}
}

func TestName(t *testing.T) {
	s := newCoda(t, DefaultConfig(), testOptions())
	if s.Name() != "coda" {
		t.Errorf("Name = %q", s.Name())
	}
}

// TestAllocatorConvergesNearOptimal runs every Table I model alone under
// CODA and checks the tuned core count lands within one core of the
// perfmodel optimum in at most MaxSteps profiling steps (§VI-F, Tbl. II).
func TestAllocatorConvergesNearOptimal(t *testing.T) {
	for _, name := range perfmodel.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			model, err := perfmodel.Lookup(name)
			if err != nil {
				t.Fatal(err)
			}
			wantOpt, err := model.OptimalCores(perfmodel.Config{Nodes: 1, GPUs: 1}, 0)
			if err != nil {
				t.Fatal(err)
			}
			// The owner requested 2 cores (the common under-request).
			j := gpuJob(1, 0, name, 2, 1, 1, 2*time.Hour)
			res, s := runCoda(t, DefaultConfig(), testOptions(), []*job.Job{j})
			if !res.Jobs[1].Completed {
				t.Fatal("job did not complete")
			}
			final := res.Jobs[1].FinalCores
			if final < wantOpt-1 || final > wantOpt+1 {
				t.Errorf("tuned cores = %d, optimal %d", final, wantOpt)
			}
			// The tuned point is logged for Nstart seeding (per GPU; j has one).
			if perGPU, ok := s.History().LargestCoresPerGPU(1, j.Category); !ok || perGPU != float64(final) {
				t.Errorf("history cores per GPU = %g, %v; want %d", perGPU, ok, final)
			}
		})
	}
}

// TestTuningOverheadWithinFourSteps replays Table II: every model settles
// within the configured profiling-step budget.
func TestTuningOverheadWithinFourSteps(t *testing.T) {
	for _, name := range perfmodel.Names() {
		j := gpuJob(1, 0, name, 2, 1, 1, 2*time.Hour)
		s := newCoda(t, DefaultConfig(), testOptions())
		simulator, err := sim.New(testOptions(), s, []*job.Job{j})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := simulator.Run(); err != nil {
			t.Fatal(err)
		}
		// The settled record is cleared at completion; recover from history.
		stats := s.History().Stats()
		if stats.GPUJobs != 1 {
			t.Fatalf("%s: job not logged", name)
		}
	}
}

// TestSlimmingOverRequestedJob checks the headline behaviour: a job
// requesting far too many cores is slimmed toward the optimum, freeing
// cores for others (Fig. 14's "33.6%% of jobs get 1-20 fewer cores").
func TestSlimmingOverRequestedJob(t *testing.T) {
	j := gpuJob(1, 0, "resnet50", 20, 1, 1, 2*time.Hour)
	res, _ := runCoda(t, DefaultConfig(), testOptions(), []*job.Job{j})
	if !res.Jobs[1].Completed {
		t.Fatal("job did not complete")
	}
	if res.Jobs[1].FinalCores >= 20 {
		t.Errorf("FinalCores = %d, want slimmed below the 20 requested", res.Jobs[1].FinalCores)
	}
	if res.Jobs[1].FinalCores > 6 {
		t.Errorf("FinalCores = %d, want near resnet50's optimum of 3", res.Jobs[1].FinalCores)
	}
}

func TestInitialCoresSeeding(t *testing.T) {
	log := history.NewLog()
	a := NewAllocator(DefaultAllocatorConfig(), log, func(job.ID, int) error { return nil })

	cvJob := gpuJob(1, 0, "resnet50", 2, 1, 1, time.Hour)
	if got := a.InitialCores(cvJob); got != 3 {
		t.Errorf("CV first-timer Nstart = %d, want 3", got)
	}
	nlpJob := gpuJob(2, 0, "bat", 2, 1, 1, time.Hour)
	if got := a.InitialCores(nlpJob); got != 5 {
		t.Errorf("NLP first-timer Nstart = %d, want 5", got)
	}
	speech := gpuJob(3, 0, "wavenet", 2, 1, 1, time.Hour)
	if got := a.InitialCores(speech); got != 5 {
		t.Errorf("Speech first-timer Nstart = %d, want 5", got)
	}

	// Multi-GPU first-timers scale by the GPU count.
	multi := gpuJob(4, 0, "resnet50", 2, 4, 1, time.Hour)
	if got := a.InitialCores(multi); got != 12 {
		t.Errorf("1N4G CV Nstart = %d, want 12", got)
	}

	// Multi-node jobs are pinned to 2 cores (§IV-B2).
	twoNode := gpuJob(5, 0, "resnet50", 2, 8, 2, time.Hour)
	if got := a.InitialCores(twoNode); got != 2 {
		t.Errorf("2N8G Nstart = %d, want 2", got)
	}

	// History overrides the default.
	if err := log.Add(history.Record{
		JobID: 10, Tenant: 1, Kind: job.KindGPUTraining,
		Category: job.CategoryCV, CPUCores: 7, GPUs: 1,
	}); err != nil {
		t.Fatal(err)
	}
	if got := a.InitialCores(cvJob); got != 7 {
		t.Errorf("history-seeded Nstart = %d, want 7", got)
	}

	// No category: fall back to the owner's whole history.
	anon := gpuJob(6, 0, "resnet50", 2, 1, 1, time.Hour)
	anon.Category = job.CategoryNone
	if got := a.InitialCores(anon); got != 7 {
		t.Errorf("anonymous Nstart = %d, want 7 (owner history)", got)
	}

	// Hints adjust the seed (§V-B1).
	hinted := gpuJob(7, 0, "resnet50", 2, 1, 1, time.Hour)
	hinted.Hints = job.Hints{HasPipeline: true, LargeWeights: true, ComplexPreprocess: true}
	if got := a.InitialCores(hinted); got != 6 {
		t.Errorf("hinted Nstart = %d, want 7-1-1+1=6", got)
	}

	// CPU jobs pass through untouched.
	c := cpuJob(8, 0, 2, 3, time.Hour)
	if got := a.InitialCores(c); got != 3 {
		t.Errorf("CPU job InitialCores = %d, want 3", got)
	}
}

func TestInitialCoresAnonymousFirstTimer(t *testing.T) {
	a := NewAllocator(DefaultAllocatorConfig(), history.NewLog(), func(job.ID, int) error { return nil })
	anon := gpuJob(1, 0, "resnet50", 2, 1, 1, time.Hour)
	anon.Category = job.CategoryNone
	if got := a.InitialCores(anon); got != 4 {
		t.Errorf("anonymous first-timer Nstart = %d, want 4", got)
	}
}

// TestCrossArrayPreemption: CPU jobs borrow the GPU array's reserve while
// it is idle; an arriving GPU job reclaims the cores by preempting them
// (§V-C).
func TestCrossArrayPreemption(t *testing.T) {
	opts := testOptions()
	opts.Cluster.Nodes = 1
	opts.Cluster.CoresPerNode = 12
	opts.Cluster.GPUsPerNode = 2
	cfg := DefaultConfig()
	cfg.Array.ReserveCores = 8 // 4 shared cores
	cfg.RebalanceEvery = 0     // keep the split fixed for the test

	jobs := []*job.Job{
		// Three CPU jobs: 12 cores total, must borrow 8 from the reserve.
		cpuJob(1, 0, 2, 4, 4*time.Hour),
		cpuJob(2, 0, 2, 4, 4*time.Hour),
		cpuJob(3, 0, 2, 4, 4*time.Hour),
		// A training job arrives needing reserve cores.
		gpuJob(4, 30*time.Minute, "resnet50", 3, 1, 1, time.Hour),
	}
	res, _ := runCoda(t, cfg, opts, jobs)
	if res.Preemptions == 0 {
		t.Error("expected cross-array preemption")
	}
	for id := job.ID(1); id <= 4; id++ {
		if !res.Jobs[id].Completed {
			t.Errorf("job %d did not complete", id)
		}
	}
	// The training job must not have waited long: preemption is immediate.
	if q := res.Jobs[4].QueueTime(); q > 5*time.Minute {
		t.Errorf("GPU job queued %v despite preemption", q)
	}
}

// TestBorrowingWhileGPUJobsPend: a CPU job may borrow idle reserve cores
// even while a GPU job waits for a GPU (the reserve is reclaimed by
// preemption only when a GPU job actually needs the cores, §V-C).
func TestBorrowingWhileGPUJobsPend(t *testing.T) {
	opts := testOptions()
	opts.Cluster.Nodes = 1
	opts.Cluster.CoresPerNode = 12
	opts.Cluster.GPUsPerNode = 1
	cfg := DefaultConfig()
	cfg.Array.ReserveCores = 8
	cfg.RebalanceEvery = 0

	jobs := []*job.Job{
		// GPU job holds the only GPU for 2h; a second GPU job waits on it.
		gpuJob(1, 0, "transformer", 2, 1, 1, 2*time.Hour),
		gpuJob(2, time.Minute, "transformer", 2, 1, 1, time.Hour),
		// CPU job needing 6 cores: shared pool only has 4, so it borrows 2.
		cpuJob(3, 2*time.Minute, 2, 6, 30*time.Minute),
	}
	res, _ := runCoda(t, cfg, opts, jobs)
	if q := res.Jobs[3].QueueTime(); q > 5*time.Minute {
		t.Errorf("CPU job queued %v; borrowing should be immediate", q)
	}
	for id := job.ID(1); id <= 3; id++ {
		if !res.Jobs[id].Completed {
			t.Errorf("job %d did not complete", id)
		}
	}
}

// TestEliminatorProtectsTrainingJob: with the eliminator on, a
// bandwidth-sensitive training job co-located with a HEAT-style hog
// finishes sooner than with the eliminator disabled (§VI-E).
func TestEliminatorProtectsTrainingJob(t *testing.T) {
	opts := testOptions()
	opts.Cluster.Nodes = 1
	jobs := func() []*job.Job {
		return []*job.Job{
			gpuJob(1, 0, "bat", 5, 1, 1, 2*time.Hour),
			hogJob(2, 10*time.Minute, 16, 120, 3*time.Hour),
		}
	}
	on, _ := runCoda(t, DefaultConfig(), opts, jobs())
	offCfg := DefaultConfig()
	offCfg.DisableEliminator = true
	off, _ := runCoda(t, offCfg, opts, jobs())

	if on.Throttles == 0 {
		t.Error("eliminator never throttled the hog")
	}
	if off.Throttles != 0 {
		t.Error("disabled eliminator still throttled")
	}
	if on.Jobs[1].EndToEnd() >= off.Jobs[1].EndToEnd() {
		t.Errorf("eliminator did not help: on=%v off=%v",
			on.Jobs[1].EndToEnd(), off.Jobs[1].EndToEnd())
	}
}

// TestEliminatorCoreHalvingFallback: without MBA the eliminator halves the
// hog's cores instead (§V-D).
func TestEliminatorCoreHalvingFallback(t *testing.T) {
	opts := testOptions()
	opts.Cluster.Nodes = 1
	opts.MBASupported = false
	jobs := []*job.Job{
		gpuJob(1, 0, "bat", 5, 1, 1, time.Hour),
		hogJob(2, 10*time.Minute, 16, 120, 2*time.Hour),
	}
	res, _ := runCoda(t, DefaultConfig(), opts, jobs)
	if res.Throttles != 0 {
		t.Error("MBA throttling should be unavailable")
	}
	// The eliminator halved the hog's cores at least once.
	if res.Jobs[2].Resizes == 0 {
		t.Error("hog cores never halved")
	}
}

// TestFullTraceCODA runs a mixed mini-trace end to end.
func TestFullTraceCODA(t *testing.T) {
	cfg := trace.DefaultConfig()
	cfg.CPUJobs, cfg.GPUJobs = 400, 120
	cfg.Duration = 48 * time.Hour
	jobs, err := trace.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	opts := testOptions()
	opts.Cluster.Nodes = 8
	res, s := runCoda(t, DefaultConfig(), opts, jobs)
	incomplete := 0
	for _, js := range res.Jobs {
		if !js.Completed {
			incomplete++
		}
	}
	if incomplete > 0 {
		t.Errorf("%d jobs incomplete", incomplete)
	}
	stats := s.History().Stats()
	if stats.GPUJobs == 0 {
		t.Errorf("history empty: %+v", stats)
	}
	sum := res.Summarize()
	if sum.GPUUtil <= 0 || sum.GPUActiveRate <= 0 {
		t.Errorf("summary = %+v", sum)
	}
}

// TestDisableAdaptiveAllocationAblation pins requested cores.
func TestDisableAdaptiveAllocationAblation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DisableAdaptiveAllocation = true
	j := gpuJob(1, 0, "resnet50", 2, 1, 1, time.Hour)
	res, _ := runCoda(t, cfg, testOptions(), []*job.Job{j})
	if got := res.Jobs[1].FinalCores; got != 2 {
		t.Errorf("FinalCores = %d, want the pinned 2", got)
	}
	// A starved 2-core resnet50 run takes notably longer than 1h.
	if res.Jobs[1].EndToEnd() < 75*time.Minute {
		t.Errorf("EndToEnd = %v, want a starved slow run", res.Jobs[1].EndToEnd())
	}
}

// TestRebalanceAdaptsReserve: after enough completions the reserve tracks
// the mean tuned demand.
func TestRebalanceAdaptsReserve(t *testing.T) {
	m, err := NewMultiArrayForCluster(DefaultArrayConfig(), cluster.Config{Nodes: 2, CoresPerNode: 28, GPUsPerNode: 5})
	if err != nil {
		t.Fatal(err)
	}
	log := history.NewLog()
	for i := 1; i <= 10; i++ {
		if err := log.Add(history.Record{
			JobID: job.ID(i), Tenant: 1, Kind: job.KindGPUTraining,
			Category: job.CategoryCV, CPUCores: 3, GPUs: 1,
		}); err != nil {
			t.Fatal(err)
		}
	}
	m.Rebalance(log.Stats(), 5)
	// 3 cores per GPU x 5 GPUs + 1 spare = 16 reserve.
	for nid, b := range m.budgets {
		if b.reserve != 16 {
			t.Errorf("node %d reserve = %d, want 16", nid, b.reserve)
		}
	}
	// Empty history leaves the split untouched.
	m2, _ := NewMultiArrayForCluster(DefaultArrayConfig(), cluster.Config{Nodes: 1, CoresPerNode: 28, GPUsPerNode: 5})
	m2.Rebalance(history.NewLog().Stats(), 5)
	if m2.budgets[0].reserve != DefaultArrayConfig().ReserveCores {
		t.Error("empty-history rebalance changed the reserve")
	}
}

// TestMultiNodePlacement: a 2N8G job lands on two nodes.
func TestMultiNodePlacement(t *testing.T) {
	j := gpuJob(1, 0, "transformer", 2, 8, 2, time.Hour)
	res, _ := runCoda(t, DefaultConfig(), testOptions(), []*job.Job{j})
	if !res.Jobs[1].Completed {
		t.Fatal("multi-node job did not complete")
	}
	// Multi-node runs at ~72.5% speed: EndToEnd ≈ work/0.725.
	hour := time.Hour
	want := time.Duration(float64(hour) / 0.725)
	got := res.Jobs[1].EndToEnd()
	if got < want-5*time.Minute || got > want+10*time.Minute {
		t.Errorf("EndToEnd = %v, want ~%v", got, want)
	}
}

// TestLargeJobPrefersFourGNodes: a 4-GPU job goes to the 4-GPU sub-array.
func TestLargeJobPrefersFourGNodes(t *testing.T) {
	opts := testOptions()
	opts.Cluster.Nodes = 4 // nodes 0 = 4G sub-array (fraction 0.3 -> 1 node)
	s := newCoda(t, DefaultConfig(), opts)
	jobs := []*job.Job{gpuJob(1, 0, "transformer", 2, 4, 1, time.Hour)}
	simulator, err := sim.New(opts, s, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if s.arrays.fourGNodes != 1 {
		t.Fatalf("4-GPU sub-array has %d nodes, want 1 (node 0)", s.arrays.fourGNodes)
	}
	res, err := simulator.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Jobs[1].Completed {
		t.Fatal("job did not complete")
	}
}
