package sim

import (
	"testing"
	"time"

	"github.com/coda-repro/coda/internal/cluster"
	"github.com/coda-repro/coda/internal/job"
	"github.com/coda-repro/coda/internal/sched"
	"github.com/coda-repro/coda/internal/trace"
)

func testOptions() Options {
	opts := DefaultOptions()
	opts.Cluster = cluster.Config{
		Nodes: 4, CoresPerNode: 28, GPUsPerNode: 4,
		BandwidthGBs: 120, PCIeGBs: 16,
	}
	opts.SampleInterval = time.Minute
	// Every sim test runs with the invariant checker hot: a bookkeeping bug
	// anywhere fails the nearest test, not just the dedicated chaos suite.
	opts.Invariants = true
	return opts
}

func gpuJob(id job.ID, arrival time.Duration, model string, cores, gpus int, work time.Duration) *job.Job {
	var cat job.Category
	switch model {
	case "bat", "transformer":
		cat = job.CategoryNLP
	case "wavenet", "deepspeech":
		cat = job.CategorySpeech
	default:
		cat = job.CategoryCV
	}
	return &job.Job{
		ID: id, Kind: job.KindGPUTraining, Tenant: 1, Category: cat,
		Model: model, Request: job.Request{CPUCores: cores, GPUs: gpus, Nodes: 1},
		Arrival: arrival, Work: work,
	}
}

func cpuJob(id job.ID, arrival time.Duration, cores int, work time.Duration) *job.Job {
	return &job.Job{
		ID: id, Kind: job.KindCPU, Tenant: 2,
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

func mustRun(t *testing.T, opts Options, s sched.Scheduler, jobs []*job.Job) *Result {
	t.Helper()
	simulator, err := New(opts, s, jobs)
	if err != nil {
		t.Fatal(err)
	}
	res, err := simulator.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestOptionsValidate(t *testing.T) {
	tests := []struct {
		name    string
		mutate  func(*Options)
		wantErr bool
	}{
		{"default ok", func(o *Options) {}, false},
		{"bad cluster", func(o *Options) { o.Cluster.Nodes = 0 }, true},
		{"zero tick", func(o *Options) { o.TickInterval = 0 }, true},
		{"zero sample", func(o *Options) { o.SampleInterval = 0 }, true},
		{"huge noise", func(o *Options) { o.UtilNoise = 0.5 }, true},
		{"negative cap", func(o *Options) { o.MaxVirtualTime = -1 }, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			opts := DefaultOptions()
			tt.mutate(&opts)
			err := opts.Validate()
			if (err != nil) != tt.wantErr {
				t.Errorf("error = %v, wantErr %v", err, tt.wantErr)
			}
		})
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(DefaultOptions(), nil, nil); err == nil {
		t.Error("nil scheduler should fail")
	}
	bad := &job.Job{ID: 1, Kind: job.KindCPU, Request: job.Request{CPUCores: 0, Nodes: 1}}
	if _, err := New(DefaultOptions(), sched.NewFIFO(), []*job.Job{bad}); err == nil {
		t.Error("invalid job should fail")
	}
}

func TestSingleJobCompletes(t *testing.T) {
	j := gpuJob(1, 0, "resnet50", 3, 1, time.Hour)
	res := mustRun(t, testOptions(), sched.NewFIFO(), []*job.Job{j})

	js := res.Jobs[1]
	if js == nil || !js.Completed {
		t.Fatalf("job did not complete: %+v", js)
	}
	if js.QueueTime() != 0 {
		t.Errorf("QueueTime = %v, want 0 (empty cluster)", js.QueueTime())
	}
	// 3 cores is resnet50's 1N1G optimum: the job runs at full speed.
	if got := js.EndToEnd(); got < time.Hour || got > time.Hour+time.Minute {
		t.Errorf("EndToEnd = %v, want ~1h", got)
	}
	if res.EndTime < time.Hour {
		t.Errorf("EndTime = %v", res.EndTime)
	}
}

func TestStarvedJobRunsSlower(t *testing.T) {
	// 1 core vs the 3-core optimum: resnet50's ramp floor stretches the run.
	fast := mustRun(t, testOptions(), sched.NewFIFO(),
		[]*job.Job{gpuJob(1, 0, "resnet50", 3, 1, time.Hour)})
	slow := mustRun(t, testOptions(), sched.NewFIFO(),
		[]*job.Job{gpuJob(1, 0, "resnet50", 1, 1, time.Hour)})
	if slow.Jobs[1].EndToEnd() <= fast.Jobs[1].EndToEnd()*3/2 {
		t.Errorf("starved run %v not much slower than optimal %v",
			slow.Jobs[1].EndToEnd(), fast.Jobs[1].EndToEnd())
	}
}

func TestQueueTimeRecorded(t *testing.T) {
	opts := testOptions()
	opts.Cluster.Nodes = 1
	opts.Cluster.GPUsPerNode = 1
	jobs := []*job.Job{
		gpuJob(1, 0, "resnet50", 3, 1, time.Hour),
		gpuJob(2, 0, "resnet50", 3, 1, time.Hour),
	}
	res := mustRun(t, opts, sched.NewFIFO(), jobs)
	if got := res.Jobs[2].QueueTime(); got < 50*time.Minute {
		t.Errorf("job 2 QueueTime = %v, want ~1h (waits for job 1)", got)
	}
	if res.GPUQueue.Len() != 2 {
		t.Errorf("GPUQueue samples = %d, want 2", res.GPUQueue.Len())
	}
}

func TestDeterminism(t *testing.T) {
	cfg := trace.DefaultConfig()
	cfg.CPUJobs, cfg.GPUJobs = 300, 100
	cfg.Duration = 24 * time.Hour
	jobs, err := trace.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	run := func() Summary {
		jobsCopy := make([]*job.Job, len(jobs))
		for i, j := range jobs {
			jobsCopy[i] = j.Clone()
		}
		return mustRun(t, testOptions(), sched.NewFIFO(), jobsCopy).Summarize()
	}
	a, b := run(), run()
	if a != b {
		t.Errorf("non-deterministic summaries:\n%+v\n%+v", a, b)
	}
}

func TestAllJobsEventuallyComplete(t *testing.T) {
	cfg := trace.DefaultConfig()
	cfg.CPUJobs, cfg.GPUJobs = 400, 150
	cfg.Duration = 48 * time.Hour
	jobs, err := trace.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	opts := testOptions()
	opts.Cluster.Nodes = 8
	d, err := sched.NewDRF(opts.Cluster.Nodes*opts.Cluster.CoresPerNode,
		opts.Cluster.Nodes*opts.Cluster.GPUsPerNode)
	if err != nil {
		t.Fatal(err)
	}
	res := mustRun(t, opts, d, jobs)
	for id, js := range res.Jobs {
		if !js.Completed {
			t.Errorf("job %d never completed (started=%v)", id, js.Started)
		}
		if js.Started && js.FirstStart < js.Arrival {
			t.Errorf("job %d started before arrival", id)
		}
	}
	sm := res.Summarize()
	if sm.GPUJobsDone != 150 || sm.CPUJobsDone != 400 {
		t.Errorf("completions = %+v", sm)
	}
}

func TestSeriesSampled(t *testing.T) {
	jobs := []*job.Job{gpuJob(1, 0, "vgg16", 4, 1, 30*time.Minute)}
	res := mustRun(t, testOptions(), sched.NewFIFO(), jobs)
	if res.GPUActive.Len() == 0 || res.GPUUtilSeries.Len() == 0 {
		t.Fatal("series not sampled")
	}
	// With one 1-GPU job on 16 GPUs, active rate is 1/16 while running.
	if got := res.GPUActive.Max(); got < 1.0/16-1e-9 || got > 1.0/16+1e-9 {
		t.Errorf("GPUActive.Max = %g, want 1/16", got)
	}
	// vgg16 at its optimum should show its peak utilization (~0.97).
	if got := res.GPUUtilSeries.Max(); got < 0.9 {
		t.Errorf("GPUUtilSeries.Max = %g, want ~0.97", got)
	}
}

func TestContentionSlowsTrainingJob(t *testing.T) {
	// A BAT job (bandwidth-sensitive) co-located with a huge hog must run
	// slower than alone.
	opts := testOptions()
	opts.Cluster.Nodes = 1
	alone := mustRun(t, opts, sched.NewFIFO(),
		[]*job.Job{gpuJob(1, 0, "bat", 5, 1, time.Hour)})
	contended := mustRun(t, opts, sched.NewFIFO(), []*job.Job{
		gpuJob(1, 0, "bat", 5, 1, time.Hour),
		hogJob(2, 0, 16, 130, 4*time.Hour),
	})
	if contended.Jobs[1].EndToEnd() <= alone.Jobs[1].EndToEnd()+10*time.Minute {
		t.Errorf("contended run %v not slower than alone %v",
			contended.Jobs[1].EndToEnd(), alone.Jobs[1].EndToEnd())
	}
}

// envScheduler exposes the Env to the test for direct API exercises.
type envScheduler struct {
	env  sched.Env
	auto bool // start every submitted job first-fit
}

func (e *envScheduler) Name() string            { return "env-test" }
func (e *envScheduler) Bind(env sched.Env)      { e.env = env }
func (e *envScheduler) OnJobCompleted(*job.Job) {}
func (e *envScheduler) OnJobKilled(*job.Job)    {}
func (e *envScheduler) Tick()                   {}
func (e *envScheduler) Submit(j *job.Job) {
	if !e.auto {
		return
	}
	alloc, ok := sched.PlaceRequest(e.env.Cluster(), j.Request)
	if !ok {
		return
	}
	_ = e.env.StartJob(j.ID, alloc)
}

func TestEnvResizeJob(t *testing.T) {
	es := &envScheduler{auto: true}
	jobs := []*job.Job{gpuJob(1, 0, "alexnet", 2, 1, 2*time.Hour)}
	simulator, err := New(testOptions(), es, jobs)
	if err != nil {
		t.Fatal(err)
	}
	// Drive manually: run a few events, then resize mid-flight.
	done := make(chan *Result, 1)
	go func() {
		res, err := simulator.Run()
		if err != nil {
			t.Error(err)
		}
		done <- res
	}()
	res := <-done
	// Job ran at 2 cores the whole time (no resize here): alexnet's
	// 2-core speed is poor, so the run takes much longer than 2h.
	if got := res.Jobs[1].EndToEnd(); got < 4*time.Hour {
		t.Errorf("EndToEnd = %v, want slow 2-core run", got)
	}
}

// resizeOnTick grows a job's cores on the first tick.
type resizeOnTick struct {
	envScheduler
	resized bool
	target  job.ID
	cores   int
	err     error
}

func (r *resizeOnTick) Tick() {
	if r.resized {
		return
	}
	r.resized = true
	r.err = r.env.ResizeJob(r.target, r.cores)
}

func TestEnvResizeSpeedsUpJob(t *testing.T) {
	rs := &resizeOnTick{envScheduler: envScheduler{auto: true}, target: 1, cores: 6}
	jobs := []*job.Job{gpuJob(1, 0, "alexnet", 2, 1, 2*time.Hour)}
	simulator, err := New(testOptions(), rs, jobs)
	if err != nil {
		t.Fatal(err)
	}
	res, err := simulator.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rs.err != nil {
		t.Fatalf("resize failed: %v", rs.err)
	}
	// With 6 cores (the optimum) from t=30s on, the job finishes near 2h.
	if got := res.Jobs[1].EndToEnd(); got > 2*time.Hour+10*time.Minute {
		t.Errorf("EndToEnd = %v, want ~2h after resize", got)
	}
	if res.Jobs[1].Resizes != 1 || res.Jobs[1].FinalCores != 6 {
		t.Errorf("stats = %+v", res.Jobs[1])
	}
}

// preemptOnTick preempts a CPU job on the first tick and never requeues it
// until the second tick.
type preemptOnTick struct {
	envScheduler
	target    job.ID
	preempted *job.Job
	err       error
	step      int
}

func (p *preemptOnTick) Tick() {
	p.step++
	switch p.step {
	case 1:
		p.preempted, p.err = p.env.PreemptJob(p.target)
	case 2:
		if p.preempted != nil {
			alloc, ok := sched.PlaceRequest(p.env.Cluster(), p.preempted.Request)
			if ok {
				_ = p.env.StartJob(p.preempted.ID, alloc)
			}
		}
	}
}

func TestEnvPreemptJob(t *testing.T) {
	ps := &preemptOnTick{envScheduler: envScheduler{auto: true}, target: 1}
	jobs := []*job.Job{cpuJob(1, 0, 2, 10*time.Minute)}
	simulator, err := New(testOptions(), ps, jobs)
	if err != nil {
		t.Fatal(err)
	}
	res, err := simulator.Run()
	if err != nil {
		t.Fatal(err)
	}
	if ps.err != nil {
		t.Fatalf("preempt failed: %v", ps.err)
	}
	if ps.preempted == nil || ps.preempted.Work >= 10*time.Minute {
		t.Fatalf("preempted clone = %+v", ps.preempted)
	}
	js := res.Jobs[1]
	if !js.Completed || js.Preemptions != 1 {
		t.Errorf("stats = %+v", js)
	}
	if res.Preemptions != 1 {
		t.Errorf("Preemptions = %d", res.Preemptions)
	}
}

// preemptGPU tries to preempt a training job (must fail).
type preemptGPU struct {
	envScheduler
	tried bool
	err   error
}

func (p *preemptGPU) Tick() {
	if p.tried {
		return
	}
	p.tried = true
	_, p.err = p.env.PreemptJob(1)
}

func TestEnvPreemptRejectsGPUJobs(t *testing.T) {
	pg := &preemptGPU{envScheduler: envScheduler{auto: true}}
	jobs := []*job.Job{gpuJob(1, 0, "resnet50", 3, 1, 10*time.Minute)}
	simulator, err := New(testOptions(), pg, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := simulator.Run(); err != nil {
		t.Fatal(err)
	}
	if pg.err == nil {
		t.Error("preempting a GPU job should fail")
	}
}

// throttleOnTick throttles a hog once.
type throttleOnTick struct {
	envScheduler
	done bool
	err  error
}

func (th *throttleOnTick) Tick() {
	if th.done {
		return
	}
	th.done = true
	th.err = th.env.ThrottleJob(2, 10)
}

func TestEnvThrottleSlowsHog(t *testing.T) {
	opts := testOptions()
	opts.Cluster.Nodes = 1
	base := mustRun(t, opts, &envScheduler{auto: true},
		[]*job.Job{hogJob(2, 0, 16, 80, time.Hour)})
	th := &throttleOnTick{envScheduler: envScheduler{auto: true}}
	simulator, err := New(opts, th, []*job.Job{hogJob(2, 0, 16, 80, time.Hour)})
	if err != nil {
		t.Fatal(err)
	}
	res, err := simulator.Run()
	if err != nil {
		t.Fatal(err)
	}
	if th.err != nil {
		t.Fatalf("throttle failed: %v", th.err)
	}
	if res.Throttles != 1 {
		t.Errorf("Throttles = %d", res.Throttles)
	}
	// Capped at 10 of 80 GB/s demand, the hog runs ~8x slower.
	if res.Jobs[2].EndToEnd() < base.Jobs[2].EndToEnd()*4 {
		t.Errorf("throttled run %v vs base %v: not slowed enough",
			res.Jobs[2].EndToEnd(), base.Jobs[2].EndToEnd())
	}
}

// gpuUtilReader samples GPUUtil on each tick.
type gpuUtilReader struct {
	envScheduler
	samples []float64
}

func (g *gpuUtilReader) Tick() {
	if u, err := g.env.GPUUtil(1); err == nil {
		g.samples = append(g.samples, u)
	}
}

func TestEnvGPUUtilObservation(t *testing.T) {
	gr := &gpuUtilReader{envScheduler: envScheduler{auto: true}}
	jobs := []*job.Job{gpuJob(1, 0, "vgg16", 4, 1, 30*time.Minute)}
	simulator, err := New(testOptions(), gr, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := simulator.Run(); err != nil {
		t.Fatal(err)
	}
	if len(gr.samples) == 0 {
		t.Fatal("no GPU util samples")
	}
	for _, u := range gr.samples {
		// vgg16 at optimum: peak util 0.97 ± 1% noise.
		if u < 0.94 || u > 1.0 {
			t.Errorf("util sample = %g, want ~0.97", u)
		}
	}
}

func TestFragmentationMetric(t *testing.T) {
	// One node: a running job takes all cores but leaves GPUs free; a
	// pending GPU job cannot be served -> fragmentation.
	opts := testOptions()
	opts.Cluster.Nodes = 1
	opts.Cluster.CoresPerNode = 8
	jobs := []*job.Job{
		gpuJob(1, 0, "resnet50", 8, 1, 2*time.Hour), // hogs all cores
		gpuJob(2, time.Minute, "resnet50", 2, 1, time.Hour),
	}
	res := mustRun(t, opts, sched.NewFIFO(), jobs)
	if res.FragSeries.Max() <= 0 {
		t.Error("expected non-zero fragmentation while job 2 waits")
	}
}

func TestMaxVirtualTimeCap(t *testing.T) {
	opts := testOptions()
	opts.MaxVirtualTime = 10 * time.Minute
	jobs := []*job.Job{gpuJob(1, 0, "resnet50", 3, 1, 5*time.Hour)}
	res := mustRun(t, opts, sched.NewFIFO(), jobs)
	if res.Jobs[1].Completed {
		t.Error("job should not complete under the time cap")
	}
	if res.EndTime > 11*time.Minute {
		t.Errorf("EndTime = %v, want <= cap", res.EndTime)
	}
}

func TestStartJobValidation(t *testing.T) {
	es := &envScheduler{}
	simulator, err := New(testOptions(), es, []*job.Job{gpuJob(1, 0, "resnet50", 3, 2, time.Hour)})
	if err != nil {
		t.Fatal(err)
	}
	// Run one arrival by hand: Run() processes the arrival, scheduler does
	// nothing, job stays pending, sim hits idle-never state... use the cap.
	simulator.opts.MaxVirtualTime = time.Minute
	if _, err := simulator.Run(); err != nil {
		t.Fatal(err)
	}
	// Not pending anymore? It is: scheduler never started it.
	if err := simulator.StartJob(99, job.Allocation{NodeIDs: []int{0}, CPUCores: 1}); err == nil {
		t.Error("starting unknown job should fail")
	}
	// Wrong node count for the request.
	if err := simulator.StartJob(1, job.Allocation{NodeIDs: []int{0, 1}, CPUCores: 3, GPUs: 1}); err == nil {
		t.Error("node-count mismatch should fail")
	}
	// Wrong GPU share.
	if err := simulator.StartJob(1, job.Allocation{NodeIDs: []int{0}, CPUCores: 3, GPUs: 1}); err == nil {
		t.Error("GPU mismatch should fail (wants 2 per node)")
	}
	// Correct allocation works.
	if err := simulator.StartJob(1, job.Allocation{NodeIDs: []int{0}, CPUCores: 3, GPUs: 2}); err != nil {
		t.Errorf("valid start failed: %v", err)
	}
}

func TestClusterInvariantsAfterRun(t *testing.T) {
	cfg := trace.DefaultConfig()
	cfg.CPUJobs, cfg.GPUJobs = 200, 80
	cfg.Duration = 24 * time.Hour
	jobs, err := trace.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	simulator, err := New(testOptions(), sched.NewFIFO(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := simulator.Run(); err != nil {
		t.Fatal(err)
	}
	if err := simulator.cluster.CheckInvariants(); err != nil {
		t.Error(err)
	}
	if used := simulator.cluster.UsedCores(); used != 0 {
		t.Errorf("cluster still holds %d cores after drain", used)
	}
}

func TestWindowMean(t *testing.T) {
	var s Result
	_ = s.GPUActive.Add(0, 1)
	_ = s.GPUActive.Add(time.Hour, 3)
	_ = s.GPUActive.Add(2*time.Hour, 100)
	if got := WindowMean(&s.GPUActive, time.Hour); got != 2 {
		t.Errorf("WindowMean = %g, want 2", got)
	}
	if got := WindowMean(&s.GPUActive, -time.Second); got != 0 {
		t.Errorf("WindowMean(empty window) = %g, want 0", got)
	}
}
