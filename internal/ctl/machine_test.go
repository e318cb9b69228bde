package ctl

import (
	"strings"
	"testing"
	"time"

	"github.com/coda-repro/coda/internal/cluster"
	"github.com/coda-repro/coda/internal/core"
	"github.com/coda-repro/coda/internal/ctl/wal"
	"github.com/coda-repro/coda/internal/job"
	"github.com/coda-repro/coda/internal/sched"
	"github.com/coda-repro/coda/internal/sim"
)

func testOptions() sim.Options {
	opts := sim.DefaultOptions()
	opts.Cluster = cluster.Config{
		Nodes: 4, CoresPerNode: 28, GPUsPerNode: 4,
		BandwidthGBs: 120, PCIeGBs: 16,
	}
	opts.SampleInterval = time.Minute
	opts.Invariants = true
	return opts
}

func fifoFactory() (sched.Scheduler, error) { return sched.NewFIFO(), nil }

// apply serves one request as Server.Tick serves a batch of one: ApplyBatch,
// then the checkpoint the batch made due, if any.
func apply(m *Machine, at time.Duration, req Request) (Response, error) {
	before := m.applied
	resps, err := m.ApplyBatch(at, []Request{req})
	if err != nil {
		return Response{}, err
	}
	return resps[0], m.checkpointDue(before)
}

// damagedLog is a wal.Log whose Bytes hands recovery the wrapped log's
// image rewritten by damage, so a test can corrupt or cut the WAL.
type damagedLog struct {
	wal.Log
	damage func([]byte) []byte
}

func (l *damagedLog) Bytes() ([]byte, error) {
	b, err := l.Log.Bytes()
	if err != nil || l.damage == nil {
		return b, err
	}
	return l.damage(b), nil
}

func codaFactory(opts sim.Options) func() (sched.Scheduler, error) {
	return func() (sched.Scheduler, error) {
		return core.New(core.DefaultConfig(), opts.Cluster.Nodes, opts.Cluster.CoresPerNode, opts.Cluster.GPUsPerNode)
	}
}

// testTrace builds a mixed client workload: CPU jobs, GPU training across
// categories, and one bandwidth hog, arriving over roughly n*7 minutes.
func testTrace(n int) []*job.Job {
	models := []string{"resnet50", "transformer", "deepspeech", "vgg16"}
	cats := []job.Category{job.CategoryCV, job.CategoryNLP, job.CategorySpeech, job.CategoryCV}
	var jobs []*job.Job
	for i := 0; i < n; i++ {
		arrival := time.Duration(i) * 7 * time.Minute
		switch i % 3 {
		case 0:
			jobs = append(jobs, &job.Job{
				ID: job.ID(i + 1), Kind: job.KindCPU, Tenant: 2,
				Request: job.Request{CPUCores: 3 + i%5, Nodes: 1},
				Arrival: arrival, Work: time.Duration(40+9*(i%7)) * time.Minute,
				Bandwidth: 0.3 * float64(3+i%5),
			})
		case 1:
			jobs = append(jobs, &job.Job{
				ID: job.ID(i + 1), Kind: job.KindGPUTraining, Tenant: 1,
				Category: cats[i%4], Model: models[i%4],
				Request: job.Request{CPUCores: 3 + i%4, GPUs: 1 + i%2, Nodes: 1},
				Arrival: arrival, Work: time.Duration(60+13*(i%5)) * time.Minute,
			})
		default:
			jobs = append(jobs, &job.Job{
				ID: job.ID(i + 1), Kind: job.KindBandwidthHog, Tenant: 3,
				Request: job.Request{CPUCores: 4, Nodes: 1},
				Arrival: arrival, Work: time.Duration(50+11*(i%3)) * time.Minute,
				Bandwidth: 60,
			})
		}
	}
	return jobs
}

func memConfig(opts sim.Options) Config {
	return Config{
		Options:      opts,
		NewScheduler: fifoFactory,
		Log:          wal.NewMemLog(),
		Store:        wal.NewMemStore(),
	}
}

func TestMachineSubmitRunsJob(t *testing.T) {
	m, err := NewMachine(memConfig(testOptions()))
	if err != nil {
		t.Fatalf("NewMachine: %v", err)
	}
	spec := &JobSpec{Kind: "cpu", Tenant: 1, CPUCores: 4, WorkSeconds: 600}
	resp, err := apply(m, 0, Request{Op: OpSubmit, Job: spec})
	if err != nil {
		t.Fatalf("Apply: %v", err)
	}
	if resp.Err != "" || resp.JobID != 1 || resp.Seq != 1 {
		t.Fatalf("submit response %+v, want jobId=1 seq=1", resp)
	}
	st := m.JobStatus(1)
	if st.Phase != sim.PhaseRunning {
		t.Fatalf("job phase %q right after submit, want running", st.Phase)
	}
	if len(st.Nodes) != 1 {
		t.Fatalf("running job placement %v, want one node", st.Nodes)
	}
	if err := m.AdvanceTo(time.Hour); err != nil {
		t.Fatalf("AdvanceTo: %v", err)
	}
	if got := m.JobStatus(1).Phase; got != sim.PhaseCompleted {
		t.Fatalf("job phase %q after its work, want completed", got)
	}
	if m.JobStatus(99).Phase != sim.PhaseUnknown {
		t.Fatal("unknown job did not report PhaseUnknown")
	}

	c := m.Counters()
	if c.ServeAccepted != 1 || c.WALFsyncs != 1 {
		t.Fatalf("counters %+v, want 1 accepted / 1 fsync", c)
	}
}

func TestMachineBatchIsOneFsync(t *testing.T) {
	m, err := NewMachine(memConfig(testOptions()))
	if err != nil {
		t.Fatalf("NewMachine: %v", err)
	}
	reqs := []Request{
		{Op: OpSubmit, Job: &JobSpec{Kind: "cpu", Tenant: 1, CPUCores: 2, WorkSeconds: 60}},
		{Op: OpSubmit, Job: &JobSpec{Kind: "cpu", Tenant: 1, CPUCores: 2, WorkSeconds: 60}},
		{Op: OpCancel, JobID: 1},
	}
	resps, err := m.ApplyBatch(time.Minute, reqs)
	if err != nil {
		t.Fatalf("ApplyBatch: %v", err)
	}
	if resps[0].JobID != 1 || resps[1].JobID != 2 {
		t.Fatalf("IDs %d,%d — want sequential 1,2", resps[0].JobID, resps[1].JobID)
	}
	if resps[2].Err != "" {
		t.Fatalf("in-batch cancel of job 1 failed: %s", resps[2].Err)
	}
	c := m.Counters()
	if c.ServeAccepted != 3 || c.WALFsyncs != 1 {
		t.Fatalf("counters accepted=%d fsyncs=%d, want 3/1 (one sync per batch)", c.ServeAccepted, c.WALFsyncs)
	}
	if got := m.JobStatus(1).Phase; got != sim.PhaseCancelled {
		t.Fatalf("cancelled job phase %q", got)
	}
}

func TestMachineSemanticRejectionsAreResponses(t *testing.T) {
	m, err := NewMachine(memConfig(testOptions()))
	if err != nil {
		t.Fatalf("NewMachine: %v", err)
	}
	cases := []struct {
		name    string
		req     Request
		wantSub string
	}{
		{"cancel unknown job", Request{Op: OpCancel, JobID: 42}, "not pending"},
		{"join an up node", Request{Op: OpNodeJoin, Node: 1}, "not down"},
		{"undrain an up node", Request{Op: OpNodeUndrain, Node: 1}, "not draining"},
		{"node out of range", Request{Op: OpNodeDrain, Node: 99}, "node"},
		{"bad job kind", Request{Op: OpSubmit, Job: &JobSpec{Kind: "quantum", Tenant: 1, CPUCores: 1, WorkSeconds: 1}}, "unknown job kind"},
	}
	for i, tc := range cases {
		resp, err := apply(m, 0, tc.req)
		if err != nil {
			t.Fatalf("%s: fatal error %v (want a semantic rejection)", tc.name, err)
		}
		if resp.Err == "" || !strings.Contains(resp.Err, tc.wantSub) {
			t.Fatalf("%s: response error %q does not mention %q", tc.name, resp.Err, tc.wantSub)
		}
		if resp.Seq != uint64(i+1) {
			t.Fatalf("%s: seq %d, want %d (rejections still occupy WAL slots)", tc.name, resp.Seq, i+1)
		}
	}
	// A rejected submit must not burn an ID: the next good submit gets 1.
	resp, err := apply(m, 0, Request{Op: OpSubmit, Job: &JobSpec{Kind: "cpu", Tenant: 1, CPUCores: 1, WorkSeconds: 60}})
	if err != nil || resp.JobID != 1 {
		t.Fatalf("post-rejection submit got ID %d (err %v), want 1", resp.JobID, err)
	}
}

func TestMachineNodeLifecycle(t *testing.T) {
	m, err := NewMachine(memConfig(testOptions()))
	if err != nil {
		t.Fatalf("NewMachine: %v", err)
	}
	steps := []struct {
		req       Request
		wantState string
	}{
		{Request{Op: OpNodeDrain, Node: 2}, "draining"},
		{Request{Op: OpNodeUndrain, Node: 2}, "up"},
		{Request{Op: OpNodeLeave, Node: 2}, "down"},
		{Request{Op: OpNodeJoin, Node: 2}, "up"},
	}
	for i, st := range steps {
		resp, err := apply(m, time.Duration(i)*time.Minute, st.req)
		if err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		if resp.Err != "" {
			t.Fatalf("step %d (%s): rejected: %s", i, st.req.Op, resp.Err)
		}
		nodes := m.NodeStatuses()
		if len(nodes) != 4 {
			t.Fatalf("step %d: %d nodes, want 4", i, len(nodes))
		}
		if got := strings.ToLower(nodes[2].State); !strings.Contains(got, st.wantState) {
			t.Fatalf("step %d: node 2 state %q, want %q", i, nodes[2].State, st.wantState)
		}
	}
	res, err := m.Finish()
	if err != nil {
		t.Fatalf("Finish: %v", err)
	}
	if err := res.Faults.Sane(); err != nil {
		t.Fatalf("counters after node lifecycle: %v", err)
	}
	if res.Faults.NodeCrashes != 1 || res.Faults.NodeRecoveries != 1 {
		t.Fatalf("crashes=%d recoveries=%d, want 1/1", res.Faults.NodeCrashes, res.Faults.NodeRecoveries)
	}
}

func TestResumeColdStart(t *testing.T) {
	cfg := memConfig(testOptions())
	m, recovered, err := Resume(cfg)
	if err != nil {
		t.Fatalf("Resume: %v", err)
	}
	if recovered {
		t.Fatal("empty log + empty store reported a recovery")
	}
	if c := m.Counters(); c.ServeRecoveries != 0 {
		t.Fatalf("cold start counted %d recoveries", c.ServeRecoveries)
	}
}

func TestResumeRejectsCorruptWAL(t *testing.T) {
	log := &damagedLog{Log: wal.NewMemLog()}
	cfg := memConfig(testOptions())
	cfg.Log = log
	m, err := NewMachine(cfg)
	if err != nil {
		t.Fatalf("NewMachine: %v", err)
	}
	for i := 0; i < 3; i++ {
		if _, err := apply(m, 0, Request{Op: OpCancel, JobID: int64(i + 1)}); err != nil {
			t.Fatalf("Apply: %v", err)
		}
	}
	if img, _ := log.Log.Bytes(); len(img) <= 80 {
		t.Fatalf("the log holds %d bytes; the test flips byte 80", len(img))
	}
	log.damage = func(b []byte) []byte {
		b[80] ^= 0xff
		return b
	}
	if _, _, err := Resume(cfg); err == nil {
		t.Fatal("Resume accepted a corrupt WAL")
	}
}

func TestResumeRejectsTruncatedWAL(t *testing.T) {
	log := &damagedLog{Log: wal.NewMemLog()}
	cfg := memConfig(testOptions())
	cfg.Log = log
	cfg.CheckpointEvery = 1
	m, err := NewMachine(cfg)
	if err != nil {
		t.Fatalf("NewMachine: %v", err)
	}
	if _, err := apply(m, 0, Request{Op: OpCancel, JobID: 1}); err != nil {
		t.Fatalf("Apply: %v", err)
	}
	// The checkpoint says 1 record applied; an empty WAL contradicts it.
	log.damage = func([]byte) []byte { return nil }
	_, _, err = Resume(cfg)
	if err == nil || !strings.Contains(err.Error(), "truncated") {
		t.Fatalf("Resume(%v) did not refuse the truncated log", err)
	}
}

func TestApplyBatchClampsTimeBackwards(t *testing.T) {
	m, err := NewMachine(memConfig(testOptions()))
	if err != nil {
		t.Fatalf("NewMachine: %v", err)
	}
	if err := m.AdvanceTo(10 * time.Minute); err != nil {
		t.Fatalf("AdvanceTo: %v", err)
	}
	// A batch stamped in the past must be clamped, not travel back in time.
	resp, err := apply(m, time.Minute, Request{Op: OpSubmit, Job: &JobSpec{Kind: "cpu", Tenant: 1, CPUCores: 1, WorkSeconds: 60}})
	if err != nil || resp.Err != "" {
		t.Fatalf("Apply: %v / %s", err, resp.Err)
	}
	if m.Now() != 10*time.Minute {
		t.Fatalf("machine time %v moved backwards", m.Now())
	}
}
