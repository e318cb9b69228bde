package core

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/coda-repro/coda/internal/chaos"
	"github.com/coda-repro/coda/internal/checkpoint"
	"github.com/coda-repro/coda/internal/job"
	"github.com/coda-repro/coda/internal/sim"
	"github.com/coda-repro/coda/internal/trace"
)

// midRunScheduler drives a service-mode simulator to a busy midpoint — jobs
// running with budget draws, a tuning session in flight, queued work, and at
// least one completion in the history log — and returns the live scheduler.
func midRunScheduler(t *testing.T, cfg Config, opts sim.Options) *Scheduler {
	t.Helper()
	opts.Service = true
	s := newCoda(t, cfg, opts)
	simulator, err := sim.New(opts, s, nil)
	if err != nil {
		t.Fatal(err)
	}
	inject := func(j *job.Job) {
		t.Helper()
		if err := simulator.InjectArrival(j); err != nil {
			t.Fatalf("inject job %d: %v", j.ID, err)
		}
	}
	inject(gpuJob(1, 0, "resnet50", 8, 4, 1, 4*time.Hour))
	inject(gpuJob(2, 0, "bat", 6, 1, 1, 3*time.Hour))
	inject(cpuJob(3, 0, 5, 4, 5*time.Minute)) // completes before the midpoint
	if err := simulator.RunUntil(10 * time.Minute); err != nil {
		t.Fatal(err)
	}
	inject(cpuJob(4, 0, 6, 16, 2*time.Hour))
	inject(hogJob(5, 0, 8, 60, 2*time.Hour))
	if err := simulator.RunUntil(30 * time.Minute); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestCheckpointRoundTripMidRun is the serialization fidelity check for the
// full scheduler checkpoint: a checkpoint taken mid-run, restored into a
// freshly constructed scheduler of the same shape, must re-serialize to the
// identical bytes — history log, budget draws, sub-array split, fair-share
// accumulators, queues, allocator tuning state and eliminator interventions
// all survive the round trip verbatim.
func TestCheckpointRoundTripMidRun(t *testing.T) {
	cfg := DefaultConfig()
	opts := testOptions()
	s := midRunScheduler(t, cfg, opts)

	blob, err := s.CheckpointState()
	if err != nil {
		t.Fatalf("CheckpointState: %v", err)
	}
	fresh := newCoda(t, cfg, opts)
	if err := fresh.RestoreCheckpoint(blob); err != nil {
		t.Fatalf("RestoreCheckpoint: %v", err)
	}
	again, err := fresh.CheckpointState()
	if err != nil {
		t.Fatalf("CheckpointState after restore: %v", err)
	}
	if !bytes.Equal(blob, again) {
		t.Fatalf("checkpoint round trip not byte-identical:\n%s", sim.FirstDiff(string(blob), string(again)))
	}
	if err := fresh.arrays.CheckInvariants(); err != nil {
		t.Fatalf("multi-array invariants after restore: %v", err)
	}
	drawn := 0
	for nid, b := range fresh.arrays.budgets {
		checkTotals(t, nid, b)
		drawn += b.usedReserve + b.usedShared
	}
	if drawn == 0 {
		t.Error("restored budgets hold no draws; the midpoint does not exercise the totals")
	}
}

// TestCheckpointNamesNoDepartedJob runs CODA as a service under node
// crashes, injected job failures with one retry each, and cancels of
// queued, running and backing-off jobs, until every job has completed,
// failed terminally or been cancelled. CODA then holds nothing about any
// job: its checkpoint has no arrival or step records, and its running,
// desired-core, budget-draw, fair-share charge, queue, tuning, settled and
// throttle lists are all empty.
func TestCheckpointNamesNoDepartedJob(t *testing.T) {
	opts := testOptions()
	opts.Service = true
	opts.Seed = 9
	opts.Faults = chaos.Plan{
		Seed: 19, Horizon: 12 * time.Hour,
		NodeCrashesPerDay: 10, CrashDowntime: 20 * time.Minute,
		JobFailureProb: 0.3, MaxRetries: 1, RetryBackoff: 30 * time.Minute,
	}
	tc := trace.DefaultConfig()
	tc.CPUJobs, tc.GPUJobs = 60, 20
	tc.Duration = 12 * time.Hour
	tc.HogFraction = 0.1
	tc.Seed = 109
	jobs, err := trace.Generate(tc)
	if err != nil {
		t.Fatal(err)
	}
	s := newCoda(t, DefaultConfig(), opts)
	simulator, err := sim.New(opts, s, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, j := range jobs {
		if err := simulator.RunUntil(j.Arrival); err != nil {
			t.Fatal(err)
		}
		if err := simulator.InjectArrival(j); err != nil {
			t.Fatal(err)
		}
		if i%7 != 6 {
			continue
		}
		// Cancel the lowest-ID queued, running and backing-off job.
		for _, phase := range []string{sim.PhasePending, sim.PhaseRunning, sim.PhaseRetrying} {
			for _, prev := range jobs[:i+1] {
				if simulator.JobPhase(prev.ID) == phase {
					if err := simulator.CancelJob(prev.ID); err != nil {
						t.Fatal(err)
					}
					break
				}
			}
		}
	}
	end := simulator.Now()
	for st := simulator.Stats(); st.Pending+st.Running+st.Retrying > 0; st = simulator.Stats() {
		if end += time.Hour; end > 30*24*time.Hour {
			t.Fatalf("%d pending, %d running, %d retrying jobs after 30 days", st.Pending, st.Running, st.Retrying)
		}
		if err := simulator.RunUntil(end); err != nil {
			t.Fatal(err)
		}
	}
	res, err := simulator.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if st := simulator.Stats(); st.Completed == 0 || st.Terminal == 0 || st.Cancelled == 0 || res.Throttles == 0 {
		t.Fatalf("%d completed, %d terminal, %d cancelled jobs and %d throttles; the run must exercise all four",
			st.Completed, st.Terminal, st.Cancelled, res.Throttles)
	}

	blob, err := s.CheckpointState()
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"Arrived"`, `"Steps"`} {
		if bytes.Contains(blob, []byte(key)) {
			t.Errorf("checkpoint carries %s records after every job left", key)
		}
	}
	var st schedulerState
	if err := json.Unmarshal(blob, &st); err != nil {
		t.Fatal(err)
	}
	draws, queued := 0, 0
	for _, b := range st.Arrays.Budgets {
		draws += len(b.GPUDraws) + len(b.CPUDraws)
	}
	for _, q := range append(st.Arrays.CPUQueues, st.Arrays.GPUQueues...) {
		queued += len(q.Jobs)
	}
	for _, left := range []struct {
		what string
		n    int
	}{
		{"running", len(st.Arrays.Running)},
		{"desired-core", len(st.Arrays.Desired)},
		{"budget draw", draws},
		{"CPU charge", len(st.Arrays.CPUAcc.PerJob)},
		{"GPU charge", len(st.Arrays.GPUAcc.PerJob)},
		{"queued", queued},
		{"tuning", len(st.Alloc.Tuning)},
		{"settled", len(st.Alloc.Settled)},
		{"throttled", len(st.Elim.Throttled)},
	} {
		if left.n > 0 {
			t.Errorf("checkpoint keeps %d %s entries after every job left", left.n, left.what)
		}
	}
}

// TestRestoreCheckpointRejects pins the restore-time validation: corrupt
// JSON, restoring into a scheduler that has already run or holds a queued
// job, an eliminator configuration mismatch, and a cluster-shape mismatch
// are all deterministic errors instead of silent state corruption.
func TestRestoreCheckpointRejects(t *testing.T) {
	cfg := DefaultConfig()
	opts := testOptions()
	blob, err := midRunScheduler(t, cfg, opts).CheckpointState()
	if err != nil {
		t.Fatalf("CheckpointState: %v", err)
	}

	if err := newCoda(t, cfg, opts).RestoreCheckpoint([]byte("{not json")); err == nil {
		t.Error("restore of corrupt JSON succeeded, want error")
	}

	_, used := runCoda(t, cfg, opts, []*job.Job{cpuJob(1, 0, 2, 4, time.Minute)})
	if err := used.RestoreCheckpoint(blob); err == nil {
		t.Error("restore into a non-fresh scheduler succeeded, want error")
	}
	queued := newCoda(t, cfg, opts)
	queued.arrays.EnqueueCPU(cpuJob(1, 0, 2, 4, time.Minute))
	if err := queued.RestoreCheckpoint(blob); err == nil {
		t.Error("restore into a scheduler with a queued job succeeded, want error")
	}

	noElim := cfg
	noElim.DisableEliminator = true
	if err := newCoda(t, noElim, opts).RestoreCheckpoint(blob); err == nil {
		t.Error("restore across eliminator config mismatch succeeded, want error")
	}

	narrow, err := New(cfg, 2, opts.Cluster.CoresPerNode, opts.Cluster.GPUsPerNode)
	if err != nil {
		t.Fatal(err)
	}
	if err := narrow.RestoreCheckpoint(blob); err == nil {
		t.Error("restore across cluster-shape mismatch succeeded, want error")
	}
}

// TestRestoreRejectsMalformedSplit crafts checkpoints whose sub-array
// lists are not the ID ranges [0, n) and [n, nodes): restore must refuse
// each with an error naming the misplaced or missing node, because
// pickNodes tells a node's sub-array from its ID alone.
func TestRestoreRejectsMalformedSplit(t *testing.T) {
	cfg := DefaultConfig()
	opts := testOptions()
	blob, err := midRunScheduler(t, cfg, opts).CheckpointState()
	if err != nil {
		t.Fatalf("CheckpointState: %v", err)
	}
	var st schedulerState
	if err := json.Unmarshal(blob, &st); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(st.Arrays.FourG, []int{0}) || !slices.Equal(st.Arrays.OneG, []int{1, 2, 3}) {
		t.Fatalf("split is %v / %v, the cases below assume [0] / [1 2 3]", st.Arrays.FourG, st.Arrays.OneG)
	}
	for _, tc := range []struct {
		name        string
		fourG, oneG []int
		node        string
	}{
		{"overlap", []int{0, 1}, []int{1, 2, 3}, "node 1 "},
		{"gap", []int{0}, []int{2, 3}, "node 2 where node 1 belongs"},
		{"missing tail", []int{0}, []int{1, 2}, "node 3 "},
		{"non-prefix", []int{3}, []int{0, 1, 2}, "node 3 "},
	} {
		st.Arrays.FourG, st.Arrays.OneG = tc.fourG, tc.oneG
		crafted, err := json.Marshal(st)
		if err != nil {
			t.Fatal(err)
		}
		err = newCoda(t, cfg, opts).RestoreCheckpoint(crafted)
		if err == nil || !strings.Contains(err.Error(), tc.node) {
			t.Errorf("%s split %v / %v: restore error %v, want one naming %q", tc.name, tc.fourG, tc.oneG, err, tc.node)
		}
	}
}

// TestRestoreLegacySplit restores the CODA state of the simulator's legacy
// checkpoint fixture, written when the sub-arrays were kept as node lists:
// its lists [0] and [1] restore to one 4-GPU node.
func TestRestoreLegacySplit(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "sim", "testdata", "coda-legacy.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(data, []byte(`"FourG":[0],"OneG":[1]`)) {
		t.Fatal("fixture no longer carries the split [0] / [1]")
	}
	var ck sim.Checkpoint
	if err := checkpoint.Decode(data, &ck); err != nil {
		t.Fatal(err)
	}
	s := newCoda(t, DefaultConfig(), ck.Options)
	if err := s.RestoreCheckpoint(ck.Scheduler); err != nil {
		t.Fatal(err)
	}
	if s.arrays.fourGNodes != 1 {
		t.Errorf("split [0] / [1] restored to %d 4-GPU nodes, want 1", s.arrays.fourGNodes)
	}
}

// TestRestoreRejectsMalformedThrottles crafts checkpoints whose eliminator
// throttle list is out of job order or names a job twice. A map used to
// keep only the last entry of a repeated job; the sorted list must refuse
// both on restore, and CheckInvariants must refuse them on a live
// scheduler.
func TestRestoreRejectsMalformedThrottles(t *testing.T) {
	cfg := DefaultConfig()
	opts := testOptions()
	blob, err := midRunScheduler(t, cfg, opts).CheckpointState()
	if err != nil {
		t.Fatalf("CheckpointState: %v", err)
	}
	var st schedulerState
	if err := json.Unmarshal(blob, &st); err != nil {
		t.Fatal(err)
	}
	capped := func(id job.ID) interventionState { return interventionState{Job: id} }
	for _, tc := range []struct {
		name      string
		throttled []interventionState
		want      string // "" when restore must succeed
	}{
		{"sorted", []interventionState{capped(4), capped(5)}, ""},
		{"unsorted", []interventionState{capped(5), capped(4)}, "throttled job 4 after job 5"},
		{"repeated", []interventionState{capped(4), capped(4)}, "throttled job 4 after job 4"},
	} {
		st.Elim.Throttled = tc.throttled
		crafted, err := json.Marshal(st)
		if err != nil {
			t.Fatal(err)
		}
		err = newCoda(t, cfg, opts).RestoreCheckpoint(crafted)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s throttle list: restore failed: %v", tc.name, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%s throttle list: restore error %v, want one containing %q", tc.name, err, tc.want)
		}
	}

	fresh := newCoda(t, cfg, opts)
	if err := fresh.RestoreCheckpoint(blob); err != nil {
		t.Fatalf("RestoreCheckpoint: %v", err)
	}
	fresh.elim.throttled.add(9, 0)
	fresh.elim.throttled.add(12, 0)
	if err := fresh.CheckInvariants(); err != nil {
		t.Fatalf("CheckInvariants with a sorted throttle list: %v", err)
	}
	ids := fresh.elim.throttled.ids
	ids[len(ids)-2], ids[len(ids)-1] = ids[len(ids)-1], ids[len(ids)-2]
	if err := fresh.CheckInvariants(); err == nil || !strings.Contains(err.Error(), "throttled job 9 after job 12") {
		t.Errorf("CheckInvariants with throttled jobs 12, 9: %v, want an ordering error", err)
	}
}
