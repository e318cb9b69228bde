package core

import (
	"bytes"
	"testing"
	"time"

	"github.com/coda-repro/coda/internal/job"
	"github.com/coda-repro/coda/internal/sim"
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
	if err := fresh.Arrays().CheckInvariants(); err != nil {
		t.Fatalf("multi-array invariants after restore: %v", err)
	}
	drawn := 0
	for nid, b := range fresh.Arrays().budgets {
		checkTotals(t, nid, b)
		drawn += b.usedReserve + b.usedShared
	}
	if drawn == 0 {
		t.Error("restored budgets hold no draws; the midpoint does not exercise the totals")
	}
}

// TestRestoreCheckpointRejects pins the restore-time validation: corrupt
// JSON, restoring into a scheduler that has already run, an eliminator
// configuration mismatch, and a cluster-shape mismatch are all deterministic
// errors instead of silent state corruption.
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
