package core

import (
	"bytes"
	"encoding/json"
	"slices"
	"strings"
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

// TestRestoreRejectsMalformedSplit crafts checkpoints whose sub-array
// lists are not the ID ranges [0, n) and [n, nodes): restore must refuse
// each with an error naming the misplaced or missing node, because
// pickNodes tells a node's sub-array from its ID alone. The live split is
// checked the same way by CheckInvariants.
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

	fresh := newCoda(t, cfg, opts)
	if err := fresh.RestoreCheckpoint(blob); err != nil {
		t.Fatalf("RestoreCheckpoint: %v", err)
	}
	fresh.Arrays().fourG = []int{1}
	if err := fresh.CheckInvariants(); err == nil || !strings.Contains(err.Error(), "node 1 ") {
		t.Errorf("CheckInvariants with 4-GPU sub-array [1]: %v, want an error naming node 1", err)
	}
}
