package core

import (
	"encoding/json"
	"fmt"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"github.com/coda-repro/coda/internal/job"
	"github.com/coda-repro/coda/internal/sched"
	"github.com/coda-repro/coda/internal/sim"
	"github.com/coda-repro/coda/internal/trace"
)

// placementSequence flattens a run's observable placement order: every
// started job listed by (first start time, job ID).
func placementSequence(res *sim.Result) string {
	type start struct {
		id job.ID
		at time.Duration
	}
	var seq []start
	for id, js := range res.Jobs {
		if js.Started {
			seq = append(seq, start{id: id, at: js.FirstStart})
		}
	}
	sort.Slice(seq, func(i, j int) bool {
		if seq[i].at != seq[j].at {
			return seq[i].at < seq[j].at
		}
		return seq[i].id < seq[j].id
	})
	var b strings.Builder
	for _, s := range seq {
		js := res.Jobs[s.id]
		fmt.Fprintf(&b, "%d@%d cores=%d done=%d\n", s.id, s.at, js.FinalCores, js.CompletedAt)
	}
	return b.String()
}

// TestPlacementSequenceDeterministic runs the same trace through CODA twice
// and requires the placement sequences to be identical — the end-to-end
// guarantee the tenant-ordered queues (and every //coda:ordered-ok site)
// exist to protect.
func TestPlacementSequenceDeterministic(t *testing.T) {
	gen := func() []*job.Job {
		cfg := trace.DefaultConfig()
		cfg.CPUJobs, cfg.GPUJobs = 120, 40
		cfg.Duration = 24 * time.Hour
		cfg.Seed = 42
		jobs, err := trace.Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return jobs
	}
	resA, _ := runCoda(t, DefaultConfig(), testOptions(), gen())
	resB, _ := runCoda(t, DefaultConfig(), testOptions(), gen())
	seqA, seqB := placementSequence(resA), placementSequence(resB)
	if seqA != seqB {
		t.Errorf("same-seed runs placed jobs differently:\nrun A:\n%s\nrun B:\n%s", seqA, seqB)
	}
	if seqA == "" {
		t.Fatal("no jobs started; the trace is not exercising placement")
	}
}

// TestCheckInvariantsCatchesTenantQueueOrder corrupts the sorted tenant
// queues the way a broken insert would, through hand-edited checkpoints
// whose restore ends in CODA's audit: an out-of-order CPU entry and a
// repeated GPU tenant must each fail it.
func TestCheckInvariantsCatchesTenantQueueOrder(t *testing.T) {
	cfg, opts := DefaultConfig(), testOptions()
	s := newCoda(t, cfg, opts)
	m := s.Arrays()
	for i, tenant := range []job.TenantID{7, 2, 5} {
		m.EnqueueCPU(&job.Job{ID: job.ID(i + 1), Tenant: tenant, Kind: job.KindCPU})
		m.EnqueueGPU(&job.Job{ID: job.ID(i + 10), Tenant: tenant, Kind: job.KindGPUTraining}, 2)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatalf("well-formed queues fail the audit: %v", err)
	}
	blob, err := s.CheckpointState()
	if err != nil {
		t.Fatal(err)
	}
	var st schedulerState
	if err := json.Unmarshal(blob, &st); err != nil {
		t.Fatal(err)
	}
	cpu, gpu := st.Arrays.CPUQueues, st.Arrays.GPUQueues
	for _, tc := range []struct {
		name     string
		cpu, gpu []sched.TenantQueueState
		want     string // "" when restore must succeed
	}{
		{"as written", cpu, gpu, ""},
		{"out-of-order CPU tenants", []sched.TenantQueueState{cpu[1], cpu[0], cpu[2]}, gpu,
			"tenant queue 2 follows tenant queue 5"},
		{"repeated GPU tenant", cpu, append(slices.Clone(gpu), gpu[2]),
			"tenant queue 7 follows tenant queue 7"},
	} {
		st.Arrays.CPUQueues, st.Arrays.GPUQueues = tc.cpu, tc.gpu
		crafted, err := json.Marshal(st)
		if err != nil {
			t.Fatal(err)
		}
		err = newCoda(t, cfg, opts).RestoreCheckpoint(crafted)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: restore failed: %v", tc.name, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%s: restore error %v, want one containing %q", tc.name, err, tc.want)
		}
	}
}
