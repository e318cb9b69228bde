package core

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"github.com/coda-repro/coda/internal/job"
	"github.com/coda-repro/coda/internal/sim"
	"github.com/coda-repro/coda/internal/trace"
)

// TestPendingTenantsSorted pins the candidate list handed to DRF: tenants
// with a non-empty queue, sorted by tenant ID whatever order they first
// enqueued in, and the same list after the queues make a checkpoint round
// trip.
func TestPendingTenantsSorted(t *testing.T) {
	tenants := []job.TenantID{17, 3, 42, 8, 1, 99, 25, 4, 60, 12}
	var queues tenantQueues
	var want []job.TenantID
	for i, id := range tenants {
		q := queues.queueFor(id)
		if i%3 != 2 { // leave every third queue empty
			q.PushBack(&job.Job{ID: job.ID(i), Tenant: id})
			want = append(want, id)
		}
	}
	slices.Sort(want)

	var m MultiArray
	// Copy: pendingTenants returns a reused scratch slice.
	got := slices.Clone(m.pendingTenants(queues))
	if !slices.Equal(got, want) {
		t.Fatalf("pendingTenants returned %v, want %v", got, want)
	}
	if !slices.IsSorted(got) {
		t.Errorf("pendingTenants not sorted: %v", got)
	}

	var restored tenantQueues
	if err := restoreQueues(&restored, sortedQueues(queues)); err != nil {
		t.Fatal(err)
	}
	if len(restored) != len(tenants) {
		t.Errorf("round trip kept %d tenant queues, want %d (empty queues included)", len(restored), len(tenants))
	}
	if again := m.pendingTenants(restored); !slices.Equal(again, want) {
		t.Errorf("after a checkpoint round trip pendingTenants returned %v, want %v", again, want)
	}
}

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

// BenchmarkPendingTenants1kTenants measures the candidate walk over 1000
// tenant queues (far beyond the paper's cluster scale).
func BenchmarkPendingTenants1kTenants(b *testing.B) {
	var queues tenantQueues
	for i := 0; i < 1000; i++ {
		// Spread the IDs so insertion order and sorted order disagree.
		queues.queueFor(job.TenantID(i * 7919 % 100003)).PushBack(&job.Job{ID: job.ID(i)})
	}
	var m MultiArray
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := m.pendingTenants(queues); len(got) != 1000 {
			b.Fatalf("got %d tenants", len(got))
		}
	}
}

// TestCheckInvariantsCatchesTenantQueueOrder corrupts the sorted tenant
// queues the way a broken insert would: an out-of-order entry and a
// duplicated tenant must each fail the multi-array audit.
func TestCheckInvariantsCatchesTenantQueueOrder(t *testing.T) {
	m := newCoda(t, DefaultConfig(), testOptions()).Arrays()
	for i, tenant := range []job.TenantID{7, 2, 5} {
		m.EnqueueCPU(&job.Job{ID: job.ID(i + 1), Tenant: tenant, Kind: job.KindCPU})
		m.EnqueueGPU(&job.Job{ID: job.ID(i + 10), Tenant: tenant, Kind: job.KindGPUTraining}, 2)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatalf("well-formed queues fail the audit: %v", err)
	}

	m.cpuQueues[0], m.cpuQueues[1] = m.cpuQueues[1], m.cpuQueues[0]
	if err := m.CheckInvariants(); err == nil {
		t.Error("out-of-order CPU tenant queues pass the audit")
	}
	m.cpuQueues[0], m.cpuQueues[1] = m.cpuQueues[1], m.cpuQueues[0]

	m.gpuQueues = append(m.gpuQueues, m.gpuQueues[len(m.gpuQueues)-1])
	if err := m.CheckInvariants(); err == nil {
		t.Error("a duplicated GPU tenant queue passes the audit")
	}
}
