package sched

import (
	"container/list"
	"encoding/json"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"github.com/coda-repro/coda/internal/fair"
	"github.com/coda-repro/coda/internal/job"
)

// TestJobQueueMatchesSlice drives random pushes at both ends and ordered
// removals anywhere through a JobQueue and a plain slice, and requires the
// same jobs in the same order after every step. A steady stream of pushes
// at the back and pops at the head must keep the backing array within a
// small multiple of the longest queue.
func TestJobQueueMatchesSlice(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var q JobQueue
		var ref []*job.Job
		peak := 0
		for step := 0; step < 400; step++ {
			j := &job.Job{ID: job.ID(step)}
			switch op := rng.Intn(6); {
			case op < 2 || len(ref) == 0:
				q.PushBack(j)
				ref = append(ref, j)
			case op == 2:
				q.PushFront(j)
				ref = slices.Insert(ref, 0, j)
			case op == 3:
				q.Remove(0)
				ref = ref[1:]
			default:
				i := rng.Intn(len(ref))
				q.Remove(i)
				ref = slices.Delete(ref, i, i+1)
			}
			peak = max(peak, len(ref))
			if q.Len() != len(ref) {
				t.Fatalf("seed %d step %d: Len %d, want %d", seed, step, q.Len(), len(ref))
			}
			for i, want := range ref {
				if got := q.At(i); got != want {
					t.Fatalf("seed %d step %d: At(%d) is job %d, want job %d", seed, step, i, got.ID, want.ID)
				}
			}
		}
		for step := 0; step < 5000; step++ {
			q.PushBack(&job.Job{ID: job.ID(step)})
			q.Remove(0)
		}
		if limit := 4*peak + 8; cap(q.jobs) > limit {
			t.Fatalf("seed %d: a steady queue of %d jobs holds a backing array of %d, want at most %d",
				seed, q.Len(), cap(q.jobs), limit)
		}
	}
}

// TestPendingTenantsSorted pins the candidate list handed to DRF: tenants
// with a non-empty queue, sorted by tenant ID whatever order they first
// enqueued in, and the same list after the queues make a checkpoint round
// trip that keeps the empty ones.
func TestPendingTenantsSorted(t *testing.T) {
	tenants := []job.TenantID{17, 3, 42, 8, 1, 99, 25, 4, 60, 12}
	var queues TenantQueues
	var want []job.TenantID
	for i, id := range tenants {
		q := queues.queue(id)
		if i%3 != 2 { // leave every third queue empty
			q.PushBack(&job.Job{ID: job.ID(i), Tenant: id})
			want = append(want, id)
		}
	}
	slices.Sort(want)

	// Copy: pendingTenants returns a reused scratch slice.
	got := slices.Clone(queues.pendingTenants())
	if !slices.Equal(got, want) {
		t.Fatalf("pendingTenants returned %v, want %v", got, want)
	}

	var restored TenantQueues
	restored.RestoreCheckpointState(queues.CheckpointState())
	if len(restored.entries) != len(tenants) {
		t.Errorf("round trip kept %d tenant queues, want %d (empty queues included)", len(restored.entries), len(tenants))
	}
	if err := restored.CheckInvariants(nil); err != nil {
		t.Errorf("restored queues fail the audit: %v", err)
	}
	if again := restored.pendingTenants(); !slices.Equal(again, want) {
		t.Errorf("after a checkpoint round trip pendingTenants returned %v, want %v", again, want)
	}
}

// BenchmarkPendingTenants1kTenants measures the candidate walk over 1000
// tenant queues (far beyond the paper's cluster scale).
func BenchmarkPendingTenants1kTenants(b *testing.B) {
	var queues TenantQueues
	for i := 0; i < 1000; i++ {
		// Spread the IDs so insertion order and sorted order disagree.
		queues.PushBack(&job.Job{ID: job.ID(i), Tenant: job.TenantID(i * 7919 % 100003)})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := queues.pendingTenants(); len(got) != 1000 {
			b.Fatalf("got %d tenants", len(got))
		}
	}
}

// TestCheckInvariantsCatchesTenantQueueOrder corrupts DRF's sorted tenant
// queues the way a broken insert would: an out-of-order entry and a
// repeated tenant must each fail DRF's audit, both in place and in a
// hand-edited checkpoint, whose restore ends in that audit.
func TestCheckInvariantsCatchesTenantQueueOrder(t *testing.T) {
	newDRF := func() *DRF {
		d, err := NewDRF(16, 4)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	d := newDRF()
	for i, tenant := range []job.TenantID{7, 2, 5} {
		d.queues.PushBack(gpuJob(job.ID(i+1), tenant, 2, 1))
	}
	if err := d.CheckInvariants(); err != nil {
		t.Fatalf("well-formed queues fail the audit: %v", err)
	}
	blob, err := d.CheckpointState()
	if err != nil {
		t.Fatal(err)
	}

	qs := d.queues.entries
	qs[0], qs[1] = qs[1], qs[0]
	if err := d.CheckInvariants(); err == nil || !strings.Contains(err.Error(), "tenant queue 2 follows tenant queue 5") {
		t.Errorf("out-of-order tenant queues: audit %v, want an ordering error", err)
	}
	qs[0], qs[1] = qs[1], qs[0]
	d.queues.entries = append(qs, qs[len(qs)-1])
	if err := d.CheckInvariants(); err == nil || !strings.Contains(err.Error(), "tenant queue 7 follows tenant queue 7") {
		t.Errorf("repeated tenant queue: audit %v, want an ordering error", err)
	}

	var st drfState
	if err := json.Unmarshal(blob, &st); err != nil {
		t.Fatal(err)
	}
	queues := st.Queues
	for _, tc := range []struct {
		name   string
		queues []TenantQueueState
		want   string // "" when restore must succeed
	}{
		{"as written", queues, ""},
		{"out-of-order tenants", []TenantQueueState{queues[1], queues[0], queues[2]}, "tenant queue 2 follows tenant queue 5"},
		{"repeated tenant", append(slices.Clone(queues), queues[2]), "tenant queue 7 follows tenant queue 7"},
	} {
		st.Queues = tc.queues
		crafted, err := json.Marshal(st)
		if err != nil {
			t.Fatal(err)
		}
		err = newDRF().RestoreCheckpoint(crafted)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: restore failed: %v", tc.name, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%s: restore error %v, want one containing %q", tc.name, err, tc.want)
		}
	}
}

// The reference loops below are the three progressive-filling loops Fill
// replaced, verbatim but for what each did with the offered tenant, which
// try stands for, and their scratch, which is local. The DRF baseline kept
// its queues in a map and sorted the pending tenants on every pick; CODA's
// two arrays ran the same loop over tenant-sorted queues, each trying only
// the offered tenant's head.

// refTenantQueue and refTenantQueues are the arrays' former queue types.
type refTenantQueue struct {
	tenant job.TenantID
	jobs   *list.List
}

type refTenantQueues []refTenantQueue

func (qs refTenantQueues) get(t job.TenantID) *list.List {
	i := sort.Search(len(qs), func(i int) bool { return qs[i].tenant >= t })
	if i < len(qs) && qs[i].tenant == t {
		return qs[i].jobs
	}
	return nil
}

func (qs *refTenantQueues) queueFor(t job.TenantID) *list.List {
	i := sort.Search(len(*qs), func(i int) bool { return (*qs)[i].tenant >= t })
	if i == len(*qs) || (*qs)[i].tenant != t {
		*qs = slices.Insert(*qs, i, refTenantQueue{tenant: t, jobs: list.New()})
	}
	return (*qs)[i].jobs
}

// refDRFPendingTenants is the DRF baseline's pendingTenants.
func refDRFPendingTenants(queues map[job.TenantID]*list.List) []job.TenantID {
	var tenants []job.TenantID
	for t, q := range queues {
		if q.Len() > 0 {
			tenants = append(tenants, t)
		}
	}
	sort.Slice(tenants, func(i, j int) bool { return tenants[i] < tenants[j] })
	return tenants
}

// refDRFDrain is the DRF baseline's drain loop; try stands for
// startFirstFitting and, on refusal, the reservation.
func refDRFDrain(queues map[job.TenantID]*list.List, acc *fair.Accountant, try func(job.TenantID) bool) {
	blocked := make(map[job.TenantID]bool)
	for {
		var candidates []job.TenantID
		for _, t := range refDRFPendingTenants(queues) {
			if !blocked[t] {
				candidates = append(candidates, t)
			}
		}
		tenant, ok := acc.PoorestTenant(candidates)
		if !ok {
			return
		}
		if !try(tenant) {
			blocked[tenant] = true
		}
	}
}

// refArrayPendingTenants is the multi-array's pendingTenants.
func refArrayPendingTenants(queues refTenantQueues) []job.TenantID {
	var out []job.TenantID
	for _, q := range queues {
		if q.jobs.Len() > 0 {
			out = append(out, q.tenant)
		}
	}
	return out
}

// refArrayDrain is drainGPU's loop, and drainCPU's, which differed from it
// only in calling startCPU where drainGPU called startGPU; start stands for
// either.
func refArrayDrain(queues *refTenantQueues, acc *fair.Accountant, start func(*job.Job) bool) {
	blocked := make(map[job.TenantID]bool)
	for {
		var candidates []job.TenantID
		for _, t := range refArrayPendingTenants(*queues) {
			if !blocked[t] {
				candidates = append(candidates, t)
			}
		}
		tenant, ok := acc.PoorestTenant(candidates)
		if !ok {
			return
		}
		q := queues.get(tenant)
		elem := q.Front()
		j := elem.Value.(*job.Job)
		if start(j) {
			q.Remove(elem)
			continue
		}
		blocked[tenant] = true
	}
}

// fillCase is one seeded fill-pass input: tenants, queue contents in
// arrival order, prior charges and the seed of the try outcomes.
type fillCase struct {
	mode     fair.Dominant
	arrivals []*job.Job
	charges  []fair.Resources // charges[i] goes to arrivals[i]'s tenant
	outcomes int64
}

func newFillCase(rng *rand.Rand) fillCase {
	fc := fillCase{mode: fair.DominantCPU, outcomes: rng.Int63()}
	if rng.Intn(2) == 0 {
		fc.mode = fair.DominantGPU
	}
	tenants := rng.Perm(40)[:1+rng.Intn(8)]
	n := rng.Intn(30)
	for i := 0; i < n; i++ {
		fc.arrivals = append(fc.arrivals, &job.Job{
			ID:     job.ID(i + 1),
			Tenant: job.TenantID(tenants[rng.Intn(len(tenants))]),
		})
		var res fair.Resources
		if rng.Intn(3) > 0 { // many tenants tie at a zero share
			res = fair.Resources{CPU: float64(rng.Intn(4)), GPU: float64(rng.Intn(3))}
		}
		fc.charges = append(fc.charges, res)
	}
	return fc
}

func (fc fillCase) accountant(t *testing.T) *fair.Accountant {
	acc, err := fair.NewAccountant(fair.Resources{CPU: 64, GPU: 16}, fc.mode)
	if err != nil {
		t.Fatal(err)
	}
	for i, j := range fc.arrivals {
		if err := acc.Charge(-j.ID, j.Tenant, fc.charges[i]); err != nil {
			t.Fatal(err)
		}
	}
	return acc
}

// fillStep is what one try saw and did: the offered tenant and the job it
// started, 0 for a refusal.
type fillStep struct {
	tenant  job.TenantID
	started job.ID
}

// fillTrial draws the seeded try outcomes both sides of the differential
// test share. A try offered a queue of n jobs refuses, or starts the job
// at a drawn position (the DRF baseline's earliest fitting job) or at the
// head (an array's head), charging its tenant. Now and then it also
// requeues a fresh job of a drawn tenant, maybe a new one, at the head of
// a queue of the set being filled, so the candidates change mid-pass.
type fillTrial struct {
	t      *testing.T
	rng    *rand.Rand
	acc    *fair.Accountant
	anyPos bool
	steps  []fillStep
	nextID job.ID
}

func newFillTrial(t *testing.T, fc fillCase, anyPos bool) *fillTrial {
	return &fillTrial{t: t, rng: rand.New(rand.NewSource(fc.outcomes)), acc: fc.accountant(t),
		anyPos: anyPos, nextID: 1000}
}

// draw decides one try on a queue of n jobs: the position it starts, -1
// for a refusal, and the tenant of a job to requeue, -1 for none.
func (ft *fillTrial) draw(tenant job.TenantID, n int) (pos int, requeue job.TenantID) {
	if len(ft.steps) > 10000 {
		ft.t.Fatal("fill pass did not end")
	}
	pos = -1
	if ft.rng.Intn(3) > 0 {
		pos = 0
		if ft.anyPos {
			pos = ft.rng.Intn(n)
		}
	}
	requeue = -1
	if ft.rng.Intn(8) == 0 {
		requeue = job.TenantID(ft.rng.Intn(44))
	}
	step := fillStep{tenant: tenant}
	if pos >= 0 {
		step.started = -1 // filled in by the caller
		if err := ft.acc.Charge(job.ID(len(ft.steps)+1), tenant,
			fair.Resources{CPU: float64(1 + ft.rng.Intn(4)), GPU: float64(ft.rng.Intn(3))}); err != nil {
			ft.t.Fatal(err)
		}
	}
	ft.steps = append(ft.steps, step)
	return pos, requeue
}

func (ft *fillTrial) requeued(tenant job.TenantID) *job.Job {
	ft.nextID++
	return &job.Job{ID: ft.nextID, Tenant: tenant}
}

// runFill fills a TenantQueues built from fc through Fill.
func runFill(t *testing.T, fc fillCase, anyPos bool) []fillStep {
	ft := newFillTrial(t, fc, anyPos)
	var qs TenantQueues
	for _, j := range fc.arrivals {
		qs.PushBack(j)
	}
	qs.Fill(ft.acc, func(q *JobQueue) bool {
		pos, requeue := ft.draw(q.At(0).Tenant, q.Len())
		if pos >= 0 {
			ft.steps[len(ft.steps)-1].started = q.At(pos).ID
			q.Remove(pos)
		}
		if requeue >= 0 {
			qs.PushFront(ft.requeued(requeue))
		}
		return pos >= 0
	})
	return ft.steps
}

// runRefDRF fills the DRF baseline's map of lists through refDRFDrain.
func runRefDRF(t *testing.T, fc fillCase) []fillStep {
	ft := newFillTrial(t, fc, true)
	queues := make(map[job.TenantID]*list.List)
	queueFor := func(tenant job.TenantID) *list.List {
		q, ok := queues[tenant]
		if !ok {
			q = list.New()
			queues[tenant] = q
		}
		return q
	}
	for _, j := range fc.arrivals {
		queueFor(j.Tenant).PushBack(j)
	}
	refDRFDrain(queues, ft.acc, func(tenant job.TenantID) bool {
		q := queues[tenant]
		pos, requeue := ft.draw(tenant, q.Len())
		if pos >= 0 {
			elem := q.Front()
			for k := 0; k < pos; k++ {
				elem = elem.Next()
			}
			ft.steps[len(ft.steps)-1].started = elem.Value.(*job.Job).ID
			q.Remove(elem)
		}
		if requeue >= 0 {
			queueFor(requeue).PushFront(ft.requeued(requeue))
		}
		return pos >= 0
	})
	return ft.steps
}

// runRefArray fills an array's tenant-sorted lists through refArrayDrain.
func runRefArray(t *testing.T, fc fillCase) []fillStep {
	ft := newFillTrial(t, fc, false)
	var queues refTenantQueues
	for _, j := range fc.arrivals {
		queues.queueFor(j.Tenant).PushBack(j)
	}
	refArrayDrain(&queues, ft.acc, func(j *job.Job) bool {
		pos, requeue := ft.draw(j.Tenant, queues.get(j.Tenant).Len())
		if pos >= 0 {
			ft.steps[len(ft.steps)-1].started = j.ID
		}
		if requeue >= 0 {
			queues.queueFor(requeue).PushFront(ft.requeued(requeue))
		}
		return pos >= 0
	})
	return ft.steps
}

// TestFillMatchesReferenceLoops runs Fill and the loops it replaced on the
// same seeded states and try outcomes: the tenants offered and the jobs
// started must match step for step, for the DRF baseline's try (any
// queued job may start) and for an array's (only the head may).
func TestFillMatchesReferenceLoops(t *testing.T) {
	refusals := 0
	for seed := int64(0); seed < 2000; seed++ {
		fc := newFillCase(rand.New(rand.NewSource(seed)))
		for _, tc := range []struct {
			name   string
			anyPos bool
			ref    func(*testing.T, fillCase) []fillStep
		}{
			{"drf", true, runRefDRF},
			{"array", false, runRefArray},
		} {
			want, got := tc.ref(t, fc), runFill(t, fc, tc.anyPos)
			if !slices.Equal(got, want) {
				t.Fatalf("seed %d, %s: Fill took steps %v, the reference loop %v", seed, tc.name, got, want)
			}
			for _, s := range got {
				if s.started == 0 {
					refusals++
				}
			}
		}
	}
	if refusals < 1000 {
		t.Errorf("only %d refusals over all cases; setting refused tenants aside is not exercised", refusals)
	}
}
