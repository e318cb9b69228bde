package membw

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"github.com/coda-repro/coda/internal/job"
)

func newTestMeter(t *testing.T, mba bool) *Meter {
	t.Helper()
	m, err := NewMeter(100, mba)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestNewMeterValidation(t *testing.T) {
	if _, err := NewMeter(0, true); err == nil {
		t.Error("NewMeter(0) should fail")
	}
	if _, err := NewMeter(-5, true); err == nil {
		t.Error("NewMeter(-5) should fail")
	}
	m, err := NewMeter(120, false)
	if err != nil {
		t.Fatal(err)
	}
	if m.Capacity() != 120 {
		t.Errorf("Capacity = %g, want 120", m.Capacity())
	}
	if m.MBASupported() {
		t.Error("MBASupported should be false")
	}
}

// TestHostsAnyOf checks the sorted-set membership test against an empty
// set, a hit, a miss, a job after its deregistration, sets that lie wholly
// before, after or between the meter's jobs, and random sets against a
// linear oracle; it must allocate nothing.
func TestHostsAnyOf(t *testing.T) {
	m := newTestMeter(t, true)
	for _, id := range []job.ID{3, 7, 11} {
		if err := m.Register(id, 10, true); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct {
		set  []job.ID
		want bool
	}{
		{nil, false},
		{[]job.ID{7}, true},
		{[]job.ID{4}, false},
		{[]job.ID{1, 2}, false},
		{[]job.ID{12, 40}, false},
		{[]job.ID{4, 5, 8, 10}, false},
		{[]job.ID{1, 11}, true},
		{[]job.ID{3}, true},
	} {
		if got := m.HostsAnyOf(tc.set); got != tc.want {
			t.Errorf("HostsAnyOf(%v) = %v with jobs {3, 7, 11}, want %v", tc.set, got, tc.want)
		}
	}
	if err := m.Deregister(11); err != nil {
		t.Fatal(err)
	}
	if m.HostsAnyOf([]job.ID{4, 11}) {
		t.Error("HostsAnyOf({4, 11}) = true after job 11 deregistered")
	}
	set := []job.ID{4, 7}
	if allocs := testing.AllocsPerRun(100, func() { m.HostsAnyOf(set) }); allocs != 0 {
		t.Errorf("HostsAnyOf allocates %v times per call, want 0", allocs)
	}

	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 500; trial++ {
		m := newTestMeter(t, true)
		registered := map[job.ID]bool{}
		for i := rng.Intn(8); i > 0; i-- {
			id := job.ID(1 + rng.Intn(30))
			if !registered[id] {
				registered[id] = true
				if err := m.Register(id, 1, true); err != nil {
					t.Fatal(err)
				}
			}
		}
		var set []job.ID
		want := false
		for id := job.ID(1); id <= 30; id++ {
			if rng.Intn(6) == 0 {
				set = append(set, id)
				want = want || registered[id]
			}
		}
		if got := m.HostsAnyOf(set); got != want {
			t.Fatalf("trial %d: HostsAnyOf(%v) = %v, oracle %v", trial, set, got, want)
		}
	}
}

func TestRegisterDeregister(t *testing.T) {
	m := newTestMeter(t, true)
	if err := m.Register(1, 30, true); err != nil {
		t.Fatal(err)
	}
	if err := m.Register(1, 10, true); !errors.Is(err, ErrDuplicateJob) {
		t.Errorf("duplicate register error = %v", err)
	}
	if err := m.Register(2, -1, true); err == nil {
		t.Error("negative demand should fail")
	}
	if got := m.Total(); got != 30 {
		t.Errorf("Total = %g, want 30", got)
	}
	if err := m.Deregister(1); err != nil {
		t.Fatal(err)
	}
	if err := m.Deregister(1); !errors.Is(err, ErrUnknownJob) {
		t.Errorf("double deregister error = %v", err)
	}
	if got := m.Total(); got != 0 {
		t.Errorf("Total = %g, want 0", got)
	}
}

func TestSetDemand(t *testing.T) {
	m := newTestMeter(t, true)
	if err := m.SetDemand(1, 5); !errors.Is(err, ErrUnknownJob) {
		t.Errorf("SetDemand unknown error = %v", err)
	}
	if err := m.Register(1, 30, true); err != nil {
		t.Fatal(err)
	}
	if err := m.SetDemand(1, 15); err != nil {
		t.Fatal(err)
	}
	if got, _ := m.JobBandwidth(1); got != 15 {
		t.Errorf("JobBandwidth = %g, want 15", got)
	}
	if err := m.SetDemand(1, -3); err == nil {
		t.Error("negative SetDemand should fail")
	}
}

func TestThrottle(t *testing.T) {
	m := newTestMeter(t, true)
	if err := m.Register(1, 40, true); err != nil {
		t.Fatal(err)
	}
	if err := m.Register(2, 20, false); err != nil {
		t.Fatal(err)
	}

	if err := m.Throttle(1, 10); err != nil {
		t.Fatalf("Throttle: %v", err)
	}
	if got, _ := m.JobBandwidth(1); got != 10 {
		t.Errorf("throttled bandwidth = %g, want 10", got)
	}
	if got := m.Total(); got != 30 {
		t.Errorf("Total = %g, want 30", got)
	}

	// Cap above demand has no effect on effective usage.
	if err := m.Throttle(1, 90); err != nil {
		t.Fatal(err)
	}
	if got, _ := m.JobBandwidth(1); got != 40 {
		t.Errorf("high-cap bandwidth = %g, want 40", got)
	}

	if err := m.Throttle(2, 5); err == nil {
		t.Error("throttling a training job should fail")
	}
	if err := m.Throttle(99, 5); !errors.Is(err, ErrUnknownJob) {
		t.Errorf("throttle unknown error = %v", err)
	}
	if err := m.Throttle(1, 0); err == nil {
		t.Error("zero cap should fail")
	}

	if err := m.Unthrottle(1); err != nil {
		t.Fatal(err)
	}
	if got, _ := m.JobBandwidth(1); got != 40 {
		t.Errorf("unthrottled bandwidth = %g, want 40", got)
	}
	if err := m.Unthrottle(99); !errors.Is(err, ErrUnknownJob) {
		t.Errorf("unthrottle unknown error = %v", err)
	}
}

func TestThrottleWithoutMBA(t *testing.T) {
	m := newTestMeter(t, false)
	if err := m.Register(1, 40, true); err != nil {
		t.Fatal(err)
	}
	if err := m.Throttle(1, 10); err == nil {
		t.Error("Throttle on non-MBA node should fail")
	}
}

func TestUtilization(t *testing.T) {
	m := newTestMeter(t, true)
	if got := m.Utilization(); got != 0 {
		t.Errorf("empty Utilization = %g, want 0", got)
	}
	if err := m.Register(1, 50, true); err != nil {
		t.Fatal(err)
	}
	if got := m.Utilization(); got != 0.5 {
		t.Errorf("Utilization = %g, want 0.5", got)
	}
	if err := m.Register(2, 150, true); err != nil {
		t.Fatal(err)
	}
	if got := m.Utilization(); got != 2 {
		t.Errorf("over-capacity Utilization = %g, want 2", got)
	}
}

func TestJobsOrdering(t *testing.T) {
	m := newTestMeter(t, true)
	for _, reg := range []struct {
		id     job.ID
		demand float64
		cpu    bool
	}{{1, 10, true}, {2, 40, true}, {3, 40, false}, {4, 25, true}} {
		if err := m.Register(reg.id, reg.demand, reg.cpu); err != nil {
			t.Fatal(err)
		}
	}
	jobs := m.AppendJobs(nil)
	wantOrder := []job.ID{2, 3, 4, 1} // 40 (id 2), 40 (id 3), 25, 10
	if len(jobs) != len(wantOrder) {
		t.Fatalf("Jobs len = %d, want %d", len(jobs), len(wantOrder))
	}
	for i, want := range wantOrder {
		if jobs[i].ID != want {
			t.Errorf("Jobs[%d].ID = %d, want %d", i, jobs[i].ID, want)
		}
	}
	if !jobs[0].CPUJob || jobs[1].CPUJob {
		t.Error("CPUJob flags not preserved")
	}
}

func TestJobBandwidthUnknown(t *testing.T) {
	m := newTestMeter(t, true)
	if _, err := m.JobBandwidth(7); !errors.Is(err, ErrUnknownJob) {
		t.Errorf("error = %v, want ErrUnknownJob", err)
	}
}

func TestMonitor(t *testing.T) {
	mon, err := NewMonitor(3, 100, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(mon.meters) != 3 {
		t.Errorf("monitor has %d meters, want 3", len(mon.meters))
	}
	if _, err := mon.Node(3); err == nil {
		t.Error("Node(3) should fail")
	}
	if _, err := mon.Node(-1); err == nil {
		t.Error("Node(-1) should fail")
	}
	m0, err := mon.Node(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := m0.Register(1, 80, true); err != nil {
		t.Fatal(err)
	}
	m2, _ := mon.Node(2)
	if err := m2.Register(2, 60, true); err != nil {
		t.Fatal(err)
	}
	m1, _ := mon.Node(1)
	for i, want := range []float64{80, 0, 60} {
		if got := []*Meter{m0, m1, m2}[i].Total(); got != want {
			t.Errorf("node %d total = %v, want %v", i, got, want)
		}
	}
}

func TestNewMonitorValidation(t *testing.T) {
	if _, err := NewMonitor(0, 100, true); err == nil {
		t.Error("NewMonitor(0 nodes) should fail")
	}
	if _, err := NewMonitor(2, -1, true); err == nil {
		t.Error("NewMonitor(negative capacity) should fail")
	}
}

// TestTotalProperty: the meter total always equals the sum of effective
// per-job bandwidths, and throttling never increases the total.
func TestTotalProperty(t *testing.T) {
	f := func(demands []uint8, capRaw uint8) bool {
		m, err := NewMeter(100, true)
		if err != nil {
			return false
		}
		sum := 0.0
		for i, d := range demands {
			if err := m.Register(job.ID(i+1), float64(d), true); err != nil {
				return false
			}
			sum += float64(d)
		}
		if math.Abs(m.Total()-sum) > 1e-9 {
			return false
		}
		before := m.Total()
		if len(demands) > 0 {
			cap := float64(capRaw) + 1
			if err := m.Throttle(1, cap); err != nil {
				return false
			}
		}
		return m.Total() <= before+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestCachedTotalMatchesFreshSum drives a meter through random sequences
// of register, deregister, set-demand, throttle, unthrottle and checkpoint
// restore, reading Total at random points in between so the cache is often
// valid when a write lands. After every step Total must be bit-equal to an
// ID-order sum over a model of the job table kept by the test.
func TestCachedTotalMatchesFreshSum(t *testing.T) {
	type rec struct{ demand, cap float64 }
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		mon, err := NewMonitor(1, 100, true)
		if err != nil {
			t.Fatal(err)
		}
		m := mon.meters[0]
		model := make(map[job.ID]rec)
		modelIDs := func() []job.ID {
			ids := make([]job.ID, 0, len(model))
			for id := range model {
				ids = append(ids, id)
			}
			slices.Sort(ids)
			return ids
		}
		// Fractional demands make the float sum order-sensitive.
		demand := func() float64 { return rng.Float64() * 37 }
		registered := func() (job.ID, bool) {
			if len(model) == 0 {
				return 0, false
			}
			ids := modelIDs()
			return ids[rng.Intn(len(ids))], true
		}
		for step := 0; step < 300; step++ {
			op := rng.Intn(6)
			switch op {
			case 0:
				id := job.ID(1 + rng.Intn(40))
				d := demand()
				if err := m.Register(id, d, true); err == nil {
					model[id] = rec{demand: d}
				} else if _, ok := model[id]; !ok {
					t.Fatalf("seed %d step %d: register %d: %v", seed, step, id, err)
				}
			case 1:
				if id, ok := registered(); ok {
					if err := m.Deregister(id); err != nil {
						t.Fatal(err)
					}
					delete(model, id)
				}
			case 2:
				if id, ok := registered(); ok {
					r := model[id]
					r.demand = demand()
					if err := m.SetDemand(id, r.demand); err != nil {
						t.Fatal(err)
					}
					model[id] = r
				}
			case 3:
				if id, ok := registered(); ok {
					r := model[id]
					r.cap = 0.5 + rng.Float64()*30
					if err := m.Throttle(id, r.cap); err != nil {
						t.Fatal(err)
					}
					model[id] = r
				}
			case 4:
				if id, ok := registered(); ok {
					r := model[id]
					r.cap = 0
					if err := m.Unthrottle(id); err != nil {
						t.Fatal(err)
					}
					model[id] = r
				}
			case 5:
				// Restore into a fresh monitor whose empty meter already
				// cached a zero total.
				st := mon.CheckpointState()
				fresh, err := NewMonitor(1, 100, true)
				if err != nil {
					t.Fatal(err)
				}
				_ = fresh.meters[0].Total()
				if err := fresh.RestoreCheckpointState(st); err != nil {
					t.Fatal(err)
				}
				mon, m = fresh, fresh.meters[0]
			}
			want := 0.0
			for _, id := range modelIDs() {
				r := model[id]
				eff := r.demand
				if r.cap > 0 && r.cap < r.demand {
					eff = r.cap
				}
				want += eff
			}
			if got := m.Total(); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("seed %d step %d (op %d): Total %v, fresh ID-order sum %v", seed, step, op, got, want)
			}
			if err := m.CheckInvariants(); err != nil {
				t.Fatalf("seed %d step %d: %v", seed, step, err)
			}
			if rng.Intn(2) == 0 {
				_ = m.Total() // leave the cache valid for the next write
			}
		}
	}
}

// TestCheckInvariantsCatchesStaleTotal mutates the job table behind the
// meter's back, the way a new writer that forgot to drop the cache would:
// the check must report the stale total, and must stay quiet while the
// cache is invalid.
func TestCheckInvariantsCatchesStaleTotal(t *testing.T) {
	m := newTestMeter(t, true)
	for i, d := range []float64{10.1, 20.2, 30.3} {
		if err := m.Register(job.ID(i+1), d, true); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatalf("invalid cache reported: %v", err)
	}
	_ = m.Total()
	if err := m.CheckInvariants(); err != nil {
		t.Fatalf("valid cache reported: %v", err)
	}

	m.jobs[2] = usage{demand: 5, cpuJob: true}
	if err := m.CheckInvariants(); err == nil {
		t.Error("demand changed without dropping the cache, check passed")
	}
	if err := m.SetDemand(2, 5); err != nil {
		t.Fatal(err)
	}
	_ = m.Total()

	delete(m.jobs, 3)
	m.removeID(3)
	if err := m.CheckInvariants(); err == nil {
		t.Error("job removed without dropping the cache, check passed")
	}
}
