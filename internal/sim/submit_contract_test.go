package sim

import (
	"testing"
	"time"

	"github.com/coda-repro/coda/internal/chaos"
	"github.com/coda-repro/coda/internal/core"
	"github.com/coda-repro/coda/internal/job"
	"github.com/coda-repro/coda/internal/sched"
	"github.com/coda-repro/coda/internal/trace"
)

// submitRecorder wraps a policy and checks sched.Scheduler's Submit
// contract on every call: a job's first Submit comes exactly at its
// Arrival, and every later one, a fault-killed retry, strictly after it.
type submitRecorder struct {
	sched.Scheduler
	t       *testing.T
	env     sched.Env
	seen    map[job.ID]bool
	retries int
}

func (r *submitRecorder) Bind(env sched.Env) {
	r.env = env
	r.Scheduler.Bind(env)
}

func (r *submitRecorder) Submit(j *job.Job) {
	now := r.env.Now()
	switch {
	case !r.seen[j.ID] && now != j.Arrival:
		r.t.Errorf("%s: job %d first submitted at %v, arrival %v", r.Name(), j.ID, now, j.Arrival)
	case r.seen[j.ID] && now <= j.Arrival:
		r.t.Errorf("%s: job %d resubmitted at %v, not after its arrival %v", r.Name(), j.ID, now, j.Arrival)
	case r.seen[j.ID]:
		r.retries++
	}
	r.seen[j.ID] = true
	r.Scheduler.Submit(j)
}

// cancellingRecorder is a submitRecorder for a policy that can cancel
// queued jobs.
type cancellingRecorder struct{ *submitRecorder }

func (r cancellingRecorder) OnJobCancelled(j *job.Job) {
	r.Scheduler.(sched.Canceller).OnJobCancelled(j)
}

// contractPolicy names a policy and builds it, wrapped in a recorder.
type contractPolicy struct {
	name  string
	build func() (sched.Scheduler, *submitRecorder)
}

// contractPolicies builds each policy for opts' cluster behind a recorder,
// keeping the cancel surface of those that have one.
func contractPolicies(t *testing.T, opts Options) []contractPolicy {
	t.Helper()
	cc := opts.Cluster
	wrap := func(inner sched.Scheduler, err error) (sched.Scheduler, *submitRecorder) {
		if err != nil {
			t.Fatal(err)
		}
		r := &submitRecorder{Scheduler: inner, t: t, seen: make(map[job.ID]bool)}
		if _, ok := inner.(sched.Canceller); ok {
			return cancellingRecorder{r}, r
		}
		return r, r
	}
	return []contractPolicy{
		{"fifo", func() (sched.Scheduler, *submitRecorder) { return wrap(sched.NewFIFO(), nil) }},
		{"drf", func() (sched.Scheduler, *submitRecorder) {
			return wrap(sched.NewDRF(cc.Nodes*cc.CoresPerNode, cc.Nodes*cc.GPUsPerNode))
		}},
		{"static", func() (sched.Scheduler, *submitRecorder) {
			return wrap(sched.NewStatic(cc.CoresPerNode, cc.GPUsPerNode), nil)
		}},
		{"coda", func() (sched.Scheduler, *submitRecorder) {
			return wrap(core.New(core.DefaultConfig(), cc.Nodes, cc.CoresPerNode, cc.GPUsPerNode))
		}},
	}
}

// contractTrace is a half-day trace dense enough that fault kills hit
// queued and running work alike.
func contractTrace(t *testing.T) []*job.Job {
	t.Helper()
	cfg := trace.DefaultConfig()
	cfg.CPUJobs, cfg.GPUJobs = 60, 20
	cfg.Duration = 12 * time.Hour
	cfg.Seed = 107
	jobs, err := trace.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return jobs
}

// TestSubmitContract runs every policy behind a recorder that checks the
// Submit contract CODA tells a retry from a first arrival by: under a fault
// plan with crashes, injected job failures and one retry each, and in a
// service-mode run whose nodes leave and rejoin and whose jobs are
// cancelled while queued, running or backing off. Each run must resubmit
// some job, or the contract's second half went untested.
func TestSubmitContract(t *testing.T) {
	plan := chaos.Plan{
		Seed: 17, Horizon: 12 * time.Hour,
		NodeCrashesPerDay: 10, CrashDowntime: 20 * time.Minute,
		JobFailureProb: 0.3, MaxRetries: 1,
	}
	opts := testOptions()
	opts.Seed = 7
	opts.Faults = plan
	for _, p := range contractPolicies(t, opts) {
		s, rec := p.build()
		res := mustRun(t, opts, s, contractTrace(t))
		if rec.retries == 0 || res.Faults.TerminalFailures == 0 {
			t.Errorf("%s chaos run: %d resubmits, %d terminal failures; want both", p.name, rec.retries, res.Faults.TerminalFailures)
		}
	}

	svc := serviceOptions()
	svc.Seed = 7
	svc.Faults = chaos.Plan{RetryBackoff: 30 * time.Minute}
	for _, p := range contractPolicies(t, svc) {
		s, rec := p.build()
		cancels := serviceScript(t, newService(t, svc, s), contractTrace(t))
		if rec.retries == 0 || cancels == 0 {
			t.Errorf("%s service run: %d resubmits, %d cancels; want both", p.name, rec.retries, cancels)
		}
	}
}

// serviceScript injects jobs at their arrivals into a service simulator,
// takes node i/20 % 4 down at every 20th arrival i and brings it back ten
// arrivals later, and at every 7th arrival cancels the lowest-ID job that
// is queued, the one that is running and the one that is backing off (a
// policy without a cancel surface keeps its queued jobs). It then runs
// until no job is in flight and reports the number of cancels.
func serviceScript(t *testing.T, s *Simulator, jobs []*job.Job) (cancels int) {
	t.Helper()
	_, canCancelQueued := s.scheduler.(sched.Canceller)
	fault := func(kind chaos.Kind, node int) {
		t.Helper()
		if err := s.InjectFault(chaos.Fault{Kind: kind, Node: node}); err != nil {
			t.Fatal(err)
		}
	}
	for i, j := range jobs {
		mustRunUntil(t, s, j.Arrival)
		mustInject(t, s, j)
		switch node := i / 20 % 4; i % 20 {
		case 0:
			fault(chaos.KindNodeCrash, node)
		case 10:
			fault(chaos.KindNodeRecover, node)
		}
		if i%7 != 6 {
			continue
		}
		for _, phase := range []string{PhasePending, PhaseRunning, PhaseRetrying} {
			if phase == PhasePending && !canCancelQueued {
				continue
			}
			for _, prev := range jobs[:i+1] {
				if s.JobPhase(prev.ID) == phase {
					if err := s.CancelJob(prev.ID); err != nil {
						t.Fatal(err)
					}
					cancels++
					break
				}
			}
		}
	}
	if i := len(jobs) - 1; i%20 < 10 {
		fault(chaos.KindNodeRecover, i/20%4)
	}
	for end, st := s.Now(), s.Stats(); st.Pending+st.Running+st.Retrying > 0; st = s.Stats() {
		if end += time.Hour; end > 30*24*time.Hour {
			t.Fatalf("%d pending, %d running, %d retrying jobs after 30 days", st.Pending, st.Running, st.Retrying)
		}
		mustRunUntil(t, s, end)
	}
	return cancels
}
