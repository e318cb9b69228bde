package sim

import (
	"testing"
	"time"

	"github.com/coda-repro/coda/internal/chaos"
	"github.com/coda-repro/coda/internal/cluster"
	"github.com/coda-repro/coda/internal/core"
	"github.com/coda-repro/coda/internal/job"
	"github.com/coda-repro/coda/internal/sched"
	"github.com/coda-repro/coda/internal/trace"
)

// chaoticRun runs a chaotic CODA simulation with the given invariant
// cadence and returns its dump.
func chaoticRun(t *testing.T, every int) string {
	t.Helper()
	cfg := trace.DefaultConfig()
	cfg.CPUJobs, cfg.GPUJobs = 100, 30
	cfg.Duration = 24 * time.Hour
	cfg.Seed = 42
	jobs, err := trace.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	opts := testOptions()
	opts.Seed = 7
	opts.InvariantsEvery = every
	opts.Faults = chaos.Plan{
		Seed:              99,
		Horizon:           24 * time.Hour,
		NodeCrashesPerDay: 6,
		StragglersPerDay:  4,
		MembwDropsPerDay:  4,
		JobFailureProb:    0.05,
	}
	s, err := core.New(core.DefaultConfig(), opts.Cluster.Nodes, opts.Cluster.CoresPerNode, opts.Cluster.GPUsPerNode)
	if err != nil {
		t.Fatal(err)
	}
	return DumpResult(mustRun(t, opts, s, jobs))
}

// TestDeltaInvariantCadenceMatchesFullCheck: switching from a full audit
// after every event (InvariantsEvery=0) to the O(Δ) delta check with a
// periodic audit must neither reject a healthy chaotic run nor change one
// bit of its result — checking is observation, never behavior.
func TestDeltaInvariantCadenceMatchesFullCheck(t *testing.T) {
	full := chaoticRun(t, 0)
	for _, every := range []int{1, 7, 1000} {
		if delta := chaoticRun(t, every); delta != full {
			t.Fatalf("InvariantsEvery=%d changed the run: %s", every, FirstDiff(full, delta))
		}
	}
}

// TestDeltaCheckDetectsTouchedCorruption plants corruptions in state the
// current event touched and checks the O(Δ) path reports them.
func TestDeltaCheckDetectsTouchedCorruption(t *testing.T) {
	opts := testOptions()
	opts.InvariantsEvery = 1 << 30 // keep the full audit out of the way
	t.Run("node cache corruption", func(t *testing.T) {
		s, err := New(opts, sched.NewFIFO(), nil)
		if err != nil {
			t.Fatal(err)
		}
		// Drain node 0 so it lands in the touched journal, then corrupt its
		// cpu-core cache: the delta check must cross-check it.
		if err := s.cluster.SetNodeState(0, cluster.NodeDraining); err != nil {
			t.Fatal(err)
		}
		s.cpuCoresOn[0] = 5
		if err := s.checkInvariantsDelta(); err == nil {
			t.Fatal("delta check missed a corrupted cpu-core cache on a touched node")
		}
	})
	t.Run("job state corruption", func(t *testing.T) {
		s, err := New(opts, sched.NewFIFO(), nil)
		if err != nil {
			t.Fatal(err)
		}
		// A job that is pending and running at once, journaled as touched.
		j := cpuJob(1, 0, 2, time.Hour)
		s.pending[j.ID] = j
		s.running[j.ID] = &runningJob{job: j}
		s.touchJob(j.ID)
		if err := s.checkInvariantsDelta(); err == nil {
			t.Fatal("delta check missed a job that is pending and running simultaneously")
		}
	})
	t.Run("untouched corruption caught by cadence audit", func(t *testing.T) {
		s, err := New(opts, sched.NewFIFO(), nil)
		if err != nil {
			t.Fatal(err)
		}
		// Corrupt a node WITHOUT touching it: the delta check cannot see it
		// (that is the bargain), but the cadence audit must.
		s.cpuCoresOn[1] = 3
		if err := s.checkInvariantsDelta(); err != nil {
			t.Fatalf("delta check scanned untouched state: %v", err)
		}
		s.opts.InvariantsEvery = 1 // next event triggers the full audit
		if err := s.checkEventInvariants(); err == nil {
			t.Fatal("cadence audit missed a corrupted untouched node")
		}
	})
}

// busyServiceSim returns a service-mode FIFO simulator with four CPU jobs
// running, all on node 0, and healthy audits. The periodic full audit is
// kept out of the way so each test runs the audits itself.
func busyServiceSim(t *testing.T) *Simulator {
	t.Helper()
	opts := testOptions()
	opts.Service = true
	opts.InvariantsEvery = 1 << 30
	s, err := New(opts, sched.NewFIFO(), nil)
	if err != nil {
		t.Fatal(err)
	}
	for id := job.ID(1); id <= 4; id++ {
		if err := s.InjectArrival(cpuJob(id, 0, 2, time.Hour)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.RunUntil(time.Minute); err != nil {
		t.Fatal(err)
	}
	if len(s.runOrder) != 4 || len(s.onNode[0]) != 4 {
		t.Fatalf("%d jobs running, %d on node 0; want 4 and 4", len(s.runOrder), len(s.onNode[0]))
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatalf("healthy state fails the full audit: %v", err)
	}
	if err := s.checkInvariantsDelta(); err != nil {
		t.Fatalf("healthy state fails the delta audit: %v", err)
	}
	return s
}

// TestAuditsCatchRunningViewCorruption corrupts the ID-ordered views of
// the running set — a node's list loses an entry or falls out of order,
// or the running-job order keeps a job that is not running — and checks
// that the full audit and the delta audit over the touched job or node
// both reject each.
func TestAuditsCatchRunningViewCorruption(t *testing.T) {
	for _, tc := range []struct {
		name    string
		corrupt func(s *Simulator)
	}{
		{"dropped node entry", func(s *Simulator) {
			s.onNode[0] = removeRun(s.onNode[0], 2)
			s.touchJob(2)
		}},
		{"misordered node entries", func(s *Simulator) {
			s.onNode[0][1], s.onNode[0][2] = s.onNode[0][2], s.onNode[0][1]
			if err := s.cluster.SetNodeState(0, cluster.NodeUp); err != nil { // journals node 0
				t.Fatal(err)
			}
		}},
		{"stale running-order entry", func(s *Simulator) {
			s.runOrder = insertRun(s.runOrder, &runningJob{job: cpuJob(9, 0, 2, time.Hour)})
			s.touchJob(9)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := busyServiceSim(t)
			tc.corrupt(s)
			if err := s.checkInvariantsDelta(); err == nil {
				t.Error("delta audit missed the corruption")
			}
			if err := s.CheckInvariants(); err == nil {
				t.Error("full audit missed the corruption")
			}
		})
	}
}
