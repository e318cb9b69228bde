package sim

import (
	"math"
	"testing"
	"time"

	"github.com/coda-repro/coda/internal/chaos"
	"github.com/coda-repro/coda/internal/checkpoint"
	"github.com/coda-repro/coda/internal/cluster"
	"github.com/coda-repro/coda/internal/job"
	"github.com/coda-repro/coda/internal/perfmodel"
	"github.com/coda-repro/coda/internal/sched"
)

// mixedServiceSim runs two CPU jobs and a training job side by side on node
// 0 and checks that both audits accept the state.
func mixedServiceSim(t *testing.T) *Simulator {
	t.Helper()
	opts := testOptions()
	opts.Service = true
	opts.InvariantsEvery = 1 << 30
	s, err := New(opts, sched.NewFIFO(), nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range []*job.Job{
		cpuJob(1, 0, 4, time.Hour),
		gpuJob(2, 0, "resnet50", 3, 2, time.Hour),
		hogJob(3, 0, 8, 70, time.Hour),
	} {
		if err := s.InjectArrival(j); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.RunUntil(time.Minute); err != nil {
		t.Fatal(err)
	}
	if len(s.onNode[0]) != 3 {
		t.Fatalf("%d jobs on node 0, want 3", len(s.onNode[0]))
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatalf("healthy state fails the full audit: %v", err)
	}
	return s
}

// TestAuditsCatchStaleSpeedCache corrupts one running job's speed cache at
// a time — a raw speed one ulp off, for a CPU and for a training job, and
// an optimal core count one off — and checks that the full audit and the
// delta audit over the job's touched node both reject each.
func TestAuditsCatchStaleSpeedCache(t *testing.T) {
	for _, tc := range []struct {
		name    string
		id      job.ID
		corrupt func(r *runningJob)
	}{
		{"cpu job raw speed one ulp off", 1, func(r *runningJob) { r.rawSpeed = math.Nextafter(r.rawSpeed, 0) }},
		{"training job raw speed one ulp off", 2, func(r *runningJob) { r.rawSpeed = math.Nextafter(r.rawSpeed, 2) }},
		{"training job optimal cores one off", 2, func(r *runningJob) { r.optCores++ }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := mixedServiceSim(t)
			tc.corrupt(s.running[tc.id])
			if err := s.CheckInvariants(); err == nil {
				t.Error("full audit missed the corruption")
			}
			if err := s.cluster.SetNodeState(0, cluster.NodeUp); err != nil { // journals node 0
				t.Fatal(err)
			}
			if err := s.checkInvariantsDelta(); err == nil {
				t.Error("delta audit missed the corruption")
			}
		})
	}
}

// speedCacheEntry is one running job's speed cache, the float as its bits.
type speedCacheEntry struct {
	id       job.ID
	raw      uint64
	rawOK    bool
	optCores int
}

func speedCaches(s *Simulator) []speedCacheEntry {
	var out []speedCacheEntry
	for _, r := range s.runOrder {
		if !r.stopped {
			out = append(out, speedCacheEntry{r.job.ID, math.Float64bits(r.rawSpeed), r.rawErr == nil, r.optCores})
		}
	}
	return out
}

// TestResumeRebuildsSpeedCaches checkpoints a CODA run with stragglers,
// throttling and resizes, and requires each resumed simulator's speed
// caches to equal, bit for bit, the uninterrupted run's at the event the
// checkpoint was taken.
func TestResumeRebuildsSpeedCaches(t *testing.T) {
	opts := testOptions()
	opts.Seed = 11
	opts.MaxVirtualTime = 24 * time.Hour
	opts.Faults = chaos.Plan{Seed: 5, Horizon: 12 * time.Hour, StragglersPerDay: 6}
	opts.CheckpointEveryEvents = 150
	type snap struct {
		data   []byte
		caches []speedCacheEntry
	}
	var snaps []snap
	var s *Simulator
	opts.CheckpointSink = func(ck *Checkpoint) error {
		data, err := checkpoint.Encode(ck)
		if err != nil {
			return err
		}
		snaps = append(snaps, snap{data, speedCaches(s)})
		return nil
	}
	s, err := New(opts, codaScheduler(t, opts), ckptWorkload())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(snaps) < 4 {
		t.Fatalf("only %d checkpoints taken", len(snaps))
	}
	compared := 0
	for i, sn := range snaps {
		var ck Checkpoint
		if err := checkpoint.Decode(sn.data, &ck); err != nil {
			t.Fatalf("checkpoint %d: %v", i, err)
		}
		resumed, err := Resume(&ck, codaScheduler(t, opts), nil)
		if err != nil {
			t.Fatalf("resume from checkpoint %d: %v", i, err)
		}
		got := speedCaches(resumed)
		if len(got) != len(sn.caches) {
			t.Fatalf("checkpoint %d: %d running jobs resumed, %d were running", i, len(got), len(sn.caches))
		}
		for k := range got {
			if got[k] != sn.caches[k] {
				t.Fatalf("checkpoint %d: resumed cache %+v, uninterrupted run had %+v", i, got[k], sn.caches[k])
			}
		}
		compared += len(got)
	}
	if compared == 0 {
		t.Fatal("no running job at any checkpoint; the workload does not exercise the caches")
	}
}

// TestResolvedModelsAreCopies mutates the models the simulator and a trace
// source resolved and checks that the catalog's next lookup is unchanged.
func TestResolvedModelsAreCopies(t *testing.T) {
	want, err := perfmodel.Lookup("resnet50")
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(testOptions(), sched.NewFIFO(), nil)
	if err != nil {
		t.Fatal(err)
	}
	m, err := s.model("resnet50")
	if err != nil {
		t.Fatal(err)
	}
	if again, _ := s.model("resnet50"); again != m {
		t.Error("the simulator looked the model up twice")
	}
	m.DefaultBatch, m.MaxBatch = -1, -1
	got, err := perfmodel.Lookup("resnet50")
	if err != nil {
		t.Fatal(err)
	}
	if *got != *want {
		t.Errorf("lookup after mutating the simulator's copy = %+v, want %+v", *got, *want)
	}
}
