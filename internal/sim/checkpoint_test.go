package sim

import (
	"errors"
	"strings"
	"testing"
	"time"

	"github.com/coda-repro/coda/internal/chaos"
	"github.com/coda-repro/coda/internal/checkpoint"
	"github.com/coda-repro/coda/internal/core"
	"github.com/coda-repro/coda/internal/job"
	"github.com/coda-repro/coda/internal/sched"
)

// ckptWorkload builds a fresh job list per call (runs mutate job state, so
// baseline and resumed runs must never share pointers). The mix covers GPU
// training across model categories, CPU jobs and a bandwidth hog, spread
// over ~6 hours so mid-run kill points land in dense scheduling activity.
func ckptWorkload() []*job.Job {
	models := []string{"resnet50", "transformer", "deepspeech", "vgg16"}
	var jobs []*job.Job
	for i := 0; i < 16; i++ {
		jobs = append(jobs, gpuJob(job.ID(1000+i), time.Duration(i)*22*time.Minute,
			models[i%len(models)], 3+i%4, 1+i%2, time.Duration(90+13*(i%5))*time.Minute))
	}
	for i := 0; i < 30; i++ {
		jobs = append(jobs, cpuJob(job.ID(2000+i), time.Duration(i)*11*time.Minute,
			3+i%5, time.Duration(60+9*(i%7))*time.Minute))
	}
	jobs = append(jobs, hogJob(3000, 80*time.Minute, 6, 70, 2*time.Hour))
	return jobs
}

// contendedWorkload adds a second training tenant to ckptWorkload whose
// jobs want three or four GPUs each and arrive twice as fast, so they queue
// behind the smaller jobs and backfill holds have something to hold.
func contendedWorkload() []*job.Job {
	models := []string{"vgg16", "resnet50", "transformer", "deepspeech"}
	jobs := ckptWorkload()
	for i := 0; i < 16; i++ {
		j := gpuJob(job.ID(4000+i), time.Duration(i)*11*time.Minute,
			models[i%len(models)], 2+i%3, 3+i%2, time.Duration(120+17*(i%5))*time.Minute)
		j.Tenant = 4
		jobs = append(jobs, j)
	}
	return jobs
}

func codaScheduler(t *testing.T, opts Options) sched.Scheduler {
	t.Helper()
	s, err := core.New(core.DefaultConfig(), opts.Cluster.Nodes, opts.Cluster.CoresPerNode, opts.Cluster.GPUsPerNode)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// encodeCheckpoint is the sink contract in miniature: the *Checkpoint shares
// memory with the live run, so serialize inside the sink call.
func encodeCheckpoint(ck *Checkpoint) ([]byte, error) { return checkpoint.Encode(ck) }

// TestResumeEquivalence is the headline metamorphic property: a run
// checkpointed every K events and resumed from ANY of those checkpoints must
// finish with a byte-identical Result dump. It covers the CODA scheduler
// (history log, multi-array ledgers, allocator search, eliminator) under an
// active chaos plan, so every serialized subsystem is exercised.
func TestResumeEquivalence(t *testing.T) {
	opts := testOptions()
	opts.Seed = 11
	opts.MaxVirtualTime = 2 * 24 * time.Hour
	opts.Faults = chaos.Plan{
		Seed:              5,
		Horizon:           12 * time.Hour,
		NodeCrashesPerDay: 3,
		StragglersPerDay:  4,
		JobFailureProb:    0.12,
	}
	opts.CheckpointEveryEvents = 400

	var snaps [][]byte
	opts.CheckpointSink = func(ck *Checkpoint) error {
		data, err := encodeCheckpoint(ck)
		if err != nil {
			return err
		}
		snaps = append(snaps, data)
		return nil
	}

	s, err := New(opts, codaScheduler(t, opts), ckptWorkload())
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	want := dumpResult(res)
	if len(snaps) < 3 {
		t.Fatalf("only %d checkpoints taken; workload too small for the property", len(snaps))
	}

	// Resume from a spread of checkpoints: the first, the last, and a few in
	// between. Each must reach the same final state bit for bit.
	picks := []int{0, len(snaps) / 4, len(snaps) / 2, 3 * len(snaps) / 4, len(snaps) - 1}
	seen := map[int]bool{}
	for _, idx := range picks {
		if seen[idx] {
			continue
		}
		seen[idx] = true
		var ck Checkpoint
		if err := checkpoint.Decode(snaps[idx], &ck); err != nil {
			t.Fatalf("checkpoint %d: %v", idx, err)
		}
		resumed, err := Resume(&ck, codaScheduler(t, opts), nil)
		if err != nil {
			t.Fatalf("resume from checkpoint %d: %v", idx, err)
		}
		got, err := resumed.Run()
		if err != nil {
			t.Fatalf("resumed run %d: %v", idx, err)
		}
		if d := dumpResult(got); d != want {
			t.Fatalf("resume from checkpoint %d/%d diverged at %s", idx, len(snaps), firstDiff(want, d))
		}
	}
}

// TestResumeEquivalenceFIFO covers the non-CODA Checkpointer paths and the
// time-based cadence: FIFO as configured by default, and FIFO and DRF with
// SLURM-backfill holds (ReserveDepth), whose depth travels in their
// checkpoints. Each reservation case must also dump differently from the
// same run without holds, which proves holds were placed.
func TestResumeEquivalenceFIFO(t *testing.T) {
	opts := testOptions()
	opts.Seed = 3
	opts.MaxVirtualTime = 2 * 24 * time.Hour
	opts.CheckpointEvery = 45 * time.Minute
	newFIFO := func(_ *testing.T, depth int) sched.Scheduler {
		f := sched.NewFIFO()
		f.ReserveDepth = depth
		return f
	}
	newDRF := func(t *testing.T, depth int) sched.Scheduler {
		cc := opts.Cluster
		d, err := sched.NewDRF(cc.TotalNodes()*cc.CoresPerNode, cc.Nodes*cc.GPUsPerNode)
		if err != nil {
			t.Fatal(err)
		}
		d.ReserveDepth = depth
		return d
	}
	for _, tc := range []struct {
		name     string
		depth    int
		newSched func(t *testing.T, depth int) sched.Scheduler
		workload func() []*job.Job
	}{
		{"fifo", 0, newFIFO, ckptWorkload},
		{"fifo-reserve", 16, newFIFO, contendedWorkload},
		{"drf-reserve", 16, newDRF, contendedWorkload},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := opts
			var snaps [][]byte
			opts.CheckpointSink = func(ck *Checkpoint) error {
				data, err := encodeCheckpoint(ck)
				if err != nil {
					return err
				}
				snaps = append(snaps, data)
				return nil
			}
			want := dumpResult(mustRun(t, opts, tc.newSched(t, tc.depth), tc.workload()))
			if len(snaps) == 0 {
				t.Fatal("no checkpoints taken")
			}
			var ck Checkpoint
			if err := checkpoint.Decode(snaps[len(snaps)/2], &ck); err != nil {
				t.Fatal(err)
			}
			// The checkpoint restores the depth: resume with none set.
			resumed, err := Resume(&ck, tc.newSched(t, 0), nil)
			if err != nil {
				t.Fatal(err)
			}
			got, err := resumed.Run()
			if err != nil {
				t.Fatal(err)
			}
			if d := dumpResult(got); d != want {
				t.Fatalf("resume diverged at %s", firstDiff(want, d))
			}
			if tc.depth > 0 {
				opts.CheckpointSink = nil
				opts.CheckpointEvery = 0
				if d := dumpResult(mustRun(t, opts, tc.newSched(t, 0), tc.workload())); d == want {
					t.Fatal("the run with holds dumps the same as without: no hold was placed")
				}
			}
		})
	}
}

// runWithRecovery is the crash-recovery harness: it runs until completion,
// restarting from the latest checkpoint (or from scratch, if the controller
// died before the first checkpoint) every time fault injection kills the
// scheduler. survived counts total deaths so each restarted instance shrugs
// off exactly the kills its predecessors already died to — the kill events
// replay deterministically from the checkpoint.
func runWithRecovery(t *testing.T, opts Options, mkSched func() sched.Scheduler) (*Result, int) {
	t.Helper()
	var latest []byte
	sink := func(ck *Checkpoint) error {
		data, err := encodeCheckpoint(ck)
		if err != nil {
			return err
		}
		latest = data
		return nil
	}
	opts.CheckpointSink = sink
	survived := 0
	for restarts := 0; ; restarts++ {
		if restarts > 25 {
			t.Fatal("crash-recovery harness did not converge")
		}
		var s *Simulator
		var err error
		if latest == nil {
			if s, err = New(opts, mkSched(), ckptWorkload()); err != nil {
				t.Fatal(err)
			}
		} else {
			var ck Checkpoint
			if err := checkpoint.Decode(latest, &ck); err != nil {
				t.Fatal(err)
			}
			if s, err = Resume(&ck, mkSched(), sink); err != nil {
				t.Fatal(err)
			}
		}
		s.SetSurvivedKills(survived)
		res, err := s.Run()
		if errors.Is(err, ErrControllerKilled) {
			survived++
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		return res, survived
	}
}

// TestKillAndResumeMatrix is the acceptance matrix: for 3 seeds x 2 fault
// plans x 3 kill points, a run whose controller is killed and restarted from
// the latest checkpoint must produce a Result byte-identical to the same run
// left uninterrupted (the baseline counts the same kills without dying, so
// the two observe identical fault streams).
func TestKillAndResumeMatrix(t *testing.T) {
	seeds := []int64{1, 2, 3}
	// Kill points: before the first 30-minute checkpoint (fresh-restart
	// path), mid-run, and deep into the run.
	killPoints := []time.Duration{25 * time.Minute, 150 * time.Minute, 5 * time.Hour}
	plans := []struct {
		name string
		plan chaos.Plan
	}{
		{"job-failures", chaos.Plan{Seed: 9, Horizon: 12 * time.Hour, JobFailureProb: 0.15}},
		{"crashes-and-stragglers", chaos.Plan{
			Seed: 17, Horizon: 12 * time.Hour,
			NodeCrashesPerDay: 4, StragglersPerDay: 5, JobFailureProb: 0.05,
		}},
	}

	for _, seed := range seeds {
		for _, pl := range plans {
			for _, kp := range killPoints {
				plan := pl.plan
				plan.Faults = append(append([]chaos.Fault(nil), pl.plan.Faults...),
					chaos.Fault{At: kp, Kind: chaos.KindControllerKill})

				opts := testOptions()
				opts.Seed = seed
				opts.MaxVirtualTime = 2 * 24 * time.Hour
				opts.Faults = plan
				opts.CheckpointEvery = 30 * time.Minute

				// Baseline: same plan, kill only counted, never fatal.
				base := opts
				base.ExitOnControllerKill = false
				want := dumpResult(mustRun(t, base, codaScheduler(t, base), ckptWorkload()))

				hard := opts
				hard.ExitOnControllerKill = true
				got, deaths := runWithRecovery(t, hard, func() sched.Scheduler { return codaScheduler(t, hard) })
				if deaths == 0 {
					t.Errorf("seed %d plan %s kill@%v: controller never died; kill point outside the run",
						seed, pl.name, kp)
				}
				if d := dumpResult(got); d != want {
					t.Errorf("seed %d plan %s kill@%v: recovered run diverged at %s",
						seed, pl.name, kp, firstDiff(want, d))
				}
			}
		}
	}
}

// TestResumeRejectsBadCheckpoints covers the directed failure modes: a
// checkpoint resumed under the wrong policy, with an unknown event kind, or
// with mis-sized state must fail loudly before the run starts.
func TestResumeRejectsBadCheckpoints(t *testing.T) {
	opts := testOptions()
	opts.Seed = 4
	opts.CheckpointEveryEvents = 200
	var snap []byte
	opts.CheckpointSink = func(ck *Checkpoint) error {
		if snap == nil {
			data, err := encodeCheckpoint(ck)
			if err != nil {
				return err
			}
			snap = data
		}
		return nil
	}
	s, err := New(opts, sched.NewFIFO(), ckptWorkload())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if snap == nil {
		t.Fatal("no checkpoint captured")
	}
	decode := func(t *testing.T) *Checkpoint {
		t.Helper()
		var ck Checkpoint
		if err := checkpoint.Decode(snap, &ck); err != nil {
			t.Fatal(err)
		}
		return &ck
	}

	t.Run("wrong scheduler", func(t *testing.T) {
		ck := decode(t)
		if _, err := Resume(ck, codaScheduler(t, opts), nil); err == nil {
			t.Error("resume under a different policy should fail")
		}
	})
	t.Run("nil scheduler", func(t *testing.T) {
		if _, err := Resume(decode(t), nil, nil); err == nil {
			t.Error("nil scheduler should fail")
		}
	})
	t.Run("unknown event kind", func(t *testing.T) {
		ck := decode(t)
		if len(ck.Events) == 0 {
			t.Skip("checkpoint has no events")
		}
		ck.Events[0].Kind = 99
		if _, err := Resume(ck, sched.NewFIFO(), nil); err == nil {
			t.Error("unknown event kind should fail")
		}
	})
	t.Run("mis-sized pcie state", func(t *testing.T) {
		ck := decode(t)
		ck.PcieLoad = ck.PcieLoad[:1]
		if _, err := Resume(ck, sched.NewFIFO(), nil); err == nil {
			t.Error("mis-sized pcie load should fail")
		}
	})
	t.Run("missing results", func(t *testing.T) {
		ck := decode(t)
		ck.Results = nil
		if _, err := Resume(ck, sched.NewFIFO(), nil); err == nil {
			t.Error("missing results should fail")
		}
	})
	t.Run("running job on an unknown node", func(t *testing.T) {
		ck := decode(t)
		if len(ck.Running) == 0 {
			t.Fatal("checkpoint has no running jobs")
		}
		ck.Running[0].Alloc.NodeIDs[0] = len(ck.PcieLoad)
		if _, err := Resume(ck, sched.NewFIFO(), nil); err == nil {
			t.Error("a running job placed on a node past the cluster should fail")
		}
	})
}

// TestResumeRejectsBadEventKeys hand-edits the event list of a mid-run
// checkpoint. Resume must refuse a repeated (at, seq) key, a descending
// pair, an event due before the checkpoint's time and a sequence number the
// checkpoint had not drawn yet. Such a list would restore keys that are
// not a strict total order, and its pop order would then depend on the
// heap's layout. The unedited checkpoint must still resume.
func TestResumeRejectsBadEventKeys(t *testing.T) {
	opts := testOptions()
	opts.Seed = 4
	opts.CheckpointEveryEvents = 200
	var snap []byte
	opts.CheckpointSink = func(ck *Checkpoint) error {
		if snap == nil && len(ck.Events) >= 3 && ck.Now > 0 {
			data, err := encodeCheckpoint(ck)
			if err != nil {
				return err
			}
			snap = data
		}
		return nil
	}
	s, err := New(opts, sched.NewFIFO(), ckptWorkload())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if snap == nil {
		t.Fatal("no checkpoint with three pending events captured")
	}
	for _, tc := range []struct {
		name string
		edit func(ck *Checkpoint)
		want string // "" when resume must succeed
	}{
		{"unedited", func(*Checkpoint) {}, ""},
		{"repeated key", func(ck *Checkpoint) {
			ck.Events[1].At, ck.Events[1].Seq = ck.Events[0].At, ck.Events[0].Seq
		}, "event 1 "},
		{"descending pair", func(ck *Checkpoint) {
			ck.Events[1], ck.Events[2] = ck.Events[2], ck.Events[1]
		}, "event 2 "},
		{"due before the checkpoint", func(ck *Checkpoint) {
			ck.Events[0].At = ck.Now - time.Millisecond
		}, "event 0 "},
		{"sequence number not yet drawn", func(ck *Checkpoint) {
			ck.Events[len(ck.Events)-1].Seq = ck.Seq
		}, "sequence number"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var ck Checkpoint
			if err := checkpoint.Decode(snap, &ck); err != nil {
				t.Fatal(err)
			}
			tc.edit(&ck)
			_, err := Resume(&ck, sched.NewFIFO(), nil)
			switch {
			case tc.want == "" && err != nil:
				t.Fatalf("resume failed: %v", err)
			case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
				t.Fatalf("resume error %v, want one containing %q", err, tc.want)
			}
		})
	}
}

// TestCheckpointCadenceValidation pins the Options.Validate additions.
func TestCheckpointCadenceValidation(t *testing.T) {
	opts := DefaultOptions()
	opts.CheckpointEvery = -time.Second
	if err := opts.Validate(); err == nil {
		t.Error("negative checkpoint cadence should fail validation")
	}
	opts = DefaultOptions()
	opts.CheckpointEveryEvents = -1
	if err := opts.Validate(); err == nil {
		t.Error("negative event cadence should fail validation")
	}
}
