package sim

import (
	"encoding/json"
	"errors"
	"strings"
	"testing"
	"time"

	"github.com/coda-repro/coda/internal/chaos"
	"github.com/coda-repro/coda/internal/checkpoint"
	"github.com/coda-repro/coda/internal/core"
	"github.com/coda-repro/coda/internal/job"
	"github.com/coda-repro/coda/internal/metrics"
	"github.com/coda-repro/coda/internal/sched"
	"github.com/coda-repro/coda/internal/trace"
)

// streamTraceConfig is a small diurnal trace whose load keeps the 4-node
// test cluster busy enough that arrivals, faults and dynamic events
// interleave at identical timestamps — the order-sensitivity the streaming
// intake must reproduce exactly.
func streamTraceConfig(seed int64) trace.Config {
	cfg := trace.DefaultConfig()
	cfg.Seed = seed
	cfg.Duration = 18 * time.Hour
	cfg.CPUJobs = 120
	cfg.GPUJobs = 40
	return cfg
}

func streamTestOptions(seed int64) Options {
	opts := testOptions()
	opts.Seed = seed + 1000
	opts.MaxVirtualTime = 3 * 24 * time.Hour
	opts.Faults = chaos.Plan{
		Seed:              seed,
		Horizon:           18 * time.Hour,
		NodeCrashesPerDay: 2,
		StragglersPerDay:  3,
		JobFailureProb:    0.1,
	}
	return opts
}

// runMaterialized executes the slice-intake path.
func runMaterialized(t *testing.T, opts Options, mk func() sched.Scheduler, cfg trace.Config) *Result {
	t.Helper()
	jobs, err := trace.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(opts, mk(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// runStreaming executes the lazy-source intake path.
func runStreaming(t *testing.T, opts Options, mk func() sched.Scheduler, cfg trace.Config) *Result {
	t.Helper()
	src, err := trace.NewSource(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewStreaming(opts, mk(), src)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestStreamingMatchesMaterialized is the reference comparison behind
// every RunSpec, which always streams: for each scheduler the experiments
// replay (FIFO, DRF, static and the full CODA stack), a streaming run must
// produce a byte-identical result dump to a materialized New run over
// trace.Generate of the same config, under an active chaos plan. The second
// shape adds dedicated CPU-only nodes (§VI-G) and raises the bandwidth-hog
// fraction to the 5% of §VI-E's stress trace and the threshold sweep.
func TestStreamingMatchesMaterialized(t *testing.T) {
	mixedOpts := streamTestOptions(17)
	mixedOpts.Cluster.CPUOnlyNodes = 2
	hogHeavy := streamTraceConfig(17)
	hogHeavy.HogFraction = 0.05
	shapes := []struct {
		suffix string
		opts   Options
		cfg    trace.Config
	}{
		{"", streamTestOptions(17), streamTraceConfig(17)},
		{"-cpu-only-hogs", mixedOpts, hogHeavy},
	}
	for _, shape := range shapes {
		opts, cc := shape.opts, shape.opts.Cluster
		schedulers := []struct {
			name string
			mk   func() (sched.Scheduler, error)
		}{
			{"fifo", func() (sched.Scheduler, error) { return sched.NewFIFO(), nil }},
			{"drf", func() (sched.Scheduler, error) {
				return sched.NewDRF(cc.TotalNodes()*cc.CoresPerNode, cc.Nodes*cc.GPUsPerNode)
			}},
			{"static", func() (sched.Scheduler, error) { return sched.NewStatic(cc.CoresPerNode, cc.GPUsPerNode), nil }},
			{"coda", func() (sched.Scheduler, error) { return core.NewForCluster(core.DefaultConfig(), cc) }},
		}
		for _, sc := range schedulers {
			mk := func() sched.Scheduler {
				s, err := sc.mk()
				if err != nil {
					t.Fatal(err)
				}
				return s
			}
			t.Run(sc.name+shape.suffix, func(t *testing.T) {
				want := DumpResult(runMaterialized(t, opts, mk, shape.cfg))
				got := DumpResult(runStreaming(t, opts, mk, shape.cfg))
				if got != want {
					t.Fatalf("streaming diverged from materialized at %s", FirstDiff(want, got))
				}
			})
		}
	}
}

// TestStreamingKillAndResume checkpoints a streaming run mid-stream (with
// most arrivals still inside the Source) and verifies resuming from a spread
// of checkpoints reaches a byte-identical final dump. This is the Source
// cursor protocol end to end: config + draw counts + next-arrival state.
func TestStreamingKillAndResume(t *testing.T) {
	cfg := streamTraceConfig(43)
	opts := streamTestOptions(43)
	opts.CheckpointEveryEvents = 300

	var snaps [][]byte
	opts.CheckpointSink = func(ck *Checkpoint) error {
		data, err := encodeCheckpoint(ck)
		if err != nil {
			return err
		}
		snaps = append(snaps, data)
		return nil
	}

	mk := func() sched.Scheduler { return codaScheduler(t, opts) }
	want := DumpResult(runStreaming(t, opts, mk, cfg))
	if len(snaps) < 3 {
		t.Fatalf("only %d checkpoints taken; workload too small for the property", len(snaps))
	}

	picks := []int{0, len(snaps) / 2, len(snaps) - 1}
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
		if ck.Trace == nil {
			t.Fatalf("checkpoint %d from a streaming run carries no trace cursor", idx)
		}
		resumed, err := Resume(&ck, mk(), nil)
		if err != nil {
			t.Fatalf("resume from checkpoint %d: %v", idx, err)
		}
		got, err := resumed.Run()
		if err != nil {
			t.Fatalf("resumed run %d: %v", idx, err)
		}
		if d := DumpResult(got); d != want {
			t.Fatalf("resume from checkpoint %d/%d diverged at %s", idx, len(snaps), FirstDiff(want, d))
		}
	}
}

// TestNewStreamingRejectsDrainedSource guards the freshness contract.
func TestNewStreamingRejectsDrainedSource(t *testing.T) {
	cfg := streamTraceConfig(7)
	src, err := trace.NewSource(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := src.Next(); err != nil {
		t.Fatal(err)
	}
	opts := testOptions()
	if _, err := NewStreaming(opts, codaScheduler(t, opts), src); err == nil {
		t.Error("NewStreaming accepted a partially drained source")
	}
	if _, err := NewStreaming(opts, codaScheduler(t, opts), nil); err == nil {
		t.Error("NewStreaming accepted a nil source")
	}
}

// TestMaxJobStatsBoundsHistory verifies the keep-first-N bound: per-job
// history stays capped while every aggregate (completions, queue CDFs,
// summary) still observes the full population.
func TestMaxJobStatsBoundsHistory(t *testing.T) {
	cfg := streamTraceConfig(31)
	opts := streamTestOptions(31)
	mk := func() sched.Scheduler { return codaScheduler(t, opts) }

	full := runStreaming(t, opts, mk, cfg)

	bounded := opts
	bounded.MaxJobStats = 10
	capped := runStreaming(t, bounded, mk, cfg)

	if len(capped.Jobs) > 10 {
		t.Errorf("bounded run kept %d job records, want <= 10", len(capped.Jobs))
	}
	if capped.GPUJobsDone != full.GPUJobsDone || capped.CPUJobsDone != full.CPUJobsDone {
		t.Errorf("bounded completions %d/%d, full %d/%d",
			capped.GPUJobsDone, capped.CPUJobsDone, full.GPUJobsDone, full.CPUJobsDone)
	}
	if capped.GPUQueue.Len() != full.GPUQueue.Len() || capped.CPUQueue.Len() != full.CPUQueue.Len() {
		t.Errorf("bounded queue CDFs saw %d/%d samples, full %d/%d",
			capped.GPUQueue.Len(), capped.CPUQueue.Len(), full.GPUQueue.Len(), full.CPUQueue.Len())
	}
	cs, fs := capped.Summarize(), full.Summarize()
	if cs.GPUJobsDone != fs.GPUJobsDone || cs.CPUJobsDone != fs.CPUJobsDone {
		t.Errorf("bounded summary %+v differs from full %+v", cs, fs)
	}
}

// TestCompactCDFs verifies sketch-mode distributions stay within the
// documented bucket resolution of the exact run and survive checkpointing.
func TestCompactCDFs(t *testing.T) {
	cfg := streamTraceConfig(53)
	opts := streamTestOptions(53)
	mk := func() sched.Scheduler { return codaScheduler(t, opts) }

	exact := runStreaming(t, opts, mk, cfg)

	compact := opts
	compact.CompactCDFs = true
	sketched := runStreaming(t, compact, mk, cfg)

	for _, c := range []*metrics.CDF{&sketched.GPUQueue, &sketched.CPUQueue} {
		data, err := json.Marshal(c)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(string(data), `"sketch":true`) {
			t.Fatal("compact run's queue CDFs are not sketches")
		}
	}
	if sketched.GPUQueue.Len() != exact.GPUQueue.Len() {
		t.Errorf("sketch saw %d samples, exact %d", sketched.GPUQueue.Len(), exact.GPUQueue.Len())
	}
	for _, p := range []float64{50, 90, 99} {
		e, s := exact.GPUQueue.Percentile(p), sketched.GPUQueue.Percentile(p)
		if s > e {
			t.Errorf("p%.0f: sketch %v above exact %v (representatives are lower bounds)", p, s, e)
		}
		// A bucket's lower bound is at most 12.5% below any value it holds.
		if float64(s) < float64(e)*0.875-1 {
			t.Errorf("p%.0f: sketch %v more than 12.5%% below exact %v", p, s, e)
		}
	}
}

// TestCheckpointJobBound pins the sortedJobs serialization guard: a
// checkpoint whose pending+retrying population exceeds the bound must fail
// loudly on capture, and an oversized checkpoint must fail on resume. The
// workload is a deterministic overload — every job wants a full node's GPUs,
// so on the 4-node test cluster at most 4 run while the rest pile up
// pending, far past the lowered bound by the first checkpoint.
func TestCheckpointJobBound(t *testing.T) {
	overload := func() []*job.Job {
		jobs := make([]*job.Job, 0, 40)
		for i := 0; i < 40; i++ {
			jobs = append(jobs, gpuJob(job.ID(i+1), time.Duration(i)*time.Second, "resnet50", 8, 4, 2*time.Hour))
		}
		return jobs
	}
	baseOpts := func() Options {
		opts := testOptions()
		opts.MaxVirtualTime = 24 * time.Hour
		opts.CheckpointEveryEvents = 60
		return opts
	}

	t.Run("capture", func(t *testing.T) {
		old := maxCheckpointJobs
		maxCheckpointJobs = 8
		defer func() { maxCheckpointJobs = old }()

		opts := baseOpts()
		opts.CheckpointSink = func(ck *Checkpoint) error { return nil }
		s, err := New(opts, codaScheduler(t, opts), overload())
		if err != nil {
			t.Fatal(err)
		}
		_, err = s.Run()
		if err == nil {
			t.Fatal("run checkpointed more pending jobs than the bound without erroring")
		}
		if !strings.Contains(err.Error(), "serialization bound") {
			t.Fatalf("unexpected error: %v", err)
		}
	})

	t.Run("resume", func(t *testing.T) {
		// Capture one legitimate oversized checkpoint under the default
		// bound, then lower the bound and try to resume from it.
		sentinel := errors.New("stop after first checkpoint")
		var snap []byte
		opts := baseOpts()
		opts.CheckpointSink = func(ck *Checkpoint) error {
			data, err := encodeCheckpoint(ck)
			if err != nil {
				return err
			}
			snap = data
			return sentinel
		}
		s, err := New(opts, codaScheduler(t, opts), overload())
		if err != nil {
			t.Fatal(err)
		}
		if _, err = s.Run(); err == nil || !strings.Contains(err.Error(), sentinel.Error()) {
			t.Fatalf("run did not stop on the sink sentinel: %v", err)
		}
		var ck Checkpoint
		if err := checkpoint.Decode(snap, &ck); err != nil {
			t.Fatal(err)
		}
		if n := len(ck.Pending) + len(ck.Retrying); n <= 8 {
			t.Fatalf("captured checkpoint has only %d pending+retrying jobs; overload too small", n)
		}

		old := maxCheckpointJobs
		maxCheckpointJobs = 8
		defer func() { maxCheckpointJobs = old }()
		if _, err := Resume(&ck, codaScheduler(t, opts), nil); err == nil {
			t.Fatal("Resume accepted a checkpoint past the job bound")
		} else if !strings.Contains(err.Error(), "checkpoint bound") {
			t.Fatalf("unexpected error: %v", err)
		}
	})
}
