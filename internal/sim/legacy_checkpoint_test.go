package sim

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/coda-repro/coda/internal/checkpoint"
	"github.com/coda-repro/coda/internal/core"
	"github.com/coda-repro/coda/internal/sched"
	"github.com/coda-repro/coda/internal/trace"
)

// legacySpec is the run behind each testdata/*-legacy.ckpt: a streamed
// trace on a 2-node cluster that backs up, so the checkpoint carries
// queued jobs, running jobs, pending events and a trace cursor.
func legacySpec(name string, newScheduler func(Options) (sched.Scheduler, error)) RunSpec {
	opts := testOptions()
	opts.Cluster.Nodes = 2
	opts.SampleInterval = 10 * time.Minute
	opts.Seed = 3
	opts.MaxJobStats = 8
	opts.CheckpointEvery = time.Hour
	cfg := trace.DefaultConfig()
	cfg.Seed = 3
	cfg.Duration = 12 * time.Hour
	cfg.CPUJobs = 60
	cfg.GPUJobs = 20
	return RunSpec{
		Name:         name,
		Options:      opts,
		Trace:        &cfg,
		NewScheduler: func() (sched.Scheduler, error) { return newScheduler(opts) },
	}
}

func newLegacyFIFO(Options) (sched.Scheduler, error) { return sched.NewFIFO(), nil }

func newLegacyCODA(o Options) (sched.Scheduler, error) {
	return core.New(core.DefaultConfig(), o.Cluster.Nodes, o.Cluster.CoresPerNode, o.Cluster.GPUsPerNode)
}

func newLegacyDRF(o Options) (sched.Scheduler, error) {
	return sched.NewDRF(o.Cluster.Nodes*o.Cluster.CoresPerNode, o.Cluster.Nodes*o.Cluster.GPUsPerNode)
}

// resumeLegacy resumes the checkpoint file, written by an older build of
// legacySpec(name, newScheduler) at virtual time at, and requires the
// resumed run to finish byte-identical to an uninterrupted run of the same
// spec. The fixture must still carry each of fields, the encodings the
// older build wrote and today's decoders ignore.
func resumeLegacy(t *testing.T, file string, at time.Duration, fields []string,
	name string, newScheduler func(Options) (sched.Scheduler, error)) {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", file))
	if err != nil {
		t.Fatal(err)
	}
	for _, field := range fields {
		if !strings.Contains(string(data), field) {
			t.Fatalf("fixture no longer carries %s; it must stay as the older build wrote it", field)
		}
	}
	var ck Checkpoint
	if err := checkpoint.Decode(data, &ck); err != nil {
		t.Fatal(err)
	}
	if ck.Now != at {
		t.Fatalf("fixture checkpoint at %v, want %v", ck.Now, at)
	}
	spec := legacySpec(name, newScheduler)
	s, err := spec.NewScheduler()
	if err != nil {
		t.Fatal(err)
	}
	resumed, err := Resume(&ck, s, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := resumed.Run()
	if err != nil {
		t.Fatal(err)
	}
	want, err := spec.Run()
	if err != nil {
		t.Fatal(err)
	}
	if w, g := DumpResult(want), DumpResult(got); g != w {
		t.Fatalf("legacy checkpoint resume diverged at %s", FirstDiff(w, g))
	}
}

// TestResumeLegacyFIFOCheckpoint resumes a FIFO checkpoint taken at
// virtual hour 4. The build that wrote it still had an Options.EventQueue
// field (set to its since-deleted "calendar" queue) and a FIFO Window
// field.
func TestResumeLegacyFIFOCheckpoint(t *testing.T) {
	resumeLegacy(t, "fifo-legacy.ckpt", 4*time.Hour,
		[]string{`"EventQueue":"calendar"`, `"Window":0`}, "legacy-fifo", newLegacyFIFO)
}

// TestResumeLegacyCODACheckpoint resumes a CODA checkpoint taken at
// virtual hour 10, with jobs of several tenants queued in both arrays and
// charges in both fair-share ledgers. The build that wrote it still
// serialized each accountant's share weights.
func TestResumeLegacyCODACheckpoint(t *testing.T) {
	resumeLegacy(t, "coda-legacy.ckpt", 10*time.Hour,
		[]string{`"Weights":[]`}, "legacy-coda", newLegacyCODA)
}

// TestResumeLegacyDRFCheckpoint resumes a DRF checkpoint taken at virtual
// hour 10, with jobs of several tenants queued and a non-empty fair-share
// ledger. The build that wrote it still serialized the accountant's share
// weights.
func TestResumeLegacyDRFCheckpoint(t *testing.T) {
	resumeLegacy(t, "drf-legacy.ckpt", 10*time.Hour,
		[]string{`"Weights":[]`}, "legacy-drf", newLegacyDRF)
}
