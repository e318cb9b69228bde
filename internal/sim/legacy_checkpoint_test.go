package sim

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/coda-repro/coda/internal/checkpoint"
	"github.com/coda-repro/coda/internal/sched"
	"github.com/coda-repro/coda/internal/trace"
)

// legacyFIFOSpec is the run behind testdata/fifo-legacy.ckpt: a streamed
// FIFO trace on a 2-node cluster that backs up, so the checkpoint carries
// queued FIFO jobs, running jobs, pending events and a trace cursor.
func legacyFIFOSpec() RunSpec {
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
		Name:         "legacy-fifo",
		Options:      opts,
		Trace:        &cfg,
		NewScheduler: func() (sched.Scheduler, error) { return sched.NewFIFO(), nil },
	}
}

// TestResumeLegacyFIFOCheckpoint resumes a checkpoint written by an older
// build of legacyFIFOSpec at virtual hour 4. That build's Options still had
// an EventQueue field (set to its since-deleted "calendar" queue) and its
// FIFO state a Window field; both are unknown to today's decoders and must
// be ignored. The resumed run must finish byte-identical to an
// uninterrupted run of the same spec.
func TestResumeLegacyFIFOCheckpoint(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "fifo-legacy.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{`"EventQueue":"calendar"`, `"Window":0`} {
		if !strings.Contains(string(data), field) {
			t.Fatalf("fixture no longer carries %s; it must stay as the older build wrote it", field)
		}
	}
	var ck Checkpoint
	if err := checkpoint.Decode(data, &ck); err != nil {
		t.Fatal(err)
	}
	if ck.Now != 4*time.Hour {
		t.Fatalf("fixture checkpoint at %v, want 4h", ck.Now)
	}
	resumed, err := Resume(&ck, sched.NewFIFO(), nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := resumed.Run()
	if err != nil {
		t.Fatal(err)
	}
	want, err := legacyFIFOSpec().Run()
	if err != nil {
		t.Fatal(err)
	}
	if w, g := DumpResult(want), DumpResult(got); g != w {
		t.Fatalf("legacy checkpoint resume diverged at %s", FirstDiff(w, g))
	}
}
