package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
	"time"

	"github.com/coda-repro/coda/internal/trace"
)

func TestGenerateAndStats(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "trace.jsonl")
	if err := run([]string{"-gen", "-days", "1", "-cpu-jobs", "50", "-gpu-jobs", "20", "-o", out}); err != nil {
		t.Fatalf("gen: %v", err)
	}
	info, err := os.Stat(out)
	if err != nil || info.Size() == 0 {
		t.Fatalf("trace file: %v, size %d", err, info.Size())
	}
	if err := run([]string{"-stats", out}); err != nil {
		t.Fatalf("stats: %v", err)
	}
}

func TestStreamMatchesMaterialized(t *testing.T) {
	// -gen spools jobs through the incremental encoder; the file it writes
	// must be byte-identical to the encoder run over the materialized trace.
	streamed := filepath.Join(t.TempDir(), "stream.jsonl")
	if err := run([]string{"-gen", "-days", "1", "-cpu-jobs", "50", "-gpu-jobs", "20", "-seed", "7", "-o", streamed}); err != nil {
		t.Fatalf("gen: %v", err)
	}
	cfg := trace.DefaultConfig()
	cfg.Seed, cfg.Duration, cfg.CPUJobs, cfg.GPUJobs = 7, 24*time.Hour, 50, 20
	jobs, err := trace.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	enc := trace.NewEncoder(&want)
	for _, j := range jobs {
		if err := enc.Encode(j); err != nil {
			t.Fatal(err)
		}
	}
	if err := enc.Flush(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(streamed)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Errorf("streamed trace differs from materialized trace (%d vs %d bytes)", len(got), want.Len())
	}
}

func TestCountOnly(t *testing.T) {
	if err := run([]string{"-count-only", "-days", "1", "-cpu-jobs", "50", "-gpu-jobs", "20"}); err != nil {
		t.Fatalf("count-only: %v", err)
	}
	if err := run([]string{"-count-only", "-days", "0"}); err == nil {
		t.Error("count-only with zero duration should fail")
	}
}

func TestRunErrors(t *testing.T) {
	if err := run(nil); err == nil {
		t.Error("no mode should fail")
	}
	if err := run([]string{"-stats", "/nonexistent/file"}); err == nil {
		t.Error("missing file should fail")
	}
	if err := run([]string{"-gen", "-days", "0"}); err == nil {
		t.Error("zero duration should fail")
	}
	if err := run([]string{"-bogus"}); err == nil {
		t.Error("unknown flag should fail")
	}
}
