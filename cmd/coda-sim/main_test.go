package main

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"github.com/coda-repro/coda/internal/sim"
	"github.com/coda-repro/coda/internal/trace"
)

func tinyArgs(sched string) []string {
	return []string{"-sched", sched, "-days", "0.05", "-cpu-jobs", "30", "-gpu-jobs", "10", "-nodes", "4"}
}

func TestRunAllSchedulers(t *testing.T) {
	for _, s := range []string{"fifo", "drf", "coda"} {
		if err := run(tinyArgs(s)); err != nil {
			t.Errorf("%s: %v", s, err)
		}
	}
}

func TestRunNoEliminatorAndSeries(t *testing.T) {
	args := append(tinyArgs("coda"), "-no-eliminator", "-series")
	if err := run(args); err != nil {
		t.Fatal(err)
	}
}

// writeTrace writes a small generated trace file and returns its path.
func writeTrace(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	cfg := trace.DefaultConfig()
	cfg.CPUJobs, cfg.GPUJobs = 20, 8
	cfg.Duration = cfg.Duration / 100
	jobs, err := trace.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	enc := trace.NewEncoder(f)
	for _, j := range jobs {
		if err := enc.Encode(j); err != nil {
			t.Fatal(err)
		}
	}
	if err := enc.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunTraceReplay(t *testing.T) {
	if err := run([]string{"-sched", "coda", "-trace", writeTrace(t), "-nodes", "4"}); err != nil {
		t.Fatal(err)
	}
}

func TestScalePresets(t *testing.T) {
	// The preset must parse and stream; tiny is the only one cheap enough to
	// actually run here.
	if err := run([]string{"-sched", "fifo", "-scale", "tiny"}); err != nil {
		t.Fatalf("-scale tiny: %v", err)
	}
	if err := run([]string{"-scale", "huge"}); err == nil {
		t.Error("unknown scale preset should fail")
	} else {
		for _, name := range []string{"ci", "tiny", "small", "full", "warehouse"} {
			if !strings.Contains(err.Error(), name) {
				t.Errorf("unknown-scale error does not name preset %q: %v", name, err)
			}
		}
	}
}

func TestRunErrors(t *testing.T) {
	if err := run([]string{"-sched", "quantum"}); err == nil {
		t.Error("unknown scheduler should fail")
	}
	if err := run([]string{"-days", "0"}); err == nil {
		t.Error("zero duration should fail")
	}
	if err := run([]string{"-days", "NaN"}); err == nil || !strings.Contains(err.Error(), "days must be finite and positive") {
		t.Errorf("NaN duration: got %v, want the scale's rejection", err)
	}
	overflow := []string{"-days", "200000", "-cpu-jobs", "10", "-gpu-jobs", "10", "-nodes", "4"}
	if err := run(overflow); err == nil || !strings.Contains(err.Error(), "experiments: days must be at most 106747") {
		t.Errorf("200,000 days: got %v, want the scale's rejection", err)
	}
	if err := run([]string{"-trace", "/nonexistent"}); err == nil {
		t.Error("missing trace should fail")
	}
	if err := run([]string{"-bogus"}); err == nil {
		t.Error("unknown flag should fail")
	}
}

func TestHistoryWarmStart(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "history.json")
	// First run saves history...
	if err := run(append(tinyArgs("coda"), "-history-out", path)); err != nil {
		t.Fatal(err)
	}
	if info, err := os.Stat(path); err != nil || info.Size() == 0 {
		t.Fatalf("history file: %v", err)
	}
	// ...the second run warm-starts from it.
	if err := run(append(tinyArgs("coda"), "-history-in", path)); err != nil {
		t.Fatal(err)
	}
}

func TestHistoryFlagsRequireCODA(t *testing.T) {
	if err := run(append(tinyArgs("fifo"), "-history-in", "x")); err == nil {
		t.Error("-history-in with fifo should fail")
	}
	if err := run(append(tinyArgs("fifo"), "-history-out", "x")); err == nil {
		t.Error("-history-out with fifo should fail")
	}
	if err := run(append(tinyArgs("coda"), "-history-in", "/nonexistent")); err == nil {
		t.Error("missing history file should fail")
	}
}

// captureStdout runs fn with os.Stdout redirected into a buffer.
func captureStdout(t *testing.T, fn func() error) (string, error) {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	defer func() { os.Stdout = old }()
	runErr := fn()
	w.Close()
	out, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	return string(out), runErr
}

// chaosArgs is a small run with rates high enough that the compiled
// schedule deterministically contains crashes and membw dropouts.
func chaosArgs() []string {
	return append(tinyArgs("coda"),
		"-invariants",
		"-fault-seed", "9",
		"-crashes-per-day", "200",
		"-crash-downtime", "15m",
		"-membw-drops-per-day", "200",
		"-membw-drop-duration", "10m",
		"-stragglers-per-day", "20",
		"-job-fail-prob", "0.2",
		"-max-retries", "2",
	)
}

// TestRunChaosWithInvariants is the CLI-level acceptance check: a run with a
// non-empty fault plan and the invariant checker hot completes without a
// violation and reports its fault activity.
func TestRunChaosWithInvariants(t *testing.T) {
	out, err := captureStdout(t, func() error { return run(chaosArgs()) })
	if err != nil {
		t.Fatalf("chaotic run failed (invariant violation?): %v", err)
	}
	if !strings.Contains(out, "faults") || !strings.Contains(out, "fault impact") {
		t.Fatalf("summary missing fault lines:\n%s", out)
	}
	for _, absent := range []string{"0 crashes,", " 0 membw dropouts"} {
		if strings.Contains(out, absent) {
			t.Errorf("plan was supposed to inject crashes and dropouts; got:\n%s", out)
		}
	}
}

// TestRunChaosIsReproducible: the same CLI invocation prints byte-identical
// output both times (modulo the wall-clock timing line).
func TestRunChaosIsReproducible(t *testing.T) {
	strip := func(s string) string {
		var keep []string
		for _, line := range strings.Split(s, "\n") {
			if strings.HasPrefix(line, "virtual time") {
				continue // contains wall-clock elapsed time
			}
			keep = append(keep, line)
		}
		return strings.Join(keep, "\n")
	}
	a, err := captureStdout(t, func() error { return run(chaosArgs()) })
	if err != nil {
		t.Fatal(err)
	}
	b, err := captureStdout(t, func() error { return run(chaosArgs()) })
	if err != nil {
		t.Fatal(err)
	}
	if strip(a) != strip(b) {
		t.Errorf("same-seed CLI runs diverged:\n--- A ---\n%s\n--- B ---\n%s", a, b)
	}
}

// stripVolatile drops the wall-clock line and the resume banner, leaving the
// deterministic summary for byte comparison.
func stripVolatile(s string) string {
	var keep []string
	for _, line := range strings.Split(s, "\n") {
		if strings.HasPrefix(line, "virtual time") || strings.HasPrefix(line, "resumed from") {
			continue
		}
		keep = append(keep, line)
	}
	return strings.Join(keep, "\n")
}

// killArgs is a small chaotic run whose compiled schedule deterministically
// contains controller kills.
func killArgs() []string {
	return append(tinyArgs("coda"),
		"-invariants",
		"-fault-seed", "6",
		"-job-fail-prob", "0.1",
		"-controller-kills-per-day", "100",
	)
}

// TestCheckpointResumeCLI is the end-to-end crash-recovery drill: a run that
// dies on injected controller kills is restarted from its latest checkpoint
// until it completes, and the final summary must match an uninterrupted
// baseline byte for byte.
func TestCheckpointResumeCLI(t *testing.T) {
	dir := t.TempDir()

	want, err := captureStdout(t, func() error { return run(killArgs()) })
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(want, "controller kills") || strings.Contains(want, " 0 controller kills") {
		t.Fatalf("baseline plan injected no controller kills:\n%s", want)
	}

	ckptFlags := []string{"-checkpoint-every", "10m", "-checkpoint-dir", dir, "-exit-on-controller-kill"}
	deaths := 0
	var got string
	for {
		if deaths > 30 {
			t.Fatal("CLI crash-recovery did not converge")
		}
		args := append(killArgs(), ckptFlags...)
		args = append(args, "-survived-kills", strconv.Itoa(deaths))
		if _, statErr := os.Stat(dir); statErr == nil {
			if entries, _ := os.ReadDir(dir); len(entries) > 0 {
				args = append(args, "-resume", dir)
			}
		}
		out, err := captureStdout(t, func() error { return run(args) })
		if errors.Is(err, sim.ErrControllerKilled) {
			deaths++
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		got = out
		break
	}
	if deaths == 0 {
		t.Fatal("controller never died; the drill tested nothing")
	}
	if stripVolatile(got) != stripVolatile(want) {
		t.Errorf("recovered run (after %d deaths) diverged from baseline:\n--- baseline ---\n%s\n--- recovered ---\n%s",
			deaths, want, got)
	}
}

// multiRunArgs is a small chaotic multi-run invocation: the fault plan makes
// each seed's schedule genuinely different, so identical output across
// -parallel settings is not vacuous.
func multiRunArgs(parallel int) []string {
	return append(tinyArgs("coda"),
		"-runs", "3",
		"-parallel", strconv.Itoa(parallel),
		"-fault-seed", "9",
		"-job-fail-prob", "0.2",
		"-crashes-per-day", "50",
		"-invariants",
	)
}

// TestMultiRunParallelMatchesSequential is the CLI face of the runner's
// determinism guarantee: -parallel only changes wall-clock interleaving,
// never a byte of the per-run or merged report.
func TestMultiRunParallelMatchesSequential(t *testing.T) {
	seq, err := captureStdout(t, func() error { return run(multiRunArgs(1)) })
	if err != nil {
		t.Fatal(err)
	}
	par, err := captureStdout(t, func() error { return run(multiRunArgs(4)) })
	if err != nil {
		t.Fatal(err)
	}
	if stripVolatile(seq) != stripVolatile(par) {
		t.Errorf("-parallel changed the report:\n--- sequential ---\n%s\n--- parallel ---\n%s", seq, par)
	}
	// The seeds must actually diverge, or the comparison proves nothing.
	lines := strings.Split(seq, "\n")
	var runLines []string
	for _, l := range lines {
		if strings.HasPrefix(l, "run-") {
			runLines = append(runLines, l)
		}
	}
	if len(runLines) != 3 {
		t.Fatalf("expected 3 per-run lines, got %d:\n%s", len(runLines), seq)
	}
	distinct := false
	for _, l := range runLines[1:] {
		if metricFields(l) != metricFields(runLines[0]) {
			distinct = true
		}
	}
	if !distinct {
		t.Error("all seeds produced identical metrics; the multi-run sweep is not seed-sensitive")
	}
	if !strings.Contains(seq, "=== merged across 3 runs ===") {
		t.Errorf("missing merged section:\n%s", seq)
	}
}

// metricFields drops a per-run line's first three columns (run name, seed,
// fault seed) so only the metrics are compared across runs.
func metricFields(line string) string {
	f := strings.Fields(line)
	if len(f) <= 3 {
		return ""
	}
	return strings.Join(f[3:], " ")
}

// TestMultiRunCheckpointSubdirs: with -runs > 1 every run checkpoints into
// its own run-<i>/ subdirectory, and a single run can later resume from one.
func TestMultiRunCheckpointSubdirs(t *testing.T) {
	dir := t.TempDir()
	args := append(tinyArgs("coda"), "-runs", "2", "-parallel", "2",
		"-checkpoint-every", "10m", "-checkpoint-dir", dir)
	if _, err := captureStdout(t, func() error { return run(args) }); err != nil {
		t.Fatal(err)
	}
	for _, sub := range []string{"run-0", "run-1"} {
		entries, err := os.ReadDir(filepath.Join(dir, sub))
		if err != nil {
			t.Fatalf("%s: %v", sub, err)
		}
		ckpts := 0
		for _, e := range entries {
			if strings.HasSuffix(e.Name(), ".ckpt") {
				ckpts++
			}
		}
		if ckpts == 0 {
			t.Errorf("%s holds no checkpoints", sub)
		}
	}
	// run-0 used the base seeds, so a plain single run can resume from it.
	resume := append(tinyArgs("coda"), "-resume", filepath.Join(dir, "run-0"))
	if _, err := captureStdout(t, func() error { return run(resume) }); err != nil {
		t.Errorf("resuming run-0 from its subdirectory: %v", err)
	}
}

// TestMultiRunFlagValidation: the multi-run path rejects everything tied to
// a single resumable process, and a trace file (it sweeps a generated trace
// only; the file here replays fine under -runs 1).
func TestMultiRunFlagValidation(t *testing.T) {
	bad := [][]string{
		{"-runs", "2", "-trace", writeTrace(t)},
		{"-runs", "0"},
		{"-runs", "-2"},
		{"-runs", "2", "-resume", "somewhere"},
		{"-runs", "2", "-history-in", "x"},
		{"-runs", "2", "-history-out", "x"},
		{"-runs", "2", "-exit-on-controller-kill"},
		{"-runs", "2", "-survived-kills", "1"},
		{"-runs", "2", "-series"},
	}
	for _, extra := range bad {
		if err := run(append(tinyArgs("coda"), extra...)); err == nil {
			t.Errorf("%v should fail", extra)
		}
	}
}

// TestResumeRejectsCorruptCheckpoints: damaged checkpoint files must fail
// loudly before any simulation starts.
func TestResumeRejectsCorruptCheckpoints(t *testing.T) {
	dir := t.TempDir()
	// Produce at least one real checkpoint.
	args := append(tinyArgs("coda"), "-checkpoint-every", "10m", "-checkpoint-dir", dir)
	if _, err := captureStdout(t, func() error { return run(args) }); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil || len(entries) == 0 {
		t.Fatalf("no checkpoints written: %v", err)
	}
	real := filepath.Join(dir, entries[len(entries)-1].Name())
	data, err := os.ReadFile(real)
	if err != nil {
		t.Fatal(err)
	}

	corrupt := filepath.Join(t.TempDir(), "corrupt.ckpt")
	flipped := append([]byte(nil), data...)
	flipped[len(flipped)-1] ^= 0x01
	if err := os.WriteFile(corrupt, flipped, 0o644); err != nil {
		t.Fatal(err)
	}
	truncated := filepath.Join(t.TempDir(), "truncated.ckpt")
	if err := os.WriteFile(truncated, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	garbage := filepath.Join(t.TempDir(), "garbage.ckpt")
	if err := os.WriteFile(garbage, []byte("not a checkpoint"), 0o644); err != nil {
		t.Fatal(err)
	}

	for name, path := range map[string]string{
		"corrupt": corrupt, "truncated": truncated, "garbage": garbage,
		"missing": filepath.Join(dir, "checkpoint-99999999999999999999.ckpt"),
	} {
		if err := run(append(tinyArgs("coda"), "-resume", path)); err == nil {
			t.Errorf("%s checkpoint should fail to resume", name)
		}
	}
	// An empty directory has no checkpoint to resume from.
	if err := run(append(tinyArgs("coda"), "-resume", t.TempDir())); err == nil {
		t.Error("resuming from an empty directory should fail")
	}
}

// TestCheckpointFlagValidation covers the flag plumbing errors.
func TestCheckpointFlagValidation(t *testing.T) {
	if err := run(append(tinyArgs("coda"), "-checkpoint-every", "10m")); err == nil {
		t.Error("-checkpoint-every without -checkpoint-dir should fail")
	}
	dir := t.TempDir()
	hist := filepath.Join(dir, "history.json")
	if err := run(append(tinyArgs("coda"), "-history-out", hist, "-checkpoint-every", "10m", "-checkpoint-dir", dir)); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil || len(entries) < 2 {
		t.Fatalf("expected checkpoints next to history: %v, %d entries", err, len(entries))
	}
	latest := ""
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".ckpt") {
			latest = filepath.Join(dir, e.Name())
		}
	}
	if latest == "" {
		t.Fatal("no checkpoint file written")
	}
	if err := run(append(tinyArgs("coda"), "-resume", latest, "-history-in", hist)); err == nil {
		t.Error("-history-in with -resume should fail")
	}
	if err := run(append(tinyArgs("fifo"), "-resume", latest)); err == nil {
		t.Error("resuming a coda checkpoint under fifo should fail")
	}
}
