package runner_test

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"github.com/coda-repro/coda/internal/chaos"
	"github.com/coda-repro/coda/internal/core"
	"github.com/coda-repro/coda/internal/runner"
	"github.com/coda-repro/coda/internal/sched"
	"github.com/coda-repro/coda/internal/sim"
	"github.com/coda-repro/coda/internal/trace"
)

// codaSpec builds a small but non-trivial CODA run spec: a 12-hour trace
// with enough jobs that scheduling decisions, preemptions and noise draws
// all happen.
func codaSpec(t *testing.T) sim.RunSpec {
	t.Helper()
	cfg := trace.DefaultConfig()
	cfg.CPUJobs, cfg.GPUJobs = 60, 20
	cfg.Duration = 12 * time.Hour
	cfg.Seed = 42
	opts := sim.DefaultOptions()
	opts.Invariants = true
	// Make the runs seed-sensitive: AddSeeds re-seeds both the measurement
	// noise and the fault plan, and a rate-based plan compiles to a
	// different fault schedule per seed. Without this, different seeds can
	// legitimately produce identical schedules and the golden test could
	// not tell a real pass from a degenerate constant dump.
	opts.UtilNoise = 0.1
	opts.Faults = chaos.Plan{
		Seed:              1,
		Horizon:           cfg.Duration,
		NodeCrashesPerDay: 4,
		JobFailureProb:    0.05,
	}
	return sim.RunSpec{
		Name:    "coda",
		Options: opts,
		Trace:   &cfg,
		NewScheduler: func() (sched.Scheduler, error) {
			return core.New(core.DefaultConfig(), opts.Cluster.Nodes, opts.Cluster.CoresPerNode, opts.Cluster.GPUsPerNode)
		},
	}
}

// seedMatrix fans one spec out across the golden-test seeds.
func seedMatrix(t *testing.T, seeds []int64) *runner.Matrix {
	t.Helper()
	m := &runner.Matrix{}
	m.AddSeeds(codaSpec(t), seeds...)
	return m
}

var goldenSeeds = []int64{3, 11, 27}

// TestParallelMatchesSequential is the determinism-under-concurrency
// golden test: the same three-seed matrix executed on a single worker and
// on eight workers must produce byte-identical per-run results — every
// series sample, CDF point and job lifecycle, bit for bit. It also checks
// the dump stays seed-sensitive, so a pass cannot come from a degenerate
// constant dump.
func TestParallelMatchesSequential(t *testing.T) {
	seq, err := runner.Run(context.Background(), seedMatrix(t, goldenSeeds), runner.Options{Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := runner.Run(context.Background(), seedMatrix(t, goldenSeeds), runner.Options{Parallel: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(seq) != len(goldenSeeds) || len(par) != len(goldenSeeds) {
		t.Fatalf("expected %d results, got %d sequential / %d parallel", len(goldenSeeds), len(seq), len(par))
	}
	dumps := make([]string, len(seq))
	for i := range seq {
		a, b := sim.DumpResult(seq[i]), sim.DumpResult(par[i])
		if a != b {
			t.Fatalf("seed %d: parallel run diverged from sequential at %s", goldenSeeds[i], sim.FirstDiff(a, b))
		}
		dumps[i] = a
	}
	if dumps[0] == dumps[1] {
		t.Error("different seeds produced identical runs; the dump is not sensitive enough")
	}
}

// TestRunResultsInMatrixOrder: results land at their matrix index
// regardless of completion order, and names follow the AddSeeds scheme.
func TestRunResultsInMatrixOrder(t *testing.T) {
	m := seedMatrix(t, goldenSeeds)
	wantNames := []string{"coda/seed=3", "coda/seed=11", "coda/seed=27"}
	for i, name := range m.Names() {
		if name != wantNames[i] {
			t.Errorf("cell %d named %q, want %q", i, name, wantNames[i])
		}
	}
	results, err := runner.Run(context.Background(), m, runner.Options{Parallel: 8})
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range results {
		if res == nil {
			t.Fatalf("cell %d has no result", i)
		}
		// Each cell got its own seed, so each run is distinct.
		for j := i + 1; j < len(results); j++ {
			if sim.DumpResult(res) == sim.DumpResult(results[j]) {
				t.Errorf("cells %d and %d produced identical results despite different seeds", i, j)
			}
		}
	}
}

// failingSpec is a cell whose scheduler factory fails.
func failingSpec(t *testing.T, name string) sim.RunSpec {
	t.Helper()
	sp := codaSpec(t)
	sp.Name = name
	sp.NewScheduler = func() (sched.Scheduler, error) {
		return nil, errors.New("boom: " + name)
	}
	return sp
}

// TestRunFailFast: with one worker, a failing first cell stops the rest of
// the matrix from executing, and the error names the failed cell.
func TestRunFailFast(t *testing.T) {
	m := &runner.Matrix{}
	m.Add(failingSpec(t, "bad"))
	m.Add(codaSpec(t))
	m.Add(codaSpec(t))
	results, err := runner.Run(context.Background(), m, runner.Options{Parallel: 1})
	if err == nil {
		t.Fatal("expected an error")
	}
	if !strings.Contains(err.Error(), `run "bad"`) || !strings.Contains(err.Error(), "boom: bad") {
		t.Errorf("error does not identify the failed cell: %v", err)
	}
	for i, res := range results {
		if res != nil {
			t.Errorf("cell %d ran to completion after the matrix failed fast", i)
		}
	}
}

// TestRunErrorAggregation: cells that fail while already in flight all
// surface in the joined error, each wrapped with its cell name.
func TestRunErrorAggregation(t *testing.T) {
	m := &runner.Matrix{}
	m.Add(failingSpec(t, "bad-a"))
	m.Add(failingSpec(t, "bad-b"))
	_, err := runner.Run(context.Background(), m, runner.Options{Parallel: 1})
	if err == nil {
		t.Fatal("expected an error")
	}
	// With one worker, fail-fast guarantees at least the first failure is
	// reported; the second cell is drained, not run.
	if !strings.Contains(err.Error(), "bad-a") {
		t.Errorf("first failure missing from joined error: %v", err)
	}
}

// TestRunCancelledContext: a cancelled context stops the matrix before any
// cell runs and surfaces context.Canceled.
func TestRunCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	results, err := runner.Run(ctx, seedMatrix(t, goldenSeeds), runner.Options{Parallel: 2})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	for i, res := range results {
		if res != nil {
			t.Errorf("cell %d ran despite pre-cancelled context", i)
		}
	}
}

// TestRunAllKeepsGoing: a failing cell in the middle of the matrix does not
// stop the surrounding cells — every cell gets either a result or an error,
// never both, and failures stay at their matrix index.
func TestRunAllKeepsGoing(t *testing.T) {
	m := &runner.Matrix{}
	m.Add(codaSpec(t))
	m.Add(failingSpec(t, "bad"))
	m.Add(codaSpec(t))
	results, errs := runner.RunAll(context.Background(), m, runner.Options{Parallel: 1})
	if len(results) != 3 || len(errs) != 3 {
		t.Fatalf("got %d results / %d errors, want 3 / 3", len(results), len(errs))
	}
	for _, i := range []int{0, 2} {
		if errs[i] != nil {
			t.Errorf("cell %d unexpectedly failed: %v", i, errs[i])
		}
		if results[i] == nil {
			t.Errorf("cell %d has no result despite the matrix continuing past the failure", i)
		}
	}
	if errs[1] == nil || results[1] != nil {
		t.Fatalf("failing cell: result=%v err=%v, want nil result and an error", results[1], errs[1])
	}
	if !strings.Contains(errs[1].Error(), `run "bad"`) || !strings.Contains(errs[1].Error(), "boom: bad") {
		t.Errorf("error does not identify the failed cell: %v", errs[1])
	}
}

// TestRunAllMatchesRun: on an all-healthy matrix, RunAll produces the same
// byte-identical results as Run.
func TestRunAllMatchesRun(t *testing.T) {
	seq, err := runner.Run(context.Background(), seedMatrix(t, goldenSeeds), runner.Options{Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	all, errs := runner.RunAll(context.Background(), seedMatrix(t, goldenSeeds), runner.Options{Parallel: 8})
	for i, e := range errs {
		if e != nil {
			t.Fatalf("cell %d failed: %v", i, e)
		}
	}
	for i := range seq {
		a, b := sim.DumpResult(seq[i]), sim.DumpResult(all[i])
		if a != b {
			t.Fatalf("seed %d: RunAll diverged from Run at %s", goldenSeeds[i], sim.FirstDiff(a, b))
		}
	}
}

// TestRunAllCancelledContext: a pre-cancelled context marks every cell with
// the context's error instead of leaving silent nil/nil holes.
func TestRunAllCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	results, errs := runner.RunAll(ctx, seedMatrix(t, goldenSeeds), runner.Options{Parallel: 2})
	for i := range results {
		if results[i] != nil {
			t.Errorf("cell %d ran despite pre-cancelled context", i)
		}
		if !errors.Is(errs[i], context.Canceled) {
			t.Errorf("cell %d error = %v, want context.Canceled", i, errs[i])
		}
	}
}

// TestRunEmptyMatrix: an empty matrix succeeds with no results.
func TestRunEmptyMatrix(t *testing.T) {
	results, err := runner.Run(context.Background(), &runner.Matrix{}, runner.Options{})
	if err != nil || len(results) != 0 {
		t.Fatalf("empty matrix: results=%v err=%v", results, err)
	}
}

// TestMatrixAddIsolates: Add deep-copies the spec, so mutating the
// template after Add (options, fault plan, trace config) cannot perturb
// the cell.
func TestMatrixAddIsolates(t *testing.T) {
	want, err := codaSpec(t).Run()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		shared string
		mutate func(*sim.RunSpec)
	}{
		{"Options", func(sp *sim.RunSpec) { sp.Options.Seed = 999 }},
		{"the trace config", func(sp *sim.RunSpec) { sp.Trace.Seed = 999 }},
	} {
		template := codaSpec(t)
		m := &runner.Matrix{}
		m.Add(template)
		tc.mutate(&template)
		got, err := runner.Run(context.Background(), m, runner.Options{Parallel: 1})
		if err != nil {
			t.Fatal(err)
		}
		if w, g := sim.DumpResult(want), sim.DumpResult(got[0]); g != w {
			t.Errorf("cell shares %s with the template: %s", tc.shared, sim.FirstDiff(w, g))
		}
	}
}
