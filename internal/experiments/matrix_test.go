package experiments

import (
	"fmt"
	"testing"
	"time"

	"github.com/coda-repro/coda/internal/core"
	"github.com/coda-repro/coda/internal/sim"
)

func TestFormatDuration(t *testing.T) {
	if got := FormatDuration(90*time.Second + 400*time.Millisecond); got != "1m30s" {
		t.Errorf("FormatDuration = %q, want 1m30s", got)
	}
}

// matrixScale is an even smaller operating point than testScale for the
// tests that execute several extra full matrices.
func matrixScale() Scale {
	return Scale{Seed: 2, Days: 0.2, CPUJobs: 500, GPUJobs: 166, Nodes: 80}
}

func TestComparisonMatrixShape(t *testing.T) {
	m, err := ComparisonMatrix(testScale())
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"fifo", "drf", "coda"}
	names := m.Names()
	if len(names) != len(want) {
		t.Fatalf("matrix has %d cells, want %d", len(names), len(want))
	}
	for i, n := range names {
		if n != want[i] {
			t.Errorf("cell %d named %q, want %q", i, n, want[i])
		}
	}
	for i, policy := range want {
		if err := testScale().Spec(policy, core.DefaultConfig()).Validate(); err != nil {
			t.Errorf("cell %d invalid: %v", i, err)
		}
	}
}

func TestSetParallelism(t *testing.T) {
	defer SetParallelism(0)
	SetParallelism(3)
	if parallelism != 3 {
		t.Fatalf("parallelism = %d, want 3", parallelism)
	}
	SetParallelism(-5)
	if parallelism != 0 {
		t.Fatalf("negative parallelism should clamp to 0, got %d", parallelism)
	}
}

func TestRunMultiSeedComparison(t *testing.T) {
	sc := matrixScale()
	seeds := []int64{101, 102}
	msc, err := RunMultiSeedComparison(sc, seeds)
	if err != nil {
		t.Fatal(err)
	}
	for _, agg := range []*sim.Merged{msc.FIFO, msc.DRF, msc.CODA} {
		if agg.Runs != len(seeds) {
			t.Errorf("%s merged %d runs, want %d", agg.Scheduler, agg.Runs, len(seeds))
		}
		if agg.GPUQueue.Len() == 0 || agg.CPUQueue.Len() == 0 {
			t.Errorf("%s has empty pooled queue CDFs", agg.Scheduler)
		}
		if agg.GPUUtil <= 0 || agg.GPUUtil > 1 {
			t.Errorf("%s mean GPU util %g out of (0, 1]", agg.Scheduler, agg.GPUUtil)
		}
	}
	if msc.CODA.Scheduler != "coda" || msc.FIFO.Scheduler != "fifo" || msc.DRF.Scheduler != "drf" {
		t.Errorf("scheduler labels scrambled: %q %q %q", msc.FIFO.Scheduler, msc.DRF.Scheduler, msc.CODA.Scheduler)
	}
	if _, err := RunMultiSeedComparison(sc, nil); err == nil {
		t.Error("empty seed list should fail")
	}
}

// TestScaleCurve replays one trace (fixed load) under CODA on two cluster
// sizes: half the cluster cannot start a larger share of GPU jobs
// immediately than the full one.
func TestScaleCurve(t *testing.T) {
	sc := matrixScale()
	var immediate []float64
	for _, nodes := range []int{40, 80} {
		sc.Nodes = nodes
		spec := sc.Spec("coda", core.DefaultConfig())
		spec.Name = fmt.Sprintf("nodes=%d", nodes)
		res, err := spec.Run()
		if err != nil {
			t.Fatal(err)
		}
		if util := sim.WindowMean(&res.GPUUtilSeries, res.LastArrival); util <= 0 || res.EndTime <= 0 {
			t.Errorf("%s degenerate: util=%g makespan=%v", spec.Name, util, res.EndTime)
		}
		immediate = append(immediate, res.GPUQueue.FractionAtMost(0))
	}
	if immediate[0] > immediate[1] {
		t.Errorf("40-node immediate-start %g above 80-node %g under fixed load", immediate[0], immediate[1])
	}
}

func TestGeneralityMatrixShape(t *testing.T) {
	m, err := GeneralityMatrix(testScale(), 8)
	if err != nil {
		t.Fatal(err)
	}
	if m.Len() != 3 {
		t.Fatalf("generality matrix has %d cells, want 3", m.Len())
	}
	if _, err := GeneralityMatrix(testScale(), -1); err == nil {
		t.Error("negative cpu-only nodes should fail")
	}
}

func TestSec6EMatrixShape(t *testing.T) {
	m, err := Sec6EMatrix(testScale())
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"eliminator-off", "stress-on", "stress-off"}
	for i, n := range m.Names() {
		if n != want[i] {
			t.Errorf("cell %d named %q, want %q", i, n, want[i])
		}
	}
}
