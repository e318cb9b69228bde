package soak

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/coda-repro/coda/internal/experiments"
	"github.com/coda-repro/coda/internal/metrics"
	"github.com/coda-repro/coda/internal/sim"
)

// TestSameInputsBitIdentical is the first metamorphic claim: the same
// (recipe, seed, scale) triple built and run twice produces bit-identical
// results — every series sample, CDF point and job lifecycle.
func TestSameInputsBitIdentical(t *testing.T) {
	for _, r := range Recipes() {
		a, err := r.Build(1, experiments.CIScale())
		if err != nil {
			t.Fatalf("%s: %v", r.Name, err)
		}
		b, err := r.Build(1, experiments.CIScale())
		if err != nil {
			t.Fatalf("%s: %v", r.Name, err)
		}
		resA, err := a.Run()
		if err != nil {
			t.Fatalf("%s: %v", r.Name, err)
		}
		resB, err := b.Run()
		if err != nil {
			t.Fatalf("%s: %v", r.Name, err)
		}
		da, db := sim.DumpResult(resA), sim.DumpResult(resB)
		if da != db {
			t.Errorf("%s: same inputs diverged at %s", r.Name, sim.FirstDiff(da, db))
		}
	}
}

// TestReportBytesStable: the same grid encoded twice is byte-identical —
// the property the golden verdict file and CI diffing rest on.
func TestReportBytesStable(t *testing.T) {
	encode := func() []byte {
		rep, err := Grid(context.Background(), []string{"quiet-baseline", "controller-kill-storm"},
			[]int64{1}, experiments.CIScale(), 2, nil)
		if err != nil {
			t.Fatal(err)
		}
		data, err := rep.Encode()
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	a, b := encode(), encode()
	if string(a) != string(b) {
		t.Fatal("the same grid encoded to different report bytes")
	}
}

// hexFloat renders a float bit-exactly (mirrors the dump format's idiom).
func hexFloat(v float64) string { return strconv.FormatFloat(v, 'x', -1, 64) }

// seriesPrefix renders a series' samples strictly before cutoff, bit-exact.
func seriesPrefix(s *metrics.Series, cutoff time.Duration) string {
	var b strings.Builder
	times, vals := s.Times(), s.Values()
	for i := range vals {
		if times[i] >= cutoff {
			break
		}
		fmt.Fprintf(&b, " %d=%s", times[i], hexFloat(vals[i]))
	}
	return b.String()
}

// TestDifferentChaosSeedDivergesOnlyAfterFirstFault is the second
// metamorphic claim, in the shape of the chaos-layer divergence test:
// changing only the fault-plan seed of a built recipe leaves the run
// bit-identical strictly before the first injected fault of either
// schedule, and visibly different overall. straggler-cascade is the
// subject because its chaos is purely schedule-driven (no per-job failure
// draws whose kill times depend on job execution).
func TestDifferentChaosSeedDivergesOnlyAfterFirstFault(t *testing.T) {
	r, err := Lookup("straggler-cascade")
	if err != nil {
		t.Fatal(err)
	}
	specA, err := r.Build(1, experiments.CIScale())
	if err != nil {
		t.Fatal(err)
	}
	specB := specA.Clone()
	specB.Options.Faults.Seed = 99 // the ONLY difference

	nodes := specA.Options.Cluster.TotalNodes()
	firstFault := func(sp sim.RunSpec) time.Duration {
		faults, err := sp.Options.Faults.Compile(nodes)
		if err != nil {
			t.Fatal(err)
		}
		if len(faults) == 0 {
			t.Fatal("plan compiled to no faults; the recipe no longer injects anything")
		}
		return faults[0].At
	}
	cut := firstFault(specA)
	if b := firstFault(specB); b < cut {
		cut = b
	}

	resA, err := specA.Run()
	if err != nil {
		t.Fatal(err)
	}
	resB, err := specB.Run()
	if err != nil {
		t.Fatal(err)
	}

	series := []struct {
		name string
		a, b *metrics.Series
	}{
		{"gpuActive", &resA.GPUActive, &resB.GPUActive},
		{"gpuUtil", &resA.GPUUtilSeries, &resB.GPUUtilSeries},
		{"cpuActive", &resA.CPUActive, &resB.CPUActive},
		{"cpuUtil", &resA.CPUUtilSeries, &resB.CPUUtilSeries},
		{"frag", &resA.FragSeries, &resB.FragSeries},
		{"queuedGPU", &resA.QueuedGPU, &resB.QueuedGPU},
		{"queuedCPU", &resA.QueuedCPU, &resB.QueuedCPU},
	}
	for _, s := range series {
		pa, pb := seriesPrefix(s.a, cut), seriesPrefix(s.b, cut)
		if pa != pb {
			t.Errorf("series %s diverged BEFORE the first injected fault (t=%v):\n  A:%s\n  B:%s",
				s.name, cut, pa, pb)
		}
	}
	if sim.DumpResult(resA) == sim.DumpResult(resB) {
		t.Error("different fault seeds produced identical runs; injection is inert")
	}
}
