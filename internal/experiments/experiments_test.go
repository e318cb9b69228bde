package experiments

import (
	"math"
	"strings"
	"testing"
	"time"

	"github.com/coda-repro/coda/internal/core"
)

// testScale keeps experiment tests fast: a third of a day at paper load.
func testScale() Scale {
	return Scale{Seed: 1, Days: 0.34, CPUJobs: 850, GPUJobs: 283, Nodes: 80}
}

func comparison(t *testing.T) *Comparison {
	t.Helper()
	c, err := RunComparison(testScale())
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestScaleValidate(t *testing.T) {
	tests := []struct {
		name    string
		mutate  func(*Scale)
		wantErr bool
	}{
		{"full ok", func(s *Scale) {}, false},
		{"no name", func(s *Scale) { s.Name = "" }, false},
		{"no cpu jobs", func(s *Scale) { s.CPUJobs = 0 }, false},
		{"zero days", func(s *Scale) { s.Days = 0 }, true},
		{"negative days", func(s *Scale) { s.Days = -1 }, true},
		{"NaN days", func(s *Scale) { s.Days = math.NaN() }, true},
		{"infinite days", func(s *Scale) { s.Days = math.Inf(1) }, true},
		{"no gpu jobs", func(s *Scale) { s.GPUJobs = 0 }, true},
		{"negative cpu jobs", func(s *Scale) { s.CPUJobs = -1 }, true},
		{"negative gpu jobs", func(s *Scale) { s.GPUJobs = -1 }, true},
		{"no jobs at all", func(s *Scale) { s.CPUJobs, s.GPUJobs = 0, 0 }, true},
		{"zero nodes", func(s *Scale) { s.Nodes = 0 }, true},
		{"negative nodes", func(s *Scale) { s.Nodes = -4 }, true},
		{"200,000 days", func(s *Scale) { s.Days = 200000 }, true},
		{"1e10 days", func(s *Scale) { s.Days = 1e10 }, true},
		{"the day limit", func(s *Scale) { s.Days = maxDays }, false},
		{"past the day limit", func(s *Scale) { s.Days = math.Nextafter(maxDays, math.Inf(1)) }, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			sc := FullScale()
			tt.mutate(&sc)
			err := sc.Validate()
			if (err != nil) != tt.wantErr {
				t.Errorf("error = %v, wantErr %v", err, tt.wantErr)
			}
		})
	}
	if FullScale().Duration() != 30*24*time.Hour {
		t.Error("FullScale duration wrong")
	}
	longest := Scale{Days: maxDays}
	if d, tail := longest.Duration(), longest.Options().MaxVirtualTime; d <= 0 || tail <= d {
		t.Errorf("the largest accepted day count spans %v with a run cap of %v", d, tail)
	}
}

func TestParseScale(t *testing.T) {
	names := []string{"ci", "tiny", "small", "full", "warehouse"}
	for _, name := range names {
		sc, err := ParseScale(name)
		if err != nil {
			t.Fatalf("ParseScale(%q): %v", name, err)
		}
		if sc.Name != name {
			t.Errorf("ParseScale(%q).Name = %q", name, sc.Name)
		}
		if err := sc.Validate(); err != nil {
			t.Errorf("preset %q fails its own validation: %v", name, err)
		}
	}
	_, err := ParseScale("huge")
	if err == nil {
		t.Fatal("ParseScale accepted an unknown preset")
	}
	for _, name := range names {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("unknown-scale error does not name preset %q: %v", name, err)
		}
	}
}

func TestPolicyBuildsEveryScheduler(t *testing.T) {
	cc := TinyScale().Options().Cluster
	for _, name := range []string{"fifo", "drf", "static", "coda"} {
		s, err := Policy(name, core.DefaultConfig(), cc)()
		if err != nil {
			t.Fatalf("Policy(%q): %v", name, err)
		}
		if s.Name() != name {
			t.Errorf("Policy(%q) built %q", name, s.Name())
		}
	}
	if s, err := Policy("quantum", core.DefaultConfig(), cc)(); err == nil {
		t.Errorf("Policy(quantum) built %v", s)
	}
}

func TestRunComparisonCached(t *testing.T) {
	a := comparison(t)
	b := comparison(t)
	if a != b {
		t.Error("RunComparison must memoize per scale")
	}
	if a.FIFO.Scheduler != "fifo" || a.DRF.Scheduler != "drf" || a.CODA.Scheduler != "coda" {
		t.Errorf("schedulers = %s/%s/%s", a.FIFO.Scheduler, a.DRF.Scheduler, a.CODA.Scheduler)
	}
}

func TestFig10Shape(t *testing.T) {
	rows := Fig10(comparison(t))
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	byName := map[string]Fig10Row{}
	for _, r := range rows {
		byName[r.Scheduler] = r
		if r.Util <= 0 || r.Util > 1 {
			t.Errorf("%s util = %g", r.Scheduler, r.Util)
		}
	}
	// The paper's headline ordering: CODA clearly beats both baselines on
	// GPU utilization and fragmentation.
	if byName["coda"].Util <= byName["fifo"].Util+0.05 {
		t.Errorf("coda util %g not clearly above fifo %g", byName["coda"].Util, byName["fifo"].Util)
	}
	if byName["coda"].Util <= byName["drf"].Util+0.05 {
		t.Errorf("coda util %g not clearly above drf %g", byName["coda"].Util, byName["drf"].Util)
	}
	if byName["coda"].FragRate >= byName["fifo"].FragRate {
		t.Errorf("coda frag %g not below fifo %g", byName["coda"].FragRate, byName["fifo"].FragRate)
	}
	if byName["fifo"].PaperUtil != 0.454 || byName["coda"].PaperActive != 0.912 {
		t.Error("paper reference values wrong")
	}
}

func TestFig11Shape(t *testing.T) {
	rows := Fig11(comparison(t))
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	byName := map[string]Fig11Row{}
	for _, r := range rows {
		byName[r.Scheduler] = r
	}
	// CODA schedules the vast majority of GPU jobs immediately; FIFO does
	// not.
	if byName["coda"].GPUImmediate <= byName["fifo"].GPUImmediate {
		t.Errorf("coda immediate %g <= fifo %g",
			byName["coda"].GPUImmediate, byName["fifo"].GPUImmediate)
	}
	if byName["coda"].GPUOver10Min >= byName["fifo"].GPUOver10Min {
		t.Errorf("coda >10min %g >= fifo %g",
			byName["coda"].GPUOver10Min, byName["fifo"].GPUOver10Min)
	}
	// CPU jobs stay fast under every policy (within the paper's bands).
	for name, r := range byName {
		if r.CPUWithin3Min < 0.8 {
			t.Errorf("%s CPU within 3min = %g", name, r.CPUWithin3Min)
		}
	}
}

func TestCDFPoints(t *testing.T) {
	c := comparison(t)
	if pts := CDFPoints(c.FIFO, "gpu"); len(pts) == 0 {
		t.Error("no GPU CDF points")
	}
	if pts := CDFPoints(c.FIFO, "cpu"); len(pts) == 0 {
		t.Error("no CPU CDF points")
	}
}

func TestFig12Shape(t *testing.T) {
	rows := Fig12(comparison(t))
	if len(rows) != 20 {
		t.Fatalf("rows = %d, want 20 users", len(rows))
	}
	// CODA's P99 must beat FIFO's for a clear majority of users who
	// actually queue.
	better, worse := 0, 0
	for _, r := range rows {
		if r.FIFO == 0 && r.CODA == 0 {
			continue
		}
		if r.CODA <= r.FIFO {
			better++
		} else {
			worse++
		}
	}
	if better <= worse {
		t.Errorf("CODA better for %d users, worse for %d", better, worse)
	}
}

func TestFig13Shape(t *testing.T) {
	rows := Fig13(comparison(t))
	if len(rows) < 4 {
		t.Fatalf("rows = %d, want one per model (most of 8)", len(rows))
	}
	fasterRuns := 0
	for _, r := range rows {
		if r.FIFORun <= 0 || r.CODARun <= 0 {
			t.Errorf("%s: non-positive run times %v/%v", r.Model, r.FIFORun, r.CODARun)
		}
		if r.CODARun < r.FIFORun {
			fasterRuns++
		}
	}
	// "CODA reduces the queuing time and processing time of most jobs."
	if fasterRuns*2 < len(rows) {
		t.Errorf("CODA processing faster for only %d/%d representatives", fasterRuns, len(rows))
	}
}

func TestFig14Shape(t *testing.T) {
	res, err := Fig14(comparison(t))
	if err != nil {
		t.Fatal(err)
	}
	binned := 0
	for i := 0; ; i++ {
		n, _, err := res.Histogram.Bucket(i)
		if err != nil {
			break
		}
		binned += n
	}
	if binned == 0 {
		t.Fatal("empty histogram")
	}
	// Most jobs under-request (76.1% ask 1-2 cores): the bulk must be
	// granted more cores; a solid minority (the >10-core requesters) fewer.
	if res.MoreTotal < 0.4 {
		t.Errorf("MoreTotal = %g, want the under-requesters adjusted up", res.MoreTotal)
	}
	if res.FewerTotal < 0.08 {
		t.Errorf("FewerTotal = %g, want the over-requesters slimmed", res.FewerTotal)
	}
	sum := res.MoreTotal + res.FewerTotal + res.Unchanged
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("fractions sum to %g", sum)
	}
}

func TestSec6EShape(t *testing.T) {
	res, err := Sec6E(testScale())
	if err != nil {
		t.Fatal(err)
	}
	if res.Throttles == 0 {
		t.Log("no throttles at this scale (hogs are 0.5% of CPU jobs); queue comparison still valid")
	}
	if res.UtilWithEliminator <= 0 {
		t.Errorf("UtilWithEliminator = %g", res.UtilWithEliminator)
	}
	// At the paper's 0.5% density the effect sits inside noise; disabling
	// the eliminator must still never clearly help utilization.
	if res.UtilWithout > res.UtilWithEliminator+0.02 {
		t.Errorf("eliminator hurt: with=%g without=%g", res.UtilWithEliminator, res.UtilWithout)
	}
	// At the 5% stress density the eliminator's benefit must be visible
	// ("If more CPU jobs ... have higher memory bandwidth requirements,
	// the performance is worse without the contention eliminator", §VI-E).
	if res.StressThrottles == 0 {
		t.Error("stress run never throttled")
	}
	if res.StressUtilWith <= res.StressUtilWithout {
		t.Errorf("stress: eliminator did not help: with=%g without=%g",
			res.StressUtilWith, res.StressUtilWithout)
	}
}

func TestTable2Shape(t *testing.T) {
	rows, err := Table2(7)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 8 {
		t.Fatalf("rows = %d, want 8 models", len(rows))
	}
	for _, r := range rows {
		if r.ProfilingSteps < 1 || r.ProfilingSteps > 4 {
			t.Errorf("%s: %d profiling steps, want 1-4", r.Model, r.ProfilingSteps)
		}
		if r.TrainingIterations <= 0 {
			t.Errorf("%s: %d iterations", r.Model, r.TrainingIterations)
		}
		if r.PaperSteps == 0 || r.PaperIterations == 0 {
			t.Errorf("%s: missing paper reference", r.Model)
		}
	}
}

func TestFig3Shape(t *testing.T) {
	pts, err := Fig3()
	if err != nil {
		t.Fatal(err)
	}
	// 8 models x 2 configs x 14 core counts.
	if len(pts) != 8*2*14 {
		t.Fatalf("points = %d", len(pts))
	}
	for _, p := range pts {
		if p.GPUUtil < 0 || p.GPUUtil > 1 || p.Speed <= 0 || p.Speed > 1 {
			t.Errorf("%+v out of range", p)
		}
	}
}

func TestFig5Shape(t *testing.T) {
	rows, err := Fig5()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 8*4*2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.OptimalCores < 1 {
			t.Errorf("%+v", r)
		}
		if r.Config == "2N8G" && r.OptimalCores > 2 {
			t.Errorf("multi-node optimum = %d for %s", r.OptimalCores, r.Model)
		}
	}
}

func TestFig6Shape(t *testing.T) {
	rows, err := Fig6()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 8*3*2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.BandwidthGBs < 0 {
			t.Errorf("%+v", r)
		}
	}
}

func TestFig7Shape(t *testing.T) {
	pts, err := Fig7()
	if err != nil {
		t.Fatal(err)
	}
	perf := map[string]map[string]map[int]float64{}
	for _, p := range pts {
		if perf[p.Model] == nil {
			perf[p.Model] = map[string]map[int]float64{"bw": {}, "llc": {}}
		}
		perf[p.Model][p.Pressure][p.HeatThreads] = p.NormalizedPerf
	}
	// NLP models lose >= 50% at the heaviest bandwidth pressure.
	for _, m := range []string{"bat", "transformer"} {
		if got := perf[m]["bw"][32]; got > 0.5 {
			t.Errorf("%s at full pressure = %g, want <= 0.5", m, got)
		}
	}
	// Non-Alexnet CV models stay near 1.
	for _, m := range []string{"vgg16", "inception3", "resnet50"} {
		if got := perf[m]["bw"][32]; got < 0.9 {
			t.Errorf("%s at full pressure = %g, want insensitive", m, got)
		}
	}
	// Deepspeech more sensitive than Wavenet.
	if perf["deepspeech"]["bw"][32] >= perf["wavenet"]["bw"][32] {
		t.Error("deepspeech should degrade more than wavenet")
	}
	// LLC pressure is harmless for everyone.
	for m := range perf {
		if got := perf[m]["llc"][32]; got < 0.95 {
			t.Errorf("%s under LLC pressure = %g", m, got)
		}
	}
}

func TestTable1(t *testing.T) {
	rows := Table1()
	if len(rows) != 8 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Scenario == "" || r.Model == "" {
			t.Errorf("%+v incomplete", r)
		}
	}
}

func TestFig1Shape(t *testing.T) {
	res, err := Fig1(testScale())
	if err != nil {
		t.Fatal(err)
	}
	if res.CPUActive.Len() < 24 {
		t.Fatalf("hourly samples = %d", res.CPUActive.Len())
	}
	if res.DiurnalRatio < 1.2 {
		t.Errorf("DiurnalRatio = %g, want a visible diurnal swing", res.DiurnalRatio)
	}
	if !res.GPUAboveCPU {
		t.Error("GPU utilization should exceed CPU utilization (Fig. 1)")
	}
}

func TestFig2Shape(t *testing.T) {
	res, err := Fig2(testScale())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Stats.ReqCores12-0.761) > 0.07 {
		t.Errorf("ReqCores12 = %g", res.Stats.ReqCores12)
	}
	if res.GPUOver10Min <= 0 {
		t.Errorf("GPUOver10Min = %g, want queueing under FIFO", res.GPUOver10Min)
	}
}

func TestAblations(t *testing.T) {
	res, err := AblationAdaptiveAllocation(testScale())
	if err != nil {
		t.Fatal(err)
	}
	// Without adaptive allocation, utilization must drop toward baseline.
	if res.AblatedUtil >= res.FullUtil {
		t.Errorf("adaptive allocation off: util %g >= full %g", res.AblatedUtil, res.FullUtil)
	}
	reb, err := AblationRebalance(testScale())
	if err != nil {
		t.Fatal(err)
	}
	if reb.FullUtil <= 0 || reb.AblatedUtil <= 0 {
		t.Errorf("rebalance ablation = %+v", reb)
	}
}

func TestAblationNstartSeeding(t *testing.T) {
	res, err := AblationNstartSeeding(7)
	if err != nil {
		t.Fatal(err)
	}
	if res.SeededSteps <= 0 || res.FixedSteps <= 0 {
		t.Fatalf("steps = %+v", res)
	}
	// History seeding must not be slower than cold starts.
	if res.SeededSteps > res.FixedSteps+0.5 {
		t.Errorf("seeded %g steps vs fixed %g", res.SeededSteps, res.FixedSteps)
	}
}
