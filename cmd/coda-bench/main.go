// Command coda-bench regenerates every table and figure of the paper's
// evaluation and prints measured values next to the published ones.
//
// Usage:
//
//	coda-bench               # all experiments at the small scale
//	coda-bench -scale full   # the paper's full one-month operating point
//	coda-bench -only fig10   # one experiment
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"github.com/coda-repro/coda/internal/experiments"
	"github.com/coda-repro/coda/internal/sim"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "coda-bench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("coda-bench", flag.ContinueOnError)
	scaleName := fs.String("scale", "small", "trace scale: ci, tiny, small, full or warehouse")
	only := fs.String("only", "", "run one experiment: fig1,fig2,fig3,fig5,fig6,fig7,table1,fig10,fig11,fig12,fig13,fig14,sec6e,sec6g,static,table2,ablations,multiseed,macro,memgate,scalecurve")
	seed := fs.Int64("seed", 1, "random seed")
	csvDir := fs.String("csv", "", "also export plottable figure data as CSV files into this directory")
	parallel := fs.Int("parallel", 0, "worker-pool width for experiment matrices (0 = GOMAXPROCS)")
	runs := fs.Int("runs", 3, "seed count for the multiseed section")
	benchJSON := fs.String("bench-json", "", "write macro-benchmark measurements to this JSON file (BENCH_<name>.json)")
	benchBaseline := fs.String("bench-baseline", "", "compare macro-benchmark events/sec, work counts and allocations against this baseline JSON and fail on regression or on a variant it lacks")
	benchTolerance := fs.Float64("bench-tolerance", 0.20, "allowed fractional events/sec drop vs -bench-baseline before failing")
	memGateBytes := fs.Float64("memgate-bytes-per-job", 256, "memgate: allowed peak-heap growth per extra job before failing")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *runs < 1 {
		return fmt.Errorf("-runs must be at least 1, got %d", *runs)
	}
	experiments.SetParallelism(*parallel)
	defer experiments.SetParallelism(0)

	sc, err := experiments.ParseScale(*scaleName)
	if err != nil {
		return err
	}
	sc.Seed = *seed

	want := func(name string) bool {
		return *only == "" || strings.EqualFold(*only, name)
	}

	type section struct {
		name string
		run  func() error
	}
	sections := []section{
		{"table1", printTable1},
		{"fig3", printFig3},
		{"fig5", printFig5},
		{"fig6", printFig6},
		{"fig7", printFig7},
		{"fig1", func() error { return printFig1(sc) }},
		{"fig2", func() error { return printFig2(sc) }},
		{"fig10", func() error { return printFig10(sc) }},
		{"fig11", func() error { return printFig11(sc) }},
		{"fig12", func() error { return printFig12(sc) }},
		{"fig13", func() error { return printFig13(sc) }},
		{"fig14", func() error { return printFig14(sc) }},
		{"sec6e", func() error { return printSec6E(sc) }},
		{"sec6g", func() error { return printSec6G(sc) }},
		{"static", func() error { return printStatic(sc) }},
		{"table2", func() error { return printTable2(*seed) }},
		{"ablations", func() error { return printAblations(sc, *seed) }},
		{"multiseed", func() error { return printMultiSeed(sc, *seed, *runs) }},
		{"macro", func() error { return printMacro(sc, *benchJSON, *benchBaseline, *benchTolerance) }},
		{"memgate", func() error { return printMemGate(sc, *benchJSON, *memGateBytes) }},
		{"scalecurve", func() error { return printScaleCurveBench(*seed, *benchJSON) }},
	}
	timedOnly := map[string]bool{"macro": true, "memgate": true, "scalecurve": true}
	for _, s := range sections {
		if !want(s.name) {
			continue
		}
		if timedOnly[s.name] && *only == "" {
			continue // timed full runs: only on an explicit -only request
		}
		if err := s.run(); err != nil {
			return fmt.Errorf("%s: %w", s.name, err)
		}
	}
	if *csvDir != "" {
		if err := writeCSVs(*csvDir, sc); err != nil {
			return fmt.Errorf("csv export: %w", err)
		}
	}
	return nil
}

func header(title string) {
	fmt.Printf("\n=== %s ===\n", title)
}

func printTable1() error {
	header("Table I — benchmark catalog")
	for _, r := range experiments.Table1() {
		fmt.Printf("  %-12s %-7s %s\n", r.Model, r.Scenario, r.Type)
	}
	return nil
}

func printFig3() error {
	header("Fig. 3 — GPU utilization vs allocated cores (1N1G / 1N4G)")
	pts, err := experiments.Fig3()
	if err != nil {
		return err
	}
	// Print each curve on one line, cores 1..14.
	curves := map[string][]float64{}
	var order []string
	for _, p := range pts {
		key := fmt.Sprintf("%-12s %s", p.Model, p.Config)
		if _, ok := curves[key]; !ok {
			order = append(order, key)
		}
		curves[key] = append(curves[key], p.GPUUtil)
	}
	fmt.Printf("  %-18s %s\n", "model config", "util at cores 1..14")
	for _, key := range order {
		var b strings.Builder
		for _, u := range curves[key] {
			fmt.Fprintf(&b, "%4.2f ", u)
		}
		fmt.Printf("  %-18s %s\n", key, b.String())
	}
	return nil
}

func printFig5() error {
	header("Fig. 5 — optimal CPU cores per model, configuration and batch")
	rows, err := experiments.Fig5()
	if err != nil {
		return err
	}
	fmt.Printf("  %-12s %-6s %-8s %s\n", "model", "config", "batch", "optimal cores")
	for _, r := range rows {
		fmt.Printf("  %-12s %-6s %-8s %d\n", r.Model, r.Config, r.Batch, r.OptimalCores)
	}
	return nil
}

func printFig6() error {
	header("Fig. 6 — memory-bandwidth demand at the optimal core count")
	rows, err := experiments.Fig6()
	if err != nil {
		return err
	}
	fmt.Printf("  %-12s %-6s %-8s %s\n", "model", "config", "batch", "GB/s")
	for _, r := range rows {
		fmt.Printf("  %-12s %-6s %-8s %.1f\n", r.Model, r.Config, r.Batch, r.BandwidthGBs)
	}
	return nil
}

func printFig7() error {
	header("Fig. 7 — normalized performance under HEAT contention (1N1G)")
	pts, err := experiments.Fig7()
	if err != nil {
		return err
	}
	perf := map[string]map[int]float64{}
	llcMin := map[string]float64{}
	var order []string
	for _, p := range pts {
		switch p.Pressure {
		case "bw":
			if _, ok := perf[p.Model]; !ok {
				perf[p.Model] = map[int]float64{}
				order = append(order, p.Model)
				llcMin[p.Model] = 1
			}
			perf[p.Model][p.HeatThreads] = p.NormalizedPerf
		case "llc":
			if p.NormalizedPerf < llcMin[p.Model] {
				llcMin[p.Model] = p.NormalizedPerf
			}
		}
	}
	fmt.Printf("  %-12s %-42s %s\n", "model", "bw pressure @ 0/4/8/16/24/32 HEAT threads", "llc worst")
	for _, m := range order {
		fmt.Printf("  %-12s %4.2f %4.2f %4.2f %4.2f %4.2f %4.2f          %4.2f\n",
			m, perf[m][0], perf[m][4], perf[m][8], perf[m][16], perf[m][24], perf[m][32], llcMin[m])
	}
	return nil
}

func printFig1(sc experiments.Scale) error {
	header("Fig. 1 — week-long CPU/GPU usage trend under FIFO")
	res, err := experiments.Fig1(sc)
	if err != nil {
		return err
	}
	fmt.Printf("  mean cpu active %.1f%%  mean cpu util %.1f%%\n",
		res.CPUActive.Mean()*100, res.CPUUtil.Mean()*100)
	fmt.Printf("  mean gpu active %.1f%%  mean gpu util %.1f%%\n",
		res.GPUActive.Mean()*100, res.GPUUtil.Mean()*100)
	fmt.Printf("  cpu diurnal peak/trough ratio %.2f (paper: pronounced diurnal pattern)\n", res.DiurnalRatio)
	fmt.Printf("  gpu util above cpu util: %v (paper: consistently higher)\n", res.GPUAboveCPU)
	return nil
}

func printFig2(sc experiments.Scale) error {
	header("Fig. 2 — job characteristics")
	res, err := experiments.Fig2(sc)
	if err != nil {
		return err
	}
	s := res.Stats
	fmt.Printf("  jobs: %d total, %d cpu (%.1f%%), %d gpu\n",
		s.Jobs, s.CPUJobs, 100*float64(s.CPUJobs)/float64(s.Jobs), s.GPUJobs)
	fmt.Printf("  gpu jobs requesting 1-2 cores   %5.1f%%   paper %.1f%%\n", s.ReqCores12*100, res.PaperReq12*100)
	fmt.Printf("  gpu jobs requesting >10 cores   %5.1f%%   paper %.1f%%\n", s.ReqCoresOver10*100, res.PaperReqOver10*100)
	fmt.Printf("  gpu queueing >3min under FIFO   %5.1f%%   paper %.1f%%\n", res.GPUOver3Min*100, res.PaperGPUOver3Min*100)
	fmt.Printf("  gpu queueing >10min under FIFO  %5.1f%%   paper %.1f%%\n", res.GPUOver10Min*100, res.PaperGPUOver10Min*100)
	fmt.Printf("  gpu jobs running >1h %.1f%% (paper 68.5%%), >2h %.1f%% (paper 39.6%%)\n",
		s.GPUJobsOverHour*100, s.GPUJobsOverTwoHours*100)
	return nil
}

func printFig10(sc experiments.Scale) error {
	header("Fig. 10 / §VI-C — GPU active rate, utilization, fragmentation")
	c, err := experiments.RunComparison(sc)
	if err != nil {
		return err
	}
	fmt.Printf("  %-6s %-22s %-22s %s\n", "", "active while queueing", "gpu utilization", "fragmentation while queueing")
	for _, r := range experiments.Fig10(c) {
		fmt.Printf("  %-6s %5.1f%% (paper %5.1f%%)   %5.1f%% (paper %5.1f%%)   %5.2f%% (paper %5.1f%%)\n",
			r.Scheduler, r.ActiveRate*100, r.PaperActive*100,
			r.Util*100, r.PaperUtil*100, r.FragRate*100, r.PaperFrag*100)
	}
	return nil
}

func printFig11(sc experiments.Scale) error {
	header("Fig. 11 — queueing-time distribution")
	c, err := experiments.RunComparison(sc)
	if err != nil {
		return err
	}
	p := func(v, paper float64) string {
		if paper < 0 {
			return fmt.Sprintf("%5.1f%%          ", v*100)
		}
		return fmt.Sprintf("%5.1f%% (p %4.1f%%)", v*100, paper*100)
	}
	fmt.Printf("  %-6s %-17s %-17s %-17s %-17s %s\n",
		"", "gpu >10min", "gpu >1h", "gpu immediate", "cpu <=10s", "cpu <=3min")
	for _, r := range experiments.Fig11(c) {
		fmt.Printf("  %-6s %s %s %s %s %s\n", r.Scheduler,
			p(r.GPUOver10Min, r.PaperGPUOver10Min),
			p(r.GPUOver1Hour, r.PaperGPUOver1Hour),
			p(r.GPUImmediate, r.PaperGPUImmediate),
			p(r.CPUWithin10s, r.PaperCPUWithin10s),
			p(r.CPUWithin3Min, r.PaperCPUWithin3Min))
	}
	return nil
}

func printFig12(sc experiments.Scale) error {
	header("Fig. 12 — per-user 99%-ile queueing time")
	c, err := experiments.RunComparison(sc)
	if err != nil {
		return err
	}
	fmt.Printf("  %-5s %-12s %-12s %s\n", "user", "fifo", "drf", "coda")
	for _, r := range experiments.Fig12(c) {
		fmt.Printf("  %-5d %-12s %-12s %s\n", r.User,
			experiments.FormatDuration(r.FIFO),
			experiments.FormatDuration(r.DRF),
			experiments.FormatDuration(r.CODA))
	}
	return nil
}

func printFig13(sc experiments.Scale) error {
	header("Fig. 13 — end-to-end latency of representative GPU jobs")
	c, err := experiments.RunComparison(sc)
	if err != nil {
		return err
	}
	fmt.Printf("  %-12s %-24s %s\n", "model", "fifo queue+run", "coda queue+run")
	for _, r := range experiments.Fig13(c) {
		fmt.Printf("  %-12s %-10s + %-11s %-10s + %s\n", r.Model,
			experiments.FormatDuration(r.FIFOQueue), experiments.FormatDuration(r.FIFORun),
			experiments.FormatDuration(r.CODAQueue), experiments.FormatDuration(r.CODARun))
	}
	return nil
}

func printFig14(sc experiments.Scale) error {
	header("Fig. 14 — tuning of the core count vs owner requests")
	c, err := experiments.RunComparison(sc)
	if err != nil {
		return err
	}
	res, err := experiments.Fig14(c)
	if err != nil {
		return err
	}
	fmt.Printf("  granted 1-5 more cores    %5.1f%%   paper %.1f%%\n", res.More1to5*100, res.PaperMore1to5*100)
	fmt.Printf("  granted 1-20 fewer cores  %5.1f%%   paper %.1f%%\n", res.Fewer1to20*100, res.PaperFewer1to20*100)
	fmt.Printf("  more total %.1f%%, fewer total %.1f%%, unchanged %.1f%%\n",
		res.MoreTotal*100, res.FewerTotal*100, res.Unchanged*100)
	return nil
}

func printSec6E(sc experiments.Scale) error {
	header("§VI-E — contention eliminator ablation")
	res, err := experiments.Sec6E(sc)
	if err != nil {
		return err
	}
	drop := res.UtilWithEliminator - res.UtilWithout
	factor := 0.0
	if res.QueuedWith > 0 {
		factor = res.QueuedWithout / res.QueuedWith
	}
	fmt.Printf("  0.5%% hogs (paper's density): util with %5.1f%%, without %5.1f%% (drop %.1f pts; paper %.1f pts)\n",
		res.UtilWithEliminator*100, res.UtilWithout*100, drop*100, res.PaperUtilDrop*100)
	fmt.Printf("  mean queued jobs: with %.1f, without %.1f (factor %.2fx; paper ~%.0fx)\n",
		res.QueuedWith, res.QueuedWithout, factor, res.PaperQueueFactor)
	fmt.Printf("  eliminator interventions: %d\n", res.Throttles)
	stressDrop := res.StressUtilWith - res.StressUtilWithout
	fmt.Printf("  5%% hogs (stress): util with %5.1f%%, without %5.1f%% (drop %.1f pts), %d interventions\n",
		res.StressUtilWith*100, res.StressUtilWithout*100, stressDrop*100, res.StressThrottles)
	return nil
}

func printSec6G(sc experiments.Scale) error {
	header("§VI-G — generality: heterogeneous cluster (80 GPU + 20 CPU nodes)")
	rows, err := experiments.Generality(sc, 20)
	if err != nil {
		return err
	}
	fmt.Printf("  %-6s %-12s %-16s %s\n", "", "gpu util", "gpu immediate", "cpu <=3min")
	for _, r := range rows {
		fmt.Printf("  %-6s %5.1f%%       %5.1f%%           %5.1f%%\n",
			r.Scheduler, r.GPUUtil*100, r.GPUImmediate*100, r.CPUWithin3Min*100)
	}
	return nil
}

func printStatic(sc experiments.Scale) error {
	header("§I — static-partition baseline (split all cores across GPUs)")
	res, err := experiments.StaticBaseline(sc)
	if err != nil {
		return err
	}
	fmt.Printf("  static: gpu util %5.1f%%, cpu active %5.1f%%, gpu immediate %5.1f%%, cpu <=3min %5.1f%%\n",
		res.GPUUtil*100, res.CPUActiveRate*100, res.GPUImmediate*100, res.CPUWithin3Min*100)
	fmt.Printf("  context: coda util %5.1f%%, fifo util %5.1f%%\n", res.CODAUtil*100, res.FIFOUtil*100)
	return nil
}

// printMultiSeed replays the three-scheduler comparison under runs
// consecutive seeds on the worker pool and reports seed-averaged headline
// rates with pooled queueing distributions — the variance check behind the
// single-seed figures.
func printMultiSeed(sc experiments.Scale, seed int64, runs int) error {
	header(fmt.Sprintf("Multi-seed comparison — %d seeds, merged", runs))
	seeds := make([]int64, runs)
	for i := range seeds {
		seeds[i] = seed + int64(i)
	}
	msc, err := experiments.RunMultiSeedComparison(sc, seeds)
	if err != nil {
		return err
	}
	fmt.Printf("  %-6s %-10s %-12s %-15s %-12s %s\n",
		"", "gpu util", "gpu active", "gpu immediate", "gpu >10min", "cpu <=3min")
	for _, m := range []*sim.Merged{msc.FIFO, msc.DRF, msc.CODA} {
		fmt.Printf("  %-6s %5.1f%%     %5.1f%%       %5.1f%%          %5.1f%%       %5.1f%%\n",
			m.Scheduler, m.GPUUtil*100, m.GPUActiveRate*100,
			m.GPUQueue.FractionAtMost(0)*100,
			m.GPUQueue.FractionAbove(10*time.Minute)*100,
			m.CPUQueue.FractionAtMost(3*time.Minute)*100)
	}
	fmt.Printf("  (each row merges %d runs; distributions pooled, rates seed-averaged)\n", msc.CODA.Runs)
	return nil
}

func printTable2(seed int64) error {
	header("Table II — overhead of identifying the optimal core number")
	rows, err := experiments.Table2(seed)
	if err != nil {
		return err
	}
	fmt.Printf("  %-12s %-24s %s\n", "model", "profiling steps (paper)", "iterations (paper)")
	for _, r := range rows {
		fmt.Printf("  %-12s %d (%d)%20s %d (~%d)\n",
			r.Model, r.ProfilingSteps, r.PaperSteps, "", r.TrainingIterations, r.PaperIterations)
	}
	return nil
}

func printAblations(sc experiments.Scale, seed int64) error {
	header("Ablations — design choices beyond the paper's headline results")
	start := time.Now()
	a, err := experiments.AblationAdaptiveAllocation(sc)
	if err != nil {
		return err
	}
	fmt.Printf("  %-26s full util %5.1f%% -> ablated %5.1f%%; immediate %5.1f%% -> %5.1f%%\n",
		a.Name, a.FullUtil*100, a.AblatedUtil*100, a.FullImmediate*100, a.AblatedImmediate*100)
	b, err := experiments.AblationRebalance(sc)
	if err != nil {
		return err
	}
	fmt.Printf("  %-26s full util %5.1f%% -> ablated %5.1f%%; immediate %5.1f%% -> %5.1f%%\n",
		b.Name, b.FullUtil*100, b.AblatedUtil*100, b.FullImmediate*100, b.AblatedImmediate*100)
	p, err := experiments.AblationPreemption(sc)
	if err != nil {
		return err
	}
	fmt.Printf("  %-26s full util %5.1f%% -> ablated %5.1f%%; immediate %5.1f%% -> %5.1f%%\n",
		p.Name, p.FullUtil*100, p.AblatedUtil*100, p.FullImmediate*100, p.AblatedImmediate*100)
	n, err := experiments.AblationNstartSeeding(seed)
	if err != nil {
		return err
	}
	fmt.Printf("  nstart-seeding             seeded %.2f profiling steps vs cold %.2f\n",
		n.SeededSteps, n.FixedSteps)
	th, err := experiments.AblationEliminatorThreshold(sc, []float64{0.6, 0.75, 0.9})
	if err != nil {
		return err
	}
	for _, pt := range th {
		fmt.Printf("  eliminator threshold %.2f   gpu util %5.1f%%, %d interventions (5%% hog trace)\n",
			pt.Threshold, pt.GPUUtil*100, pt.Interventions)
	}
	fmt.Printf("  (ablation wall time %v)\n", time.Since(start).Truncate(time.Millisecond))
	return nil
}
