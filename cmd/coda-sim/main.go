// Command coda-sim replays a synthetic cluster trace under one scheduling
// policy (fifo, drf, static or coda) and prints the headline metrics the paper
// reports: GPU/CPU active and utilization rates, fragmentation, queueing
// percentiles and completion counts.
//
// Usage:
//
//	coda-sim -sched coda -days 3 -cpu-jobs 7500 -gpu-jobs 2500 -nodes 80
//	coda-sim -sched coda -scale warehouse     # preset: 5,000 nodes, 1M jobs, streamed
//	coda-sim -sched fifo -trace trace.jsonl
//	coda-sim -sched coda -runs 5 -parallel 4   # 5-seed sweep on 4 workers
//	coda-sim -sched coda -checkpoint-every 1h -checkpoint-dir ckpts
//	coda-sim -sched coda -checkpoint-every 1h -checkpoint-dir ckpts -resume ckpts
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"

	"github.com/coda-repro/coda/internal/chaos"
	"github.com/coda-repro/coda/internal/checkpoint"
	"github.com/coda-repro/coda/internal/core"
	"github.com/coda-repro/coda/internal/experiments"
	"github.com/coda-repro/coda/internal/history"
	"github.com/coda-repro/coda/internal/job"
	"github.com/coda-repro/coda/internal/runner"
	"github.com/coda-repro/coda/internal/sched"
	"github.com/coda-repro/coda/internal/sim"
	"github.com/coda-repro/coda/internal/trace"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "coda-sim:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("coda-sim", flag.ContinueOnError)
	schedName := fs.String("sched", "coda", "scheduling policy: fifo, drf, static or coda")
	scaleName := fs.String("scale", "", "scale preset overriding -days/-cpu-jobs/-gpu-jobs/-nodes: ci, tiny, small, full or warehouse")
	days := fs.Float64("days", 3, "trace duration in days")
	cpuJobs := fs.Int("cpu-jobs", 7500, "CPU job count")
	gpuJobs := fs.Int("gpu-jobs", 2500, "GPU (DNN training) job count")
	nodes := fs.Int("nodes", 80, "cluster node count")
	seed := fs.Int64("seed", 1, "random seed")
	tracePath := fs.String("trace", "", "replay a JSON-lines trace file instead of generating one")
	noEliminator := fs.Bool("no-eliminator", false, "disable CODA's contention eliminator (§VI-E ablation)")
	series := fs.Bool("series", false, "also print the hourly utilization time series as CSV")
	historyIn := fs.String("history-in", "", "warm-start CODA from a saved history log")
	historyOut := fs.String("history-out", "", "save CODA's history log after the run")
	invariants := fs.Bool("invariants", false, "validate simulator invariants after every event (slow; aborts on first violation)")
	invariantsEvery := fs.Int("invariants-every", 0, "with -invariants: run the O(Δ) delta check per event and the full audit every N events (0 = full audit every event)")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := fs.String("memprofile", "", "write a heap profile to this file when the run finishes")
	pprofHTTP := fs.String("pprof-http", "", "serve net/http/pprof on this address (e.g. localhost:6060) while the run executes")
	faultSeed := fs.Int64("fault-seed", 0, "fault-schedule seed (defaults to -seed; independent of the noise stream)")
	crashRate := fs.Float64("crashes-per-day", 0, "expected node crashes per simulated day across the cluster")
	crashDowntime := fs.Duration("crash-downtime", chaos.DefaultCrashDowntime, "how long a crashed node stays down")
	membwRate := fs.Float64("membw-drops-per-day", 0, "expected membw-telemetry dropouts per simulated day")
	membwDuration := fs.Duration("membw-drop-duration", chaos.DefaultMembwDropDuration, "how long each telemetry dropout lasts")
	stragglerRate := fs.Float64("stragglers-per-day", 0, "expected straggler slowdown windows per simulated day")
	stragglerFactor := fs.Float64("straggler-factor", chaos.DefaultStragglerFactor, "straggler speed multiplier in (0,1)")
	stragglerDuration := fs.Duration("straggler-duration", chaos.DefaultStragglerDuration, "how long each straggler window lasts")
	jobFailProb := fs.Float64("job-fail-prob", 0, "probability each job suffers one injected mid-run failure")
	maxRetries := fs.Int("max-retries", 0, "per-job retry budget after fault kills (0 = default)")
	ckptEvery := fs.Duration("checkpoint-every", 0, "take a crash-consistent checkpoint every this much sim time (0 = off; needs -checkpoint-dir)")
	ckptDir := fs.String("checkpoint-dir", "", "directory for checkpoint files")
	resumePath := fs.String("resume", "", "resume from a checkpoint file (or the latest checkpoint in a directory); pass the same flags as the original run")
	killRate := fs.Float64("controller-kills-per-day", 0, "expected scheduler-process kills per simulated day")
	exitOnKill := fs.Bool("exit-on-controller-kill", false, "die on an injected controller kill instead of only counting it (restart with -resume)")
	survivedKills := fs.Int("survived-kills", 0, "controller kills already survived by earlier processes of this run (advanced; -resume sets this automatically)")
	maxJobStats := fs.Int("max-job-stats", -1, "per-job history cap (-1 = auto: cap at 10000 and sketch CDFs above 200000 jobs; 0 = unbounded)")
	compactCDFs := fs.Bool("compact-cdfs", false, "bound queue-time CDFs with a log-bucketed sketch instead of exact samples")
	runs := fs.Int("runs", 1, "replay the generated trace under this many consecutive seeds and print per-run plus merged metrics (not with -trace)")
	parallel := fs.Int("parallel", 0, "worker-pool width for -runs > 1 (0 = GOMAXPROCS)")
	dumpPath := fs.String("dump", "", "write the run's bit-exact result dump (sim.DumpResult) to this file; two engines agree iff the dumps are byte-identical")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *cpuProfile != "" {
		f, perr := os.Create(*cpuProfile)
		if perr != nil {
			return perr
		}
		defer f.Close()
		if perr := pprof.StartCPUProfile(f); perr != nil {
			return perr
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer writeMemProfile(*memProfile)
	}
	if *pprofHTTP != "" {
		addr := *pprofHTTP
		go func() {
			if herr := http.ListenAndServe(addr, nil); herr != nil {
				fmt.Fprintln(os.Stderr, "coda-sim: pprof-http:", herr)
			}
		}()
	}

	if *runs < 1 {
		return fmt.Errorf("-runs must be at least 1, got %d", *runs)
	}
	if *runs > 1 {
		// The multi-run path executes runs concurrently; everything tied to
		// one resumable single process is a different workflow.
		switch {
		case *resumePath != "":
			return fmt.Errorf("-runs > 1 conflicts with -resume (resume one run at a time from its run-<i> checkpoint directory)")
		case *historyIn != "" || *historyOut != "":
			return fmt.Errorf("-runs > 1 conflicts with -history-in/-history-out")
		case *exitOnKill:
			return fmt.Errorf("-runs > 1 conflicts with -exit-on-controller-kill")
		case *survivedKills > 0:
			return fmt.Errorf("-runs > 1 conflicts with -survived-kills")
		case *series:
			return fmt.Errorf("-series prints one run's time series; it requires -runs=1")
		case *dumpPath != "":
			return fmt.Errorf("-dump writes one run's result; it requires -runs=1")
		case *tracePath != "":
			return fmt.Errorf("-runs > 1 sweeps a generated trace; it conflicts with -trace")
		}
	}

	sc := experiments.Scale{Days: *days, CPUJobs: *cpuJobs, GPUJobs: *gpuJobs, Nodes: *nodes}
	if *scaleName != "" {
		var err error
		if sc, err = experiments.ParseScale(*scaleName); err != nil {
			return err
		}
	}
	sc.Seed = *seed
	if err := sc.Validate(); err != nil {
		return err
	}

	// Intake: a trace file replays as a materialized slice; a generated
	// trace streams from a seeded source, so even the warehouse preset never
	// holds more than the in-flight jobs in memory.
	var jobs []*job.Job
	var traceCfg *trace.Config
	if *tracePath != "" {
		f, ferr := os.Open(*tracePath)
		if ferr != nil {
			return ferr
		}
		defer f.Close()
		var rerr error
		if jobs, rerr = trace.Read(f); rerr != nil {
			return rerr
		}
	} else {
		cfg := sc.TraceConfig()
		if cerr := cfg.Validate(); cerr != nil {
			return cerr
		}
		traceCfg = &cfg
	}
	jobCount := len(jobs)
	if traceCfg != nil {
		jobCount = traceCfg.CPUJobs + traceCfg.GPUJobs
	}

	opts := sc.Options()
	opts.Invariants = *invariants
	opts.InvariantsEvery = *invariantsEvery
	opts.CompactCDFs = *compactCDFs
	switch {
	case *maxJobStats > 0:
		opts.MaxJobStats = *maxJobStats
	case *maxJobStats < 0 && experiments.BoundResults(&opts, jobCount):
		fmt.Fprintf(os.Stderr, "coda-sim: %d jobs: bounding per-job history to %d and sketching queue CDFs (override with -max-job-stats 0)\n",
			jobCount, opts.MaxJobStats)
	}

	if *faultSeed == 0 {
		*faultSeed = sc.Seed
	}
	opts.Faults = chaos.Plan{
		Seed:              *faultSeed,
		Horizon:           sc.Duration(),
		NodeCrashesPerDay: *crashRate,
		CrashDowntime:     *crashDowntime,
		MembwDropsPerDay:  *membwRate,
		MembwDropDuration: *membwDuration,
		StragglersPerDay:  *stragglerRate,
		StragglerFactor:   *stragglerFactor,
		StragglerDuration: *stragglerDuration,
		JobFailureProb:    *jobFailProb,
		MaxRetries:        *maxRetries,

		ControllerKillsPerDay: *killRate,
	}
	opts.ExitOnControllerKill = *exitOnKill

	if *ckptEvery > 0 {
		if *ckptDir == "" {
			return fmt.Errorf("-checkpoint-every needs -checkpoint-dir")
		}
		if err := os.MkdirAll(*ckptDir, 0o755); err != nil {
			return err
		}
		dir := *ckptDir
		opts.CheckpointEvery = *ckptEvery
		if *runs == 1 {
			opts.CheckpointSink = func(ck *sim.Checkpoint) error {
				return checkpoint.WriteFile(filepath.Join(dir, checkpoint.FileName(ck.Now)), ck)
			}
		}
		// With -runs > 1, runMany gives each run its own sink writing into a
		// run-<i>/ subdirectory so the checkpoint streams never interleave.
	}

	// Multi-run matrices need a factory rather than an instance: schedulers
	// are stateful, so concurrent runs must never share one. Building one
	// instance first rejects a bad -sched before any run starts.
	codaCfg := core.DefaultConfig()
	codaCfg.DisableEliminator = *noEliminator
	newPolicy := experiments.Policy(*schedName, codaCfg, opts.Cluster)
	policy, err := newPolicy()
	if err != nil {
		return err
	}
	if *runs > 1 {
		return runMany(*runs, *parallel, opts, *traceCfg, newPolicy, *ckptDir)
	}
	coda, _ := policy.(*core.Scheduler)
	if *historyIn != "" {
		if coda == nil {
			return fmt.Errorf("-history-in only applies to the coda scheduler")
		}
		if *resumePath != "" {
			return fmt.Errorf("-history-in conflicts with -resume (the checkpoint carries the history log)")
		}
		f, ferr := os.Open(*historyIn)
		if ferr != nil {
			return ferr
		}
		log, lerr := history.Load(f)
		f.Close()
		if lerr != nil {
			return lerr
		}
		coda.SetHistory(log)
	}

	start := time.Now()
	var simulator *sim.Simulator
	if *resumePath != "" {
		path := *resumePath
		if st, serr := os.Stat(path); serr == nil && st.IsDir() {
			if path, err = checkpoint.Latest(path); err != nil {
				return err
			}
		}
		var ck sim.Checkpoint
		if err := checkpoint.ReadFile(path, &ck); err != nil {
			return err
		}
		if simulator, err = sim.Resume(&ck, policy, opts.CheckpointSink); err != nil {
			return err
		}
		fmt.Printf("resumed from    %s (t=%v)\n", path, ck.Now.Truncate(time.Second))
	} else if traceCfg != nil {
		src, serr := trace.NewSource(*traceCfg)
		if serr != nil {
			return serr
		}
		if simulator, err = sim.NewStreaming(opts, policy, src); err != nil {
			return err
		}
	} else if simulator, err = sim.New(opts, policy, jobs); err != nil {
		return err
	}
	if *survivedKills > 0 {
		simulator.SetSurvivedKills(*survivedKills)
	}
	res, err := simulator.Run()
	if err != nil {
		return err
	}
	elapsed := time.Since(start)

	printSummary(res, jobCount, elapsed)
	if *series {
		printSeries(res)
	}
	if *dumpPath != "" {
		if err := os.WriteFile(*dumpPath, []byte(sim.DumpResult(res)), 0o644); err != nil {
			return err
		}
	}
	if *historyOut != "" {
		if coda == nil {
			return fmt.Errorf("-history-out only applies to the coda scheduler")
		}
		if err := coda.History().SaveFile(*historyOut); err != nil {
			return err
		}
	}
	return nil
}

// writeMemProfile snapshots the heap after a final GC. Runs in a defer, so
// failures are reported rather than returned.
func writeMemProfile(path string) {
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "coda-sim: memprofile:", err)
		return
	}
	defer f.Close()
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		fmt.Fprintln(os.Stderr, "coda-sim: memprofile:", err)
	}
}

// runMany replays the generated trace under runs consecutive seeds (noise
// and fault streams both advance) on a bounded worker pool, then prints one
// line per run and the merged aggregate. Results come back in matrix order,
// so the output is deterministic regardless of -parallel. Every run streams
// its own source from the trace config, so the sweep never materializes
// the jobs.
func runMany(runs, parallel int, opts sim.Options, traceCfg trace.Config, newPolicy func() (sched.Scheduler, error), ckptDir string) error {
	var m runner.Matrix
	for i := 0; i < runs; i++ {
		o := opts.Clone()
		o.Seed = opts.Seed + int64(i)
		o.Faults.Seed = opts.Faults.Seed + int64(i)
		if o.CheckpointEvery > 0 {
			sub := filepath.Join(ckptDir, fmt.Sprintf("run-%d", i))
			if err := os.MkdirAll(sub, 0o755); err != nil {
				return err
			}
			o.CheckpointSink = func(ck *sim.Checkpoint) error {
				return checkpoint.WriteFile(filepath.Join(sub, checkpoint.FileName(ck.Now)), ck)
			}
		}
		m.Add(sim.RunSpec{
			Name:         fmt.Sprintf("run-%d", i),
			Options:      o,
			Trace:        &traceCfg,
			NewScheduler: newPolicy,
		})
	}

	start := time.Now()
	results, err := runner.Run(context.Background(), &m, runner.Options{Parallel: parallel})
	if err != nil {
		return err
	}
	elapsed := time.Since(start)

	fmt.Printf("%-8s %-10s %-12s %-10s %-10s %-10s %s\n",
		"run", "seed", "fault-seed", "gpu-util", "gpu-done", "cpu-done", "virtual")
	for i, res := range results {
		sm := res.Summarize()
		fmt.Printf("%-8s %-10d %-12d %-10s %-10d %-10d %v\n",
			m.Names()[i], opts.Seed+int64(i), opts.Faults.Seed+int64(i),
			fmt.Sprintf("%.1f%%", sm.GPUUtil*100), sm.GPUJobsDone, sm.CPUJobsDone,
			res.EndTime.Truncate(time.Second))
	}

	merged, err := sim.MergeResults(results)
	if err != nil {
		return err
	}
	printMerged(merged, traceCfg.CPUJobs+traceCfg.GPUJobs, elapsed)
	return nil
}

func printMerged(m *sim.Merged, jobsPerRun int, elapsed time.Duration) {
	fmt.Printf("\n=== merged across %d runs ===\n", m.Runs)
	fmt.Printf("scheduler        %s\n", m.Scheduler)
	fmt.Printf("jobs per run     %d (%d gpu done, %d cpu done across runs)\n", jobsPerRun, m.GPUJobsDone, m.CPUJobsDone)
	fmt.Printf("virtual time     mean %v (wall %v)\n", m.MeanMakeSpan.Truncate(time.Second), elapsed.Truncate(time.Millisecond))
	fmt.Printf("gpu active rate  %.1f%%\n", m.GPUActiveRate*100)
	fmt.Printf("gpu utilization  %.1f%%\n", m.GPUUtil*100)
	fmt.Printf("cpu active rate  %.1f%%\n", m.CPUActiveRate*100)
	fmt.Printf("cpu utilization  %.1f%%\n", m.CPUUtil*100)
	fmt.Printf("fragmentation    %.2f%%\n", m.FragRate*100)
	fmt.Printf("preemptions      %d, throttles %d\n", m.Preemptions, m.Throttles)
	if f := m.Faults; f.Any() {
		fmt.Printf("faults           %d crashes, %d recoveries, %d membw dropouts, %d stragglers\n",
			f.NodeCrashes, f.NodeRecoveries, f.MembwDropouts, f.Stragglers)
		fmt.Printf("fault impact     %d kills (%d injected), %d requeues, %d terminal, %v goodput lost, %d degraded samples, %d controller kills\n",
			f.JobKills, f.JobFailures, f.Requeues, f.TerminalFailures,
			f.GoodputLost.Truncate(time.Second), f.DegradedSamples, f.ControllerKills)
	}
	fmt.Printf("gpu queue        p50 %v  p99 %v  >10min %.1f%%  >1h %.1f%%  =0 %.1f%% (pooled)\n",
		m.GPUQueue.Percentile(50).Truncate(time.Second),
		m.GPUQueue.Percentile(99).Truncate(time.Second),
		m.GPUQueue.FractionAbove(10*time.Minute)*100,
		m.GPUQueue.FractionAbove(time.Hour)*100,
		m.GPUQueue.FractionAtMost(0)*100)
	fmt.Printf("cpu queue        p50 %v  p99 %v  <=10s %.1f%%  <=3min %.1f%% (pooled)\n",
		m.CPUQueue.Percentile(50).Truncate(time.Second),
		m.CPUQueue.Percentile(99).Truncate(time.Second),
		m.CPUQueue.FractionAtMost(10*time.Second)*100,
		m.CPUQueue.FractionAtMost(3*time.Minute)*100)
}

func printSummary(res *sim.Result, totalJobs int, elapsed time.Duration) {
	sm := res.Summarize()
	fmt.Printf("scheduler        %s\n", sm.Scheduler)
	fmt.Printf("jobs             %d (%d gpu done, %d cpu done)\n", totalJobs, sm.GPUJobsDone, sm.CPUJobsDone)
	fmt.Printf("virtual time     %v (wall %v)\n", res.EndTime.Truncate(time.Second), elapsed.Truncate(time.Millisecond))
	fmt.Printf("gpu active rate  %.1f%%\n", sm.GPUActiveRate*100)
	fmt.Printf("gpu utilization  %.1f%%\n", sm.GPUUtil*100)
	fmt.Printf("cpu active rate  %.1f%%\n", sm.CPUActiveRate*100)
	fmt.Printf("cpu utilization  %.1f%%\n", sm.CPUUtil*100)
	fmt.Printf("fragmentation    %.2f%%\n", sm.FragRate*100)
	fmt.Printf("preemptions      %d, throttles %d\n", res.Preemptions, res.Throttles)

	if f := res.Faults; f.Any() {
		fmt.Printf("faults           %d crashes, %d recoveries, %d membw dropouts, %d stragglers\n",
			f.NodeCrashes, f.NodeRecoveries, f.MembwDropouts, f.Stragglers)
		fmt.Printf("fault impact     %d kills (%d injected), %d requeues, %d terminal, %v goodput lost, %d degraded samples, %d controller kills\n",
			f.JobKills, f.JobFailures, f.Requeues, f.TerminalFailures,
			f.GoodputLost.Truncate(time.Second), f.DegradedSamples, f.ControllerKills)
	}

	fmt.Printf("gpu queue        p50 %v  p99 %v  >10min %.1f%%  >1h %.1f%%  =0 %.1f%%\n",
		res.GPUQueue.Percentile(50).Truncate(time.Second),
		res.GPUQueue.Percentile(99).Truncate(time.Second),
		res.GPUQueue.FractionAbove(10*time.Minute)*100,
		res.GPUQueue.FractionAbove(time.Hour)*100,
		res.GPUQueue.FractionAtMost(0)*100)
	fmt.Printf("cpu queue        p50 %v  p99 %v  <=10s %.1f%%  <=3min %.1f%%\n",
		res.CPUQueue.Percentile(50).Truncate(time.Second),
		res.CPUQueue.Percentile(99).Truncate(time.Second),
		res.CPUQueue.FractionAtMost(10*time.Second)*100,
		res.CPUQueue.FractionAtMost(3*time.Minute)*100)
}

func printSeries(res *sim.Result) {
	hourly, err := res.GPUActive.Downsample(time.Hour)
	if err != nil {
		return
	}
	util, err := res.GPUUtilSeries.Downsample(time.Hour)
	if err != nil {
		return
	}
	fmt.Println("\nhour,gpu_active,gpu_util")
	for i := 0; i < hourly.Len() && i < util.Len(); i++ {
		tm, a := hourly.At(i)
		_, u := util.At(i)
		fmt.Printf("%d,%.4f,%.4f\n", int(tm/time.Hour), a, u)
	}
}
