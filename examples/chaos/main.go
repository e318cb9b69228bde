// Chaos example: run CODA over a small generated trace while a
// deterministic fault plan crashes nodes, blinds bandwidth telemetry and
// slows stragglers — with the simulator's invariant checker validating the
// full accounting after every event. Killed jobs requeue after exponential
// backoff; past their retry budget they are terminally reported. Re-running
// the example reproduces the exact same faults, kills and requeues.
package main

import (
	"fmt"
	"log"
	"time"

	"github.com/coda-repro/coda/internal/chaos"
	"github.com/coda-repro/coda/internal/core"
	"github.com/coda-repro/coda/internal/sched"
	"github.com/coda-repro/coda/internal/sim"
	"github.com/coda-repro/coda/internal/trace"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	cfg := trace.DefaultConfig()
	cfg.CPUJobs, cfg.GPUJobs = 120, 40
	cfg.Duration = 24 * time.Hour
	cfg.Seed = 42

	opts := sim.DefaultOptions()
	opts.Cluster.Nodes = 8
	opts.Seed = 1
	opts.Invariants = true // validate the full accounting after every event
	opts.Faults = chaos.Plan{
		Seed:    7,
		Horizon: cfg.Duration,

		NodeCrashesPerDay: 6,
		CrashDowntime:     30 * time.Minute,

		MembwDropsPerDay:  8,
		MembwDropDuration: 10 * time.Minute,

		StragglersPerDay:  4,
		StragglerFactor:   0.5,
		StragglerDuration: time.Hour,

		JobFailureProb: 0.05,
		MaxRetries:     3,
		RetryBackoff:   time.Minute,
	}

	spec := sim.RunSpec{
		Name:    "chaos",
		Options: opts,
		Trace:   &cfg, // streamed: the simulator pulls each job as it arrives
		NewScheduler: func() (sched.Scheduler, error) {
			return core.New(core.DefaultConfig(), opts.Cluster.Nodes,
				opts.Cluster.CoresPerNode, opts.Cluster.GPUsPerNode)
		},
	}
	res, err := spec.Run()
	if err != nil {
		// An error here would mean an invariant violation — the checker
		// aborts the run at the first broken accounting identity.
		return err
	}

	completed, terminal, killedAndFinished := 0, 0, 0
	for _, js := range res.Jobs {
		switch {
		case js.Completed:
			completed++
			if js.Kills > 0 {
				killedAndFinished++
			}
		case js.TerminallyFailed:
			terminal++
		}
	}

	f := res.Faults
	fmt.Printf("workload          %d jobs over %v on %d nodes, invariant checker hot\n",
		spec.JobCount(), cfg.Duration, opts.Cluster.Nodes)
	fmt.Printf("injected          %d node crashes, %d membw dropouts, %d stragglers\n",
		f.NodeCrashes, f.MembwDropouts, f.Stragglers)
	fmt.Printf("job kills         %d (%d injected failures), %d requeues\n",
		f.JobKills, f.JobFailures, f.Requeues)
	fmt.Printf("outcomes          %d completed (%d despite being killed), %d terminally failed\n",
		completed, killedAndFinished, terminal)
	fmt.Printf("cost of chaos     %v goodput lost, %d degraded telemetry samples\n",
		f.GoodputLost.Truncate(time.Second), f.DegradedSamples)
	fmt.Println("\nevery admitted job is accounted for: completed within its retry")
	fmt.Println("budget or terminally reported — the conservation invariant held")
	fmt.Println("after every one of the run's events.")
	return nil
}
