// Allocator example: run each of the paper's eight benchmark models under
// CODA's adaptive CPU allocator and watch the feedback search converge to
// the model's optimal core count in at most four profiling steps (§V-B,
// Table II).
package main

import (
	"fmt"
	"log"
	"time"

	"github.com/coda-repro/coda/internal/core"
	"github.com/coda-repro/coda/internal/job"
	"github.com/coda-repro/coda/internal/perfmodel"
	"github.com/coda-repro/coda/internal/sim"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	fmt.Println("model        category  requested  Nstart->tuned  optimal  steps")
	for _, name := range perfmodel.Names() {
		model, err := perfmodel.Lookup(name)
		if err != nil {
			return err
		}
		opt, err := model.OptimalCores(perfmodel.Config{Nodes: 1, GPUs: 1}, 0)
		if err != nil {
			return err
		}

		// The allocator keeps a job's step count only while the job runs,
		// so stop at 1 h: the job holds 2 h of work and settles in minutes.
		opts := sim.DefaultOptions()
		opts.Cluster.Nodes = 1
		opts.MaxVirtualTime = time.Hour
		coda, err := core.New(core.DefaultConfig(),
			opts.Cluster.Nodes, opts.Cluster.CoresPerNode, opts.Cluster.GPUsPerNode)
		if err != nil {
			return err
		}

		// The owner requests the cluster-typical 2 cores (§III-A: 76.1% of
		// jobs request 1-2 cores).
		j := &job.Job{
			ID: 1, Kind: job.KindGPUTraining, Tenant: 1,
			Category: model.Category, Model: name,
			Request: job.Request{CPUCores: 2, GPUs: 1, Nodes: 1},
			Work:    2 * time.Hour,
		}
		nstart := coda.Allocator().InitialCores(j)

		simulator, err := sim.New(opts, coda, []*job.Job{j})
		if err != nil {
			return err
		}
		res, err := simulator.Run()
		if err != nil {
			return err
		}
		steps, _ := coda.Allocator().ProfileSteps(1)
		fmt.Printf("%-12s %-9s %-10d %2d -> %-8d %-8d %d\n",
			name, model.Category, j.Request.CPUCores,
			nstart, res.Jobs[1].FinalCores, opt, steps)
	}
	return nil
}
