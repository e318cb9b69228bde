// Package runner executes a Matrix of independent simulation runs across a
// bounded worker pool. It is the only deterministic-adjacent package in
// this repository allowed to use goroutines (coda-vet's
// no-stray-goroutines allowlist admits it beside the mutex-guarded
// internal/history and internal/ctl, which hold locks but start no
// goroutines): the simulator stays a sealed, single-threaded world, and
// parallelism exists purely between runs, never inside one.
//
// The determinism argument: every RunSpec is deep-copied when it is added
// to a Matrix, so each run owns its options, fault plan and trace config
// outright; each sim.Simulator then builds its own trace source, RNG,
// cluster, scheduler and metrics from that sealed spec. No memory is shared between in-flight
// runs, and results are delivered by matrix index rather than completion
// order. Scheduling runs across more workers therefore changes wall-clock
// interleaving only — per-run results are byte-identical to sequential
// execution, which TestParallelMatchesSequential proves with bit-exact
// dumps.
package runner

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"

	"github.com/coda-repro/coda/internal/sim"
)

// Matrix is an ordered list of runs to execute. The zero value is ready to
// use. Add deep-copies every spec, so a caller can build many matrix cells
// from one template spec and mutate the template between Adds.
type Matrix struct {
	specs []sim.RunSpec
}

// Add appends a deep copy of the spec as the next cell.
func (m *Matrix) Add(sp sim.RunSpec) {
	m.specs = append(m.specs, sp.Clone())
}

// AddSeeds appends one cell per seed: each is a deep copy of the template
// with the simulator noise seed and fault-plan seed replaced, named
// "<name>/seed=<seed>". One template spec fans out into a whole seed
// sweep.
func (m *Matrix) AddSeeds(sp sim.RunSpec, seeds ...int64) {
	for _, seed := range seeds {
		cell := sp.Clone()
		cell.Name = fmt.Sprintf("%s/seed=%d", sp.Name, seed)
		cell.Options.Seed = seed
		if !cell.Options.Faults.Empty() {
			cell.Options.Faults.Seed = seed
		}
		m.specs = append(m.specs, cell)
	}
}

// Len returns the cell count.
func (m *Matrix) Len() int { return len(m.specs) }

// Names returns the cell names in matrix order.
func (m *Matrix) Names() []string {
	names := make([]string, len(m.specs))
	for i, sp := range m.specs {
		names[i] = sp.Name
	}
	return names
}

// Options configures matrix execution.
type Options struct {
	// Parallel is the worker-pool width. Zero or negative means
	// runtime.GOMAXPROCS(0); 1 executes the matrix strictly sequentially
	// on a single worker.
	Parallel int
}

// workers returns the effective pool width for n cells.
func (o Options) workers(n int) int {
	w := o.Parallel
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	return w
}

// Run executes every cell of the matrix and returns the results in matrix
// order, regardless of completion order. Execution is fail-fast: the first
// run error (or a context cancellation) stops workers from starting
// further cells, already-running cells finish, and the error return joins
// every failure — each wrapped with its cell name — plus the context's
// error if it was cancelled. On error the result slice is still returned,
// with a nil entry for every cell that failed or never started.
func Run(ctx context.Context, m *Matrix, opts Options) ([]*sim.Result, error) {
	results, errs, ctxErr := execute(ctx, m, opts, true)

	// Aggregate in matrix order so the joined error is deterministic.
	var failures []error
	for _, err := range errs {
		if err != nil {
			failures = append(failures, err)
		}
	}
	if len(failures) > 0 {
		return results, errors.Join(failures...)
	}
	// No run failed, yet the context is done: the caller cancelled us.
	return results, ctxErr
}

// RunAll executes every cell like Run but never fails fast: one cell's
// error does not stop the others, and per-cell outcomes come back as
// parallel slices — results[i] and errs[i] are mutually exclusive for each
// cell i. Only a caller-side context cancellation stops the matrix early; a
// cell that never started because of it carries the context's error. The
// soak harness uses this so one broken recipe still yields verdicts for the
// rest of the grid.
func RunAll(ctx context.Context, m *Matrix, opts Options) ([]*sim.Result, []error) {
	results, errs, ctxErr := execute(ctx, m, opts, false)
	if ctxErr != nil {
		for i := range errs {
			if results[i] == nil && errs[i] == nil {
				errs[i] = fmt.Errorf("run %q: %w", m.specs[i].Name, ctxErr)
			}
		}
	}
	return results, errs
}

// execute is the shared worker pool behind Run and RunAll. It returns
// per-cell results and errors in matrix order plus the context's final
// error. With failFast set, the first cell error cancels the feed (matching
// Run's contract); otherwise every cell is attempted.
func execute(ctx context.Context, m *Matrix, opts Options, failFast bool) ([]*sim.Result, []error, error) {
	n := m.Len()
	results := make([]*sim.Result, n)
	errs := make([]error, n)
	if n == 0 {
		return results, errs, ctx.Err()
	}

	// Workers pull cell indices from a channel. A dedicated cancel lets a
	// fail-fast failure stop the feed without affecting the caller's context.
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	indices := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < opts.workers(n); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range indices {
				// An index may already be in flight from the feeder when the
				// run is cancelled; drain it without executing.
				if ctx.Err() != nil {
					continue
				}
				res, err := m.specs[i].Run()
				if err != nil {
					errs[i] = fmt.Errorf("run %q: %w", m.specs[i].Name, err)
					if failFast {
						cancel()
					}
					continue
				}
				results[i] = res
			}
		}()
	}

feed:
	for i := 0; i < n; i++ {
		select {
		case indices <- i:
		case <-ctx.Done():
			break feed
		}
	}
	close(indices)
	wg.Wait()
	return results, errs, ctx.Err()
}
