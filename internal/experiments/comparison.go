package experiments

import (
	"context"
	"fmt"

	"github.com/coda-repro/coda/internal/core"
	"github.com/coda-repro/coda/internal/runner"
	"github.com/coda-repro/coda/internal/sim"
)

// parallelism is the worker-pool width experiments hand to the runner when
// they execute a matrix; 0 means GOMAXPROCS. It is a plain variable read
// on the caller's goroutine (this package holds no locks): set it once at
// startup, before running experiments.
var parallelism int

// SetParallelism sets the worker-pool width for every experiment matrix;
// n <= 0 restores the GOMAXPROCS default. Call before experiments run.
func SetParallelism(n int) {
	if n < 0 {
		n = 0
	}
	parallelism = n
}

// runMatrix executes a matrix with the package-wide parallelism.
func runMatrix(m *runner.Matrix) ([]*sim.Result, error) {
	return runner.Run(context.Background(), m, runner.Options{Parallel: parallelism})
}

// headline is the comparison's policies in cell order.
var headline = []string{"fifo", "drf", "coda"}

// Comparison holds one trace replayed under all three schedulers.
type Comparison struct {
	// FIFO, DRF and CODA are the per-scheduler results.
	FIFO, DRF, CODA *sim.Result
}

// ComparisonMatrix declares the headline three-scheduler replay for one
// scale: the same trace and simulation options under FIFO, DRF and CODA,
// in that cell order. Each cell streams its own source from a copy of the
// trace config, so the runs share nothing.
func ComparisonMatrix(sc Scale) (*runner.Matrix, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	m := &runner.Matrix{}
	for _, policy := range headline {
		m.Add(sc.Spec(policy, core.DefaultConfig()))
	}
	return m, nil
}

// comparison runs are memoized per scale: Figs. 10-14 and §VI-C all read
// the same three runs. The cache lives in a runner.Memo so this package
// stays free of sync primitives.
var comparisons runner.Memo[Scale, *Comparison]

// RunComparison replays the scale's trace under FIFO, DRF and CODA.
// Results are cached per scale for the life of the process.
func RunComparison(sc Scale) (*Comparison, error) {
	return comparisons.Do(sc, func() (*Comparison, error) {
		m, err := ComparisonMatrix(sc)
		if err != nil {
			return nil, err
		}
		results, err := runMatrix(m)
		if err != nil {
			return nil, err
		}
		return &Comparison{FIFO: results[0], DRF: results[1], CODA: results[2]}, nil
	})
}

// MultiSeedComparison is the seed-sweep variant of the comparison: the
// same trace replayed under every scheduler at several simulation-noise
// seeds, aggregated per scheduler.
type MultiSeedComparison struct {
	// FIFO, DRF and CODA aggregate each scheduler's runs across seeds.
	FIFO, DRF, CODA *sim.Merged
}

// MultiSeedComparisonMatrix declares the seed sweep: for each scheduler
// (FIFO, DRF, CODA — cell-major), one cell per seed. With R seeds, cells
// [0,R) are FIFO, [R,2R) DRF, [2R,3R) CODA.
func MultiSeedComparisonMatrix(sc Scale, seeds []int64) (*runner.Matrix, error) {
	if len(seeds) == 0 {
		return nil, fmt.Errorf("experiments: multi-seed comparison needs at least one seed")
	}
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	m := &runner.Matrix{}
	for _, policy := range headline {
		m.AddSeeds(sc.Spec(policy, core.DefaultConfig()), seeds...)
	}
	return m, nil
}

// RunMultiSeedComparison executes the seed sweep and merges each
// scheduler's runs. Not cached.
func RunMultiSeedComparison(sc Scale, seeds []int64) (*MultiSeedComparison, error) {
	m, err := MultiSeedComparisonMatrix(sc, seeds)
	if err != nil {
		return nil, err
	}
	results, err := runMatrix(m)
	if err != nil {
		return nil, err
	}
	r := len(seeds)
	fifo, err := sim.MergeResults(results[0:r])
	if err != nil {
		return nil, err
	}
	drf, err := sim.MergeResults(results[r : 2*r])
	if err != nil {
		return nil, err
	}
	coda, err := sim.MergeResults(results[2*r : 3*r])
	if err != nil {
		return nil, err
	}
	return &MultiSeedComparison{FIFO: fifo, DRF: drf, CODA: coda}, nil
}

// RunCODAVariant replays the scale's trace under a custom CODA
// configuration (used by the §VI-E ablation and the design-choice
// ablations). Not cached. The run executes on the calling goroutine — a
// single cell needs no pool.
func RunCODAVariant(sc Scale, cfg core.Config) (*sim.Result, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	spec := sc.Spec("coda", cfg)
	spec.Name = "coda-variant"
	return spec.Run()
}
