package soak

import (
	"context"
	"encoding/json"
	"fmt"

	"github.com/coda-repro/coda/internal/experiments"
	"github.com/coda-repro/coda/internal/runner"
	"github.com/coda-repro/coda/internal/sim"
)

// MatrixSpec describes one recipe × seed grid.
type MatrixSpec struct {
	// Recipes are the scenarios to run, in matrix (row) order.
	Recipes []Recipe
	// Seeds are the per-recipe seeds, in column order.
	Seeds []int64
	// Scale sizes every cell.
	Scale experiments.Scale
	// Parallel is the runner worker-pool width (0 = GOMAXPROCS).
	Parallel int
	// ExtraConditions are appended to every recipe's condition list —
	// the CLI's -conditions override.
	ExtraConditions []Condition
}

// Validate rejects malformed grids before anything runs.
func (ms MatrixSpec) Validate() error {
	if len(ms.Recipes) == 0 {
		return fmt.Errorf("soak: matrix has no recipes")
	}
	if len(ms.Seeds) == 0 {
		return fmt.Errorf("soak: matrix has no seeds")
	}
	if err := ms.Scale.Validate(); err != nil {
		return err
	}
	seen := make(map[string]bool, len(ms.Recipes))
	for _, r := range ms.Recipes {
		if err := r.Validate(); err != nil {
			return err
		}
		if seen[r.Name] {
			return fmt.Errorf("soak: recipe %q appears twice in the matrix", r.Name)
		}
		seen[r.Name] = true
	}
	for _, c := range ms.ExtraConditions {
		if err := c.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// CellVerdict is one (recipe, seed) cell's verdict in the report.
type CellVerdict struct {
	// Recipe and Seed identify the cell; Name is the run-spec name
	// ("<recipe>/seed=<seed>").
	Recipe string `json:"recipe"`
	Seed   int64  `json:"seed"`
	Name   string `json:"name"`
	// Pass is the conjunction of every condition verdict; a cell whose run
	// errored fails with Error set.
	Pass  bool   `json:"pass"`
	Error string `json:"error,omitempty"`
	// Jobs, GPUJobsDone and CPUJobsDone summarize throughput; MakespanNs
	// is the simulated end time in nanoseconds (an integer, so the report
	// bytes stay platform-stable).
	Jobs        int   `json:"jobs"`
	GPUJobsDone int   `json:"gpuJobsDone"`
	CPUJobsDone int   `json:"cpuJobsDone"`
	MakespanNs  int64 `json:"makespanNs"`
	// Faults restates the run's fault counters.
	Faults FaultSummary `json:"faults"`
	// Conditions are the per-condition verdicts, in recipe order (extra
	// matrix-level conditions follow the recipe's own).
	Conditions []Verdict `json:"conditions"`
}

// FaultSummary is the report-facing projection of metrics.FaultCounters,
// with explicit JSON names so the report schema is independent of the
// metrics struct's field order.
type FaultSummary struct {
	NodeCrashes      int   `json:"nodeCrashes"`
	NodeRecoveries   int   `json:"nodeRecoveries"`
	MembwDropouts    int   `json:"membwDropouts"`
	Stragglers       int   `json:"stragglers"`
	JobKills         int   `json:"jobKills"`
	JobFailures      int   `json:"jobFailures"`
	Requeues         int   `json:"requeues"`
	TerminalFailures int   `json:"terminalFailures"`
	DegradedSamples  int   `json:"degradedSamples"`
	ControllerKills  int   `json:"controllerKills"`
	GoodputLostNs    int64 `json:"goodputLostNs"`
}

// Report is the full matrix verdict, shaped for stable JSON encoding: the
// field order is fixed by the struct, map-free, and every number is either
// an integer or a float produced by deterministic arithmetic, so the same
// grid at the same scale always serializes to the same bytes.
type Report struct {
	// Scale and Seeds restate the grid.
	Scale experiments.Scale `json:"scale"`
	Seeds []int64           `json:"seeds"`
	// Recipes are the row names in matrix order.
	Recipes []string `json:"recipes"`
	// Pass is the conjunction of every cell verdict; Failed counts the
	// failing cells.
	Pass   bool `json:"pass"`
	Failed int  `json:"failed"`
	// Cells are the per-cell verdicts, recipe-major, seed-minor.
	Cells []CellVerdict `json:"cells"`
}

// Encode renders the report as indented JSON with a trailing newline —
// the byte format the golden test pins and CI artifacts diff.
func (r *Report) Encode() ([]byte, error) {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("soak: encode report: %w", err)
	}
	return append(data, '\n'), nil
}

// RunMatrix builds every (recipe, seed) cell, executes the grid through
// the runner's worker pool without failing fast, and evaluates each
// recipe's conditions against its cells in matrix order. The error return
// is reserved for grid-level problems (validation, a recipe that fails to
// build); per-cell run failures become failing cells in the report.
func RunMatrix(ctx context.Context, ms MatrixSpec) (*Report, error) {
	if err := ms.Validate(); err != nil {
		return nil, err
	}

	// Build every cell up front, keeping the pristine spec: the runner
	// executes a clone, so the kept copy stays unmutated for condition
	// evaluation (resume-equivalence replays it from scratch).
	type cell struct {
		recipe Recipe
		seed   int64
		spec   sim.RunSpec
	}
	cells := make([]cell, 0, len(ms.Recipes)*len(ms.Seeds))
	var m runner.Matrix
	for _, r := range ms.Recipes {
		for _, seed := range ms.Seeds {
			sp, err := r.Build(seed, ms.Scale)
			if err != nil {
				return nil, err
			}
			cells = append(cells, cell{recipe: r, seed: seed, spec: sp})
			m.Add(sp)
		}
	}

	results, errs := runner.RunAll(ctx, &m, runner.Options{Parallel: ms.Parallel})

	rep := &Report{
		Scale:   ms.Scale,
		Seeds:   append([]int64(nil), ms.Seeds...),
		Recipes: make([]string, len(ms.Recipes)),
		Pass:    true,
	}
	for i, r := range ms.Recipes {
		rep.Recipes[i] = r.Name
	}
	for i, c := range cells {
		cv := CellVerdict{
			Recipe: c.recipe.Name,
			Seed:   c.seed,
			Name:   c.spec.Name,
			Jobs:   c.spec.JobCount(),
		}
		outcome := &Outcome{Spec: c.spec, Result: results[i], Err: errs[i]}
		if errs[i] != nil {
			cv.Error = errs[i].Error()
		}
		conds := append(append([]Condition(nil), c.recipe.Conditions...), ms.ExtraConditions...)
		cv.Conditions = EvalAll(conds, outcome)
		cv.Pass = errs[i] == nil
		for _, v := range cv.Conditions {
			if !v.Pass {
				cv.Pass = false
			}
		}
		if res := results[i]; res != nil {
			sm := res.Summarize()
			cv.GPUJobsDone = sm.GPUJobsDone
			cv.CPUJobsDone = sm.CPUJobsDone
			cv.MakespanNs = int64(res.EndTime)
			cv.Faults = FaultSummary{
				NodeCrashes:      res.Faults.NodeCrashes,
				NodeRecoveries:   res.Faults.NodeRecoveries,
				MembwDropouts:    res.Faults.MembwDropouts,
				Stragglers:       res.Faults.Stragglers,
				JobKills:         res.Faults.JobKills,
				JobFailures:      res.Faults.JobFailures,
				Requeues:         res.Faults.Requeues,
				TerminalFailures: res.Faults.TerminalFailures,
				DegradedSamples:  res.Faults.DegradedSamples,
				ControllerKills:  res.Faults.ControllerKills,
				GoodputLostNs:    int64(res.Faults.GoodputLost),
			}
		}
		if !cv.Pass {
			rep.Failed++
			rep.Pass = false
		}
		rep.Cells = append(rep.Cells, cv)
	}
	return rep, nil
}

// Grid is a convenience for the CLI: resolve recipe names (empty means
// the whole registry), build the MatrixSpec, and run it.
func Grid(ctx context.Context, names []string, seeds []int64, sc experiments.Scale, parallel int, extra []Condition) (*Report, error) {
	var recipes []Recipe
	if len(names) == 0 {
		recipes = Recipes()
	} else {
		for _, name := range names {
			r, err := Lookup(name)
			if err != nil {
				return nil, err
			}
			recipes = append(recipes, r)
		}
	}
	return RunMatrix(ctx, MatrixSpec{
		Recipes:         recipes,
		Seeds:           seeds,
		Scale:           sc,
		Parallel:        parallel,
		ExtraConditions: extra,
	})
}
