// Package soak turns the repository's chaos machinery into named,
// repeatable month-scale scenarios with machine-checked verdicts. A Recipe
// is a description of a hostile world — a composed chaos.Plan plus the
// trace and cluster shape it runs against — and a list of declarative
// Conditions evaluated against the sim.Result: goodput floors, queueing-
// time ceilings, fault-counter sanity, invariants-clean, and a resume-
// equivalence spot check that replays the run through mid-run controller
// kills and proves byte-identity via sim.FirstDiff. RunMatrix fans the
// recipe × seed grid through internal/runner and reports verdicts in
// matrix order, so the same grid always produces the same report bytes.
//
// The package is deliberately below cmd in the layer spec and free of
// os/sync/wall-clock use: everything host-facing (flags, JSON encoding to
// stdout, exit codes) lives in cmd/coda-soak.
package soak

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"

	"github.com/coda-repro/coda/internal/chaos"
	"github.com/coda-repro/coda/internal/core"
	"github.com/coda-repro/coda/internal/experiments"
	"github.com/coda-repro/coda/internal/sim"
)

// CheckKind names one verdict check. Every check reduces the run to a
// single float64 measurement and compares it against the condition's
// threshold: floor checks pass when measured >= threshold, ceiling checks
// when measured <= threshold. Boolean checks (sanity, invariants) measure
// 1 for healthy and 0 otherwise, so "check=1" demands health.
type CheckKind string

const (
	// CheckCompletionFloor measures the fraction of generated jobs that
	// completed (terminally failed and never-finished jobs both count
	// against it).
	CheckCompletionFloor CheckKind = "completion-floor"
	// CheckQueueP99Ceiling measures the p99 GPU queueing time in seconds.
	// Absolute ceilings only make sense at one known scale; recipes use the
	// ratio form below so one threshold holds from tiny to full.
	CheckQueueP99Ceiling CheckKind = "queue-p99-ceiling"
	// CheckQueueP99RatioCeiling measures the p99 GPU queueing time as a
	// fraction of the trace window (LastArrival): 0.1 means the slowest
	// percentile waited a tenth of the run. Scale-invariant by
	// construction, so recipes can pin one threshold for every preset.
	CheckQueueP99RatioCeiling CheckKind = "queue-p99-ratio-ceiling"
	// CheckTerminalFailureRatioCeiling measures terminally-failed jobs as a
	// fraction of all generated jobs.
	CheckTerminalFailureRatioCeiling CheckKind = "terminal-failure-ratio-ceiling"
	// CheckFaultCountersSane measures 1 when the run's fault counters pass
	// metrics.FaultCounters.Sane, 0 otherwise.
	CheckFaultCountersSane CheckKind = "fault-counters-sane"
	// CheckInvariantsClean measures 1 when the run executed with the
	// always-on invariant checker enabled (a violation would have failed
	// the run outright), 0 when invariants were off.
	CheckInvariantsClean CheckKind = "invariants-clean"
	// CheckNodeCrashesFloor measures the injected node-crash count — a
	// chaos recipe that injected nothing proves nothing.
	CheckNodeCrashesFloor CheckKind = "node-crashes-floor"
	// CheckStragglersFloor measures the injected straggler-window count.
	CheckStragglersFloor CheckKind = "stragglers-floor"
	// CheckDegradedSamplesFloor measures samples taken while bandwidth
	// telemetry was dark — the eliminator's degraded-mode exposure.
	CheckDegradedSamplesFloor CheckKind = "degraded-samples-floor"
	// CheckControllerKillsFloor measures injected controller kills.
	CheckControllerKillsFloor CheckKind = "controller-kills-floor"
	// CheckResumeEquivalence replays the whole run with ExitOnControllerKill
	// set, restarting from the latest checkpoint after each kill, and
	// measures the number of controller deaths survived. It fails unless
	// the replayed result is byte-identical to the uninterrupted run
	// (proven via sim.FirstDiff) AND at least threshold kills were
	// survived, so a kill-free run cannot vacuously pass.
	CheckResumeEquivalence CheckKind = "resume-equivalence"
	// CheckServeKillEquivalence runs the control-plane kill-and-recover
	// drill (ctl.RunKillDrill) over the cell's spec: the same scripted
	// request stream is served once uninterrupted and once through seeded
	// process kills recovered from checkpoint + WAL suffix replay. It
	// measures the number of kills survived and fails unless the two final
	// dumps are byte-identical AND at least threshold kills happened.
	CheckServeKillEquivalence CheckKind = "serve-kill-equivalence"
)

// checkInfo is the per-check metadata: direction and threshold domain.
type checkInfo struct {
	kind    CheckKind
	ceiling bool // pass when measured <= threshold; otherwise >= threshold
	ratio   bool // threshold must lie in [0, 1]
}

// checkTable fixes the canonical check order (used by listings); lookups
// go through checkByName.
var checkTable = []checkInfo{
	{kind: CheckCompletionFloor, ratio: true},
	{kind: CheckQueueP99Ceiling, ceiling: true},
	{kind: CheckQueueP99RatioCeiling, ceiling: true},
	{kind: CheckTerminalFailureRatioCeiling, ceiling: true, ratio: true},
	{kind: CheckFaultCountersSane},
	{kind: CheckInvariantsClean},
	{kind: CheckNodeCrashesFloor},
	{kind: CheckStragglersFloor},
	{kind: CheckDegradedSamplesFloor},
	{kind: CheckControllerKillsFloor},
	{kind: CheckResumeEquivalence},
	{kind: CheckServeKillEquivalence},
}

var checkByName = func() map[CheckKind]checkInfo {
	m := make(map[CheckKind]checkInfo, len(checkTable))
	for _, ci := range checkTable {
		m[ci.kind] = ci
	}
	return m
}()

// Condition is one declarative pass/fail criterion: a check plus its
// threshold. Conditions serialize as "check=threshold" (the CLI's
// -conditions syntax) and round-trip through ParseCondition.
type Condition struct {
	Check     CheckKind `json:"check"`
	Threshold float64   `json:"threshold"`
}

// String renders the condition in ParseCondition syntax.
func (c Condition) String() string {
	return string(c.Check) + "=" + strconv.FormatFloat(c.Threshold, 'g', -1, 64)
}

// Validate rejects unknown checks and out-of-domain thresholds. NaN and
// infinite thresholds are always rejected: a NaN floor silently passes
// nothing and a NaN ceiling everything, which is exactly the kind of
// self-disarming config a soak wall must refuse to load.
func (c Condition) Validate() error {
	ci, ok := checkByName[c.Check]
	if !ok {
		return fmt.Errorf("soak: unknown check %q (known: %s)", c.Check, knownChecks())
	}
	if math.IsNaN(c.Threshold) || math.IsInf(c.Threshold, 0) {
		return fmt.Errorf("soak: condition %s: threshold must be finite, got %g", c.Check, c.Threshold)
	}
	if c.Threshold < 0 {
		return fmt.Errorf("soak: condition %s: threshold must be non-negative, got %g", c.Check, c.Threshold)
	}
	if ci.ratio && c.Threshold > 1 {
		return fmt.Errorf("soak: condition %s: threshold is a ratio in [0,1], got %g", c.Check, c.Threshold)
	}
	return nil
}

// knownChecks renders the known check names for error messages.
func knownChecks() string {
	names := make([]string, len(checkTable))
	for i, ci := range checkTable {
		names[i] = string(ci.kind)
	}
	return strings.Join(names, ", ")
}

// ParseCondition parses "check=threshold" into a validated Condition.
func ParseCondition(s string) (Condition, error) {
	name, val, ok := strings.Cut(s, "=")
	name, val = strings.TrimSpace(name), strings.TrimSpace(val)
	if !ok || name == "" || val == "" {
		return Condition{}, fmt.Errorf("soak: condition %q is not of the form check=threshold", s)
	}
	th, err := strconv.ParseFloat(val, 64)
	if err != nil {
		return Condition{}, fmt.Errorf("soak: condition %q: bad threshold: %v", s, err)
	}
	c := Condition{Check: CheckKind(name), Threshold: th}
	if err := c.Validate(); err != nil {
		return Condition{}, err
	}
	return c, nil
}

// Recipe is one named soak scenario: the faults it injects into a run of
// the scale's trace under CODA, plus the conditions its result must
// satisfy. Recipes are values; the registry in recipes.go is the single
// source of truth for what exists.
type Recipe struct {
	// Name identifies the recipe on the CLI and in reports.
	Name string
	// Description is the one-line story of what the recipe stresses.
	Description string
	// Conditions are the verdict criteria, evaluated in order.
	Conditions []Condition
	// plan composes the recipe's faults for a run of horizon h on a
	// cluster of nodes GPU nodes. Fault times are fractions of h, so one
	// recipe definition works at every scale; Build sets the plan's seed
	// and horizon.
	plan func(h time.Duration, nodes int) chaos.Plan
}

// Build composes the recipe's run spec for one (seed, scale) cell: the
// scale's spec under CODA seeded by the cell seed (the trace and the fault
// plan take the seed itself, the measurement noise seed+1000, so the
// streams never collide), the invariant checker on (delta check every
// event, full audit every 256), and the recipe's chaos plan — validated
// here, so a malformed plan fails at build time with the recipe's name
// attached instead of surfacing mid-run.
func (r Recipe) Build(seed int64, sc experiments.Scale) (sim.RunSpec, error) {
	if r.plan == nil {
		return sim.RunSpec{}, fmt.Errorf("soak: recipe %q has no plan", r.Name)
	}
	if err := sc.Validate(); err != nil {
		return sim.RunSpec{}, err
	}
	sc.Seed = seed
	spec := sc.Spec("coda", core.DefaultConfig())
	spec.Name = fmt.Sprintf("%s/seed=%d", r.Name, seed)
	spec.Options.Invariants = true
	spec.Options.InvariantsEvery = 256

	plan := r.plan(sc.Duration(), sc.Nodes)
	plan.Seed = seed
	plan.Horizon = sc.Duration()
	if !plan.Empty() {
		if err := plan.Validate(spec.Options.Cluster.TotalNodes()); err != nil {
			return sim.RunSpec{}, fmt.Errorf("soak: recipe %s: %w", r.Name, err)
		}
	}
	spec.Options.Faults = plan
	return spec, nil
}

// Validate checks the recipe definition itself.
func (r Recipe) Validate() error {
	if r.Name == "" {
		return fmt.Errorf("soak: recipe has no name")
	}
	if r.Description == "" {
		return fmt.Errorf("soak: recipe %q has no description", r.Name)
	}
	if r.plan == nil {
		return fmt.Errorf("soak: recipe %q has no plan", r.Name)
	}
	if len(r.Conditions) == 0 {
		return fmt.Errorf("soak: recipe %q has no conditions; a soak without a verdict is a warmer", r.Name)
	}
	for _, c := range r.Conditions {
		if err := c.Validate(); err != nil {
			return fmt.Errorf("soak: recipe %q: %w", r.Name, err)
		}
	}
	return nil
}

// Names lists the registry's recipe names in canonical (matrix) order.
func Names() []string {
	rs := Recipes()
	names := make([]string, len(rs))
	for i, r := range rs {
		names[i] = r.Name
	}
	return names
}

// Lookup resolves a recipe by name.
func Lookup(name string) (Recipe, error) {
	for _, r := range Recipes() {
		if r.Name == name {
			return r, nil
		}
	}
	return Recipe{}, fmt.Errorf("soak: unknown recipe %q (known: %s)", name, strings.Join(Names(), ", "))
}
