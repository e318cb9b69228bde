package soak

import (
	"errors"
	"fmt"
	"time"

	"github.com/coda-repro/coda/internal/checkpoint"
	"github.com/coda-repro/coda/internal/ctl"
	"github.com/coda-repro/coda/internal/sim"
	"github.com/coda-repro/coda/internal/trace"
)

// Outcome is one executed matrix cell: the pristine spec it was built
// from and the result (or error) the runner produced. The spec must be
// the unexecuted original — resume-equivalence re-runs it, and a spec
// whose jobs a previous run already mutated would poison the replay.
type Outcome struct {
	Spec   sim.RunSpec
	Result *sim.Result
	Err    error
}

// Verdict is one evaluated condition, JSON-shaped for the report.
type Verdict struct {
	// Check and Threshold restate the condition.
	Check     string  `json:"check"`
	Threshold float64 `json:"threshold"`
	// Measured is the value the check reduced the run to.
	Measured float64 `json:"measured"`
	// Pass is the comparison outcome.
	Pass bool `json:"pass"`
	// Detail explains a failure (first divergence, counter insanity, ...).
	Detail string `json:"detail,omitempty"`
}

// Eval evaluates one condition against an outcome. A cell that errored
// fails every condition with the run error as detail.
func Eval(c Condition, o *Outcome) Verdict {
	v := Verdict{Check: string(c.Check), Threshold: c.Threshold}
	if err := c.Validate(); err != nil {
		v.Detail = err.Error()
		return v
	}
	if o.Err != nil {
		v.Detail = "run failed: " + o.Err.Error()
		return v
	}
	if o.Result == nil {
		v.Detail = "run produced no result"
		return v
	}
	if c.Check == CheckResumeEquivalence {
		return evalResumeEquivalence(c, o)
	}
	if c.Check == CheckServeKillEquivalence {
		return evalServeKillEquivalence(c, o)
	}

	res := o.Result
	switch c.Check {
	case CheckCompletionFloor:
		v.Measured = completionRatio(res)
	case CheckQueueP99Ceiling:
		v.Measured = res.GPUQueue.Percentile(99).Seconds()
	case CheckQueueP99RatioCeiling:
		if res.LastArrival > 0 {
			v.Measured = res.GPUQueue.Percentile(99).Seconds() / res.LastArrival.Seconds()
		}
	case CheckTerminalFailureRatioCeiling:
		total, _, failed := jobCounts(res)
		if total > 0 {
			v.Measured = float64(failed) / float64(total)
		}
	case CheckFaultCountersSane:
		if err := res.Faults.Sane(); err != nil {
			v.Detail = err.Error()
		} else {
			v.Measured = 1
		}
	case CheckInvariantsClean:
		// An invariant violation fails the run itself, so reaching this
		// point with the checker enabled means every audit passed.
		if o.Spec.Options.Invariants {
			v.Measured = 1
		} else {
			v.Detail = "run executed without the invariant checker enabled"
		}
	case CheckNodeCrashesFloor:
		v.Measured = float64(res.Faults.NodeCrashes)
	case CheckStragglersFloor:
		v.Measured = float64(res.Faults.Stragglers)
	case CheckDegradedSamplesFloor:
		v.Measured = float64(res.Faults.DegradedSamples)
	case CheckControllerKillsFloor:
		v.Measured = float64(res.Faults.ControllerKills)
	default:
		v.Detail = fmt.Sprintf("check %q has no evaluator", c.Check)
		return v
	}
	v.Pass = compare(c, v.Measured)
	return v
}

// EvalAll evaluates every condition in order.
func EvalAll(conds []Condition, o *Outcome) []Verdict {
	out := make([]Verdict, len(conds))
	for i, c := range conds {
		out[i] = Eval(c, o)
	}
	return out
}

// compare applies the check's direction.
func compare(c Condition, measured float64) bool {
	if checkByName[c.Check].ceiling {
		return measured <= c.Threshold
	}
	return measured >= c.Threshold
}

// completionRatio is completed jobs over all generated jobs.
func completionRatio(res *sim.Result) float64 {
	total, completed, _ := jobCounts(res)
	if total == 0 {
		return 0
	}
	return float64(completed) / float64(total)
}

// jobCounts tallies job dispositions. Iterating the map is sound here:
// integer counting is order-insensitive.
func jobCounts(res *sim.Result) (total, completed, failed int) {
	for _, js := range res.Jobs {
		total++
		if js.Completed {
			completed++
		}
		if js.TerminallyFailed {
			failed++
		}
	}
	return total, completed, failed
}

// maxRecoveryRestarts bounds the replay loop: a recipe whose plan kills
// the controller more often than this is a configuration bug, not a soak.
const maxRecoveryRestarts = 64

// evalResumeEquivalence replays the cell with ExitOnControllerKill set,
// checkpointing as it goes and restarting from the latest checkpoint after
// every kill — the crash-recovery discipline a real deployment would run
// under. The replayed result must be byte-identical to the uninterrupted
// baseline (the cell's own result), and the controller must actually have
// died at least Threshold times, so a plan without kills cannot pass
// vacuously. sim.FirstDiff names the first divergent dump line on failure.
func evalResumeEquivalence(c Condition, o *Outcome) Verdict {
	v := Verdict{Check: string(c.Check), Threshold: c.Threshold}
	want := sim.DumpResult(o.Result)

	template := o.Spec.Clone()
	template.Options.ExitOnControllerKill = true
	every := template.Options.Faults.Horizon / 24
	if every <= 0 {
		every = time.Hour
	}
	template.Options.CheckpointEvery = every

	// The sink keeps only the latest checkpoint, round-tripped through the
	// CODACKPT envelope so the replay exercises real serialization.
	var latest []byte
	sink := func(ck *sim.Checkpoint) error {
		data, err := checkpoint.Encode(ck)
		if err != nil {
			return err
		}
		latest = data
		return nil
	}
	template.Options.CheckpointSink = sink

	deaths := 0
	var res *sim.Result
	for restarts := 0; ; restarts++ {
		if restarts > maxRecoveryRestarts {
			v.Measured = float64(deaths)
			v.Detail = fmt.Sprintf("gave up after %d restarts; the plan kills faster than it checkpoints", restarts)
			return v
		}
		s, err := startOrResume(template, latest, sink)
		if err != nil {
			v.Measured = float64(deaths)
			v.Detail = err.Error()
			return v
		}
		s.SetSurvivedKills(deaths)
		r, err := s.Run()
		if errors.Is(err, sim.ErrControllerKilled) {
			deaths++
			continue
		}
		if err != nil {
			v.Measured = float64(deaths)
			v.Detail = "replay failed: " + err.Error()
			return v
		}
		res = r
		break
	}
	v.Measured = float64(deaths)

	got := sim.DumpResult(res)
	if got != want {
		v.Detail = "kill-and-resume diverged from the uninterrupted run at " + sim.FirstDiff(want, got)
		return v
	}
	if !compare(c, v.Measured) {
		v.Detail = fmt.Sprintf("controller died %d times; the condition demands at least %g to prove anything", deaths, c.Threshold)
		return v
	}
	v.Pass = true
	return v
}

// evalServeKillEquivalence runs the control-plane drill over the cell's
// spec: its trace becomes a scripted request stream (with drop/dup/swap
// client chaos and periodic cancels), served once uninterrupted and once
// through Threshold seeded process kills, each recovered from the latest
// machine checkpoint plus a WAL suffix replay. Measured is the number of
// kills survived; byte-identity of the two final dumps is mandatory.
func evalServeKillEquivalence(c Condition, o *Outcome) Verdict {
	v := Verdict{Check: string(c.Check), Threshold: c.Threshold}
	spec := o.Spec
	drill := ctl.DrillConfig{
		Seed:            spec.Options.Seed,
		Chaos:           ctl.RequestChaos{DropProb: 0.05, DupProb: 0.05, SwapProb: 0.1},
		Kills:           int(c.Threshold),
		CancelEvery:     10,
		Tick:            5 * time.Minute,
		CheckpointEvery: 20,
		Horizon:         spec.Options.MaxVirtualTime,
	}
	// The drill scripts a request stream from explicit jobs, so the trace
	// is materialized here, where the drill's own memory needs (request
	// log, WAL) are O(jobs) anyway.
	jobs, err := trace.Generate(*spec.Trace)
	if err != nil {
		v.Detail = "drill trace: " + err.Error()
		return v
	}
	rep, err := ctl.RunKillDrill(spec.Options, spec.NewScheduler, jobs, drill)
	if err != nil {
		v.Detail = "drill failed: " + err.Error()
		return v
	}
	v.Measured = float64(rep.Kills)
	if rep.Diff != "" {
		v.Detail = "kill-and-recover diverged from the uninterrupted serve at " + rep.Diff
		return v
	}
	if !compare(c, v.Measured) {
		v.Detail = fmt.Sprintf("serving process died %d times; the condition demands at least %g to prove anything", rep.Kills, c.Threshold)
		return v
	}
	v.Pass = true
	return v
}

// startOrResume builds the next simulator attempt: from the latest
// checkpoint when one exists, cold otherwise. Cold starts stream a fresh
// source from the template's trace config.
func startOrResume(template sim.RunSpec, latest []byte, sink sim.CheckpointSink) (*sim.Simulator, error) {
	scheduler, err := template.NewScheduler()
	if err != nil {
		return nil, fmt.Errorf("replay scheduler: %w", err)
	}
	if latest == nil {
		src, err := trace.NewSource(*template.Trace)
		if err != nil {
			return nil, fmt.Errorf("replay trace source: %w", err)
		}
		s, err := sim.NewStreaming(template.Options, scheduler, src)
		if err != nil {
			return nil, fmt.Errorf("replay cold start: %w", err)
		}
		return s, nil
	}
	var ck sim.Checkpoint
	if err := checkpoint.Decode(latest, &ck); err != nil {
		return nil, fmt.Errorf("replay checkpoint decode: %w", err)
	}
	s, err := sim.Resume(&ck, scheduler, sink)
	if err != nil {
		return nil, fmt.Errorf("replay resume: %w", err)
	}
	return s, nil
}
