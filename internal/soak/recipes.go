package soak

import (
	"time"

	"github.com/coda-repro/coda/internal/chaos"
)

// Recipes returns the recipe registry in canonical matrix order. The order
// is part of the report contract: golden verdict files and CI diffs depend
// on it, so append new recipes at the end.
func Recipes() []Recipe {
	return []Recipe{
		quietBaseline(),
		crashHeavyDiurnalMonth(),
		controllerKillStorm(),
		drainHalfClusterMidmonth(),
		telemetryDarkWeek(),
		stragglerCascade(),
		serveKillStorm(),
	}
}

// cond is shorthand for a Condition literal.
func cond(k CheckKind, threshold float64) Condition {
	return Condition{Check: k, Threshold: threshold}
}

// quietBaseline is the control: no injected faults at all. Its conditions
// pin the healthy envelope, so if the quiet world degrades, every chaotic
// verdict is suspect.
func quietBaseline() Recipe {
	return Recipe{
		Name:        "quiet-baseline",
		Description: "fault-free control run pinning the healthy completion and queueing envelope",
		Conditions: []Condition{
			cond(CheckCompletionFloor, 0.99),
			cond(CheckQueueP99RatioCeiling, 0.08),
			cond(CheckTerminalFailureRatioCeiling, 0),
			cond(CheckFaultCountersSane, 1),
			cond(CheckInvariantsClean, 1),
		},
		plan: func(time.Duration, int) chaos.Plan { return chaos.Plan{} },
	}
}

// crashHeavyDiurnalMonth drives the diurnal trace through a sustained
// crash regime: a steady rate of node crashes with 45-minute downtimes,
// background stragglers, and a 2% injected job-failure probability. One
// fixed crash/recover pair rides on top of the rate so the crash floor is
// deterministic at every seed — and so the fixed-plus-rate-on-one-node
// composition chaos.Plan.Validate now vouches for is exercised daily.
func crashHeavyDiurnalMonth() Recipe {
	return Recipe{
		Name:        "crash-heavy-diurnal-month",
		Description: "sustained node-crash rate with stragglers and injected job failures over the diurnal trace",
		Conditions: []Condition{
			cond(CheckCompletionFloor, 0.9),
			cond(CheckNodeCrashesFloor, 1),
			cond(CheckTerminalFailureRatioCeiling, 0.05),
			cond(CheckQueueP99RatioCeiling, 0.12),
			cond(CheckFaultCountersSane, 1),
			cond(CheckInvariantsClean, 1),
		},
		plan: func(h time.Duration, _ int) chaos.Plan {
			return chaos.Plan{
				NodeCrashesPerDay: 6,
				CrashDowntime:     45 * time.Minute,
				StragglersPerDay:  2,
				StragglerFactor:   0.5,
				StragglerDuration: time.Hour,
				JobFailureProb:    0.02,
				Faults: []chaos.Fault{
					{At: 3 * h / 10, Kind: chaos.KindNodeCrash, Node: 0},
					{At: 3*h/10 + 45*time.Minute, Kind: chaos.KindNodeRecover, Node: 0},
				},
			}
		},
	}
}

// controllerKillStorm kills the scheduler process at fixed points through
// the run while background crashes and job failures keep the cluster
// churning. Its resume-equivalence condition is the harness's hardest
// claim: replaying the run through every kill, restarting from the latest
// checkpoint each time, must reproduce the uninterrupted result bit for
// bit (sim.FirstDiff pinpoints the first divergent line otherwise).
func controllerKillStorm() Recipe {
	return Recipe{
		Name:        "controller-kill-storm",
		Description: "fixed mid-run controller kills over background churn; proves kill-and-resume byte-identity",
		Conditions: []Condition{
			cond(CheckControllerKillsFloor, 3),
			cond(CheckResumeEquivalence, 3),
			cond(CheckCompletionFloor, 0.9),
			cond(CheckFaultCountersSane, 1),
			cond(CheckInvariantsClean, 1),
		},
		plan: func(h time.Duration, _ int) chaos.Plan {
			return chaos.Plan{
				NodeCrashesPerDay: 2,
				CrashDowntime:     30 * time.Minute,
				JobFailureProb:    0.01,
				Faults: []chaos.Fault{
					{At: h / 4, Kind: chaos.KindControllerKill},
					{At: h / 2, Kind: chaos.KindControllerKill},
					{At: 3 * h / 4, Kind: chaos.KindControllerKill},
				},
			}
		},
	}
}

// drainHalfClusterMidmonth drains the lower half of the cluster for the
// middle third of the run — planned maintenance at the worst possible
// time — with a light crash rate underneath. The verdict asserts the
// scheduler absorbs the capacity loss without losing jobs, at the price of
// a wider queueing ceiling.
func drainHalfClusterMidmonth() Recipe {
	return Recipe{
		Name:        "drain-half-cluster-midmonth",
		Description: "drains half the nodes for the middle third of the run under a light crash rate",
		Conditions: []Condition{
			cond(CheckCompletionFloor, 0.9),
			cond(CheckQueueP99RatioCeiling, 0.35),
			cond(CheckTerminalFailureRatioCeiling, 0.05),
			cond(CheckFaultCountersSane, 1),
			cond(CheckInvariantsClean, 1),
		},
		plan: func(h time.Duration, nodes int) chaos.Plan {
			plan := chaos.Plan{
				NodeCrashesPerDay: 1,
				CrashDowntime:     30 * time.Minute,
			}
			for n := 0; n < nodes/2; n++ {
				plan.Faults = append(plan.Faults,
					chaos.Fault{At: 2 * h / 5, Kind: chaos.KindNodeDrain, Node: n},
					chaos.Fault{At: 7 * h / 10, Kind: chaos.KindNodeUndrain, Node: n})
			}
			return plan
		},
	}
}

// telemetryDarkWeek blinds the memory-bandwidth telemetry of the whole
// cluster for just under a quarter of the run (a week of the month), plus
// a rate of shorter per-node dropouts. The eliminator must hold its last
// decisions rather than flail, and the degraded-samples floor proves the
// dark window actually happened.
func telemetryDarkWeek() Recipe {
	return Recipe{
		Name:        "telemetry-dark-week",
		Description: "cluster-wide bandwidth-telemetry blackout for ~23% of the run plus rate-based dropouts",
		Conditions: []Condition{
			cond(CheckDegradedSamplesFloor, 1),
			cond(CheckCompletionFloor, 0.93),
			cond(CheckQueueP99RatioCeiling, 0.08),
			cond(CheckFaultCountersSane, 1),
			cond(CheckInvariantsClean, 1),
		},
		plan: func(h time.Duration, nodes int) chaos.Plan {
			start := 2 * h / 5
			end := start + 23*h/100
			plan := chaos.Plan{
				MembwDropsPerDay:  4,
				MembwDropDuration: 10 * time.Minute,
			}
			for n := 0; n < nodes; n++ {
				plan.Faults = append(plan.Faults,
					chaos.Fault{At: start, Kind: chaos.KindMembwDark, Node: n},
					chaos.Fault{At: end, Kind: chaos.KindMembwRestore, Node: n})
			}
			return plan
		},
	}
}

// serveKillStorm is the control-plane analog of controllerKillStorm: fixed
// serve-process kills punctuate the run while light node churn and job
// failures keep the cluster moving. The in-sim ServeKill faults only count
// (the engine never dies); the serve-kill-equivalence condition runs the
// actual drill — the same request stream served through real process kills
// recovered from the write-ahead log must match the uninterrupted serve
// byte for byte.
func serveKillStorm() Recipe {
	return Recipe{
		Name:        "serve-kill-storm",
		Description: "fixed serve-process kills over light churn; proves WAL kill-and-recover byte-identity",
		Conditions: []Condition{
			cond(CheckServeKillEquivalence, 3),
			cond(CheckCompletionFloor, 0.9),
			cond(CheckFaultCountersSane, 1),
			cond(CheckInvariantsClean, 1),
		},
		plan: func(h time.Duration, _ int) chaos.Plan {
			return chaos.Plan{
				NodeCrashesPerDay: 2,
				CrashDowntime:     30 * time.Minute,
				JobFailureProb:    0.01,
				Faults: []chaos.Fault{
					{At: h / 4, Kind: chaos.KindServeKill},
					{At: h / 2, Kind: chaos.KindServeKill},
					{At: 3 * h / 4, Kind: chaos.KindServeKill},
				},
			}
		},
	}
}

// stragglerCascade rolls overlapping slowdown windows across a band of
// nodes through the middle half of the run — each window opens before the
// previous one closes — on top of a high background straggler rate. The
// fixed windows make the straggler floor deterministic.
func stragglerCascade() Recipe {
	return Recipe{
		Name:        "straggler-cascade",
		Description: "rolling overlapped slowdown windows across a node band plus a high background straggler rate",
		Conditions: []Condition{
			cond(CheckStragglersFloor, 4),
			cond(CheckCompletionFloor, 0.9),
			cond(CheckQueueP99RatioCeiling, 0.25),
			cond(CheckFaultCountersSane, 1),
			cond(CheckInvariantsClean, 1),
		},
		plan: func(h time.Duration, nodes int) chaos.Plan {
			band := nodes / 2
			if band > 8 {
				band = 8
			}
			if band < 1 {
				band = 1
			}
			plan := chaos.Plan{
				StragglersPerDay:  8,
				StragglerFactor:   0.5,
				StragglerDuration: time.Hour,
			}
			// Window i opens at 1/4 + i/(2*band) of the run and stays open
			// for h/4, so window i+1 starts while window i is still active.
			for i := 0; i < band; i++ {
				at := h/4 + time.Duration(i)*h/time.Duration(2*band)
				plan.Faults = append(plan.Faults,
					chaos.Fault{At: at, Kind: chaos.KindStragglerStart, Node: i, Factor: 0.45},
					chaos.Fault{At: at + h/4, Kind: chaos.KindStragglerEnd, Node: i, Factor: 0.45})
			}
			return plan
		},
	}
}
