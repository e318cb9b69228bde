package core

import (
	"testing"
	"time"

	"github.com/coda-repro/coda/internal/chaos"
	"github.com/coda-repro/coda/internal/job"
)

// TestEliminatorDegradesGracefullyWhenTelemetryDark: the contention
// eliminator's workload is the one TestEliminatorProtectsTrainingJob shows
// throttling — but with the node's bandwidth telemetry dark the eliminator
// must hold its last decision (here: never throttle), count the degraded
// intervals and let the run finish.
func TestEliminatorDegradesGracefullyWhenTelemetryDark(t *testing.T) {
	opts := testOptions()
	opts.Cluster.Nodes = 1
	jobs := func() []*job.Job {
		return []*job.Job{
			gpuJob(1, 0, "bat", 5, 1, 1, 2*time.Hour),
			hogJob(2, 10*time.Minute, 16, 120, 3*time.Hour),
		}
	}

	// Baseline: telemetry up, the hog gets throttled.
	lit, _ := runCoda(t, DefaultConfig(), opts, jobs())
	if lit.Throttles == 0 {
		t.Fatal("baseline never throttled; the workload no longer exercises the eliminator")
	}

	// Dark from t=0 with no restore: every meter read fails.
	opts.Faults = chaos.Plan{Faults: []chaos.Fault{
		{At: 0, Kind: chaos.KindMembwDark, Node: 0},
	}}
	dark, _ := runCoda(t, DefaultConfig(), opts, jobs())

	if dark.Throttles != 0 {
		t.Errorf("throttles = %d during a run-long dropout, want 0 (hold last decision)", dark.Throttles)
	}
	if dark.Faults.DegradedSamples == 0 {
		t.Error("run recorded no degraded samples")
	}
	if dark.Faults.MembwDropouts != 1 {
		t.Errorf("dropouts = %d, want 1", dark.Faults.MembwDropouts)
	}
	for id := job.ID(1); id <= 2; id++ {
		if !dark.Jobs[id].Completed {
			t.Errorf("job %d did not complete; degraded mode must not wedge the run", id)
		}
	}
}
