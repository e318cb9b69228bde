package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"github.com/coda-repro/coda/internal/core"
	"github.com/coda-repro/coda/internal/experiments"
	"github.com/coda-repro/coda/internal/sched"
	"github.com/coda-repro/coda/internal/sim"
)

func TestTraceSchedulerMirrorsOptionalInterfaces(t *testing.T) {
	coda, err := core.New(core.DefaultConfig(), 8, 28, 4)
	if err != nil {
		t.Fatal(err)
	}
	drf, err := sched.NewDRF(8*28, 8*4)
	if err != nil {
		t.Fatal(err)
	}
	for _, inner := range []sched.Scheduler{coda, sched.NewFIFO(), drf} {
		wrapped := traceScheduler(inner, newRecorder())
		if wrapped.Name() != inner.Name() {
			t.Errorf("%s: wrapper is named %q", inner.Name(), wrapped.Name())
		}
		_, c1 := inner.(sched.Canceller)
		_, c2 := wrapped.(sched.Canceller)
		_, k1 := inner.(sched.Checkpointer)
		_, k2 := wrapped.(sched.Checkpointer)
		_, v1 := inner.(invariantChecker)
		_, v2 := wrapped.(invariantChecker)
		if c1 != c2 || k1 != k2 || v1 != v2 {
			t.Errorf("%s: inner implements canceller=%t checkpointer=%t checker=%t, wrapper %t %t %t",
				inner.Name(), c1, k1, v1, c2, k2, v2)
		}
	}
}

// tinySpec is a quarter day of the paper's rate on 80 nodes, with the
// invariant checker on so the forwarded scheduler audit is exercised.
func tinySpec(t *testing.T, scheduler string) sim.RunSpec {
	t.Helper()
	spec, err := experiments.BenchSpec(experiments.Scale{Seed: 3, Days: 0.25, CPUJobs: 625, GPUJobs: 208, Nodes: 80}, scheduler, true)
	if err != nil {
		t.Fatal(err)
	}
	spec.Options.MaxVirtualTime = 0
	return spec
}

func TestTracedRunIsByteIdentical(t *testing.T) {
	for _, scheduler := range []string{"coda", "fifo"} {
		spec := tinySpec(t, scheduler)
		plain, err := runSlice(spec, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := checkSlice(plain, spec.JobCount(), plain.digest); err != nil {
			t.Fatal(err)
		}
		rec := newRecorder()
		traced, err := runSlice(spec, rec, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := checkSlice(traced, spec.JobCount(), plain.digest); err != nil {
			t.Fatalf("%s: %v", scheduler, err)
		}
		st := rec.summarize()
		if st[kSubmit].calls != spec.JobCount() || st[kComplete].calls != spec.JobCount() {
			t.Errorf("%s: %d submits and %d completions traced for %d jobs",
				scheduler, st[kSubmit].calls, st[kComplete].calls, spec.JobCount())
		}
		if st[kEnvStart].calls == 0 || st[kInvCheck].calls == 0 && scheduler == "coda" {
			t.Errorf("%s: no env.start or inv.sched_check calls traced", scheduler)
		}
		m := perLayer(layerInputs{rec: rec, engine: traced.wall, events: traced.res.Events})
		for _, d := range perLayerDefs {
			if _, ok := m[d.name]; !ok {
				t.Errorf("%s: per-layer metric %s missing", scheduler, d.name)
			}
		}
		if q := m["cluster.placement_queries"].Value; q != float64(traced.queries) {
			t.Errorf("%s: %g placement queries via the env, %d via the simulator", scheduler, q, traced.queries)
		}
	}
}

func TestRecorderSelfTime(t *testing.T) {
	r := newRecorder()
	outer := r.begin(kTick)
	inner := r.begin(kSubmit)
	start := r.now()
	time.Sleep(2 * time.Millisecond)
	r.leaf(kEnvMeter, start)
	r.end(inner)
	r.end(outer)
	st := r.summarize()
	if st[kEnvMeter].calls != 1 || st[kEnvMeter].total < 2*time.Millisecond {
		t.Fatalf("leaf not aggregated: %+v", st[kEnvMeter])
	}
	if st[kSubmit].self > st[kSubmit].total-st[kEnvMeter].total {
		t.Errorf("submit self %v not reduced by its leaf child %v", st[kSubmit].self, st[kEnvMeter].total)
	}
	if st[kTick].self > st[kTick].total-st[kSubmit].total {
		t.Errorf("tick self %v not reduced by its child %v", st[kTick].self, st[kSubmit].total)
	}
	if top := r.topLevel(kind.isSched); top != st[kTick].total {
		t.Errorf("top-level sched time %v, want the outer span's %v", top, st[kTick].total)
	}
}

func TestServePhaseRecoversByteIdentically(t *testing.T) {
	dir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(dir, "tmp"), 0o755); err != nil {
		t.Fatal(err)
	}
	script, err := newServeScript(5)
	if err != nil {
		t.Fatal(err)
	}
	cfg := runConfig{seed: 5, workDir: dir, log: io.Discard}
	rec := newRecorder()
	res, err := runPhase(cfg, script, phase{rate: 100, dur: 600 * time.Millisecond, rec: rec, keep: true})
	if err != nil {
		t.Fatal(err)
	}
	defer res.close()
	if res.failed != 0 || res.submits == 0 {
		t.Fatalf("%d of %d requests failed, %d submits accepted", res.failed, res.offered, res.submits)
	}
	if _, _, _, err := recoverIdentical(res, 5); err != nil {
		t.Fatal(err)
	}
	st := rec.summarize()
	if st[kWALAppend].calls == 0 || st[kCtlTick].calls == 0 || st[kInvCheck].calls == 0 {
		t.Errorf("serve phase traced no WAL appends, ticks or scheduler audits: %d %d %d",
			st[kWALAppend].calls, st[kCtlTick].calls, st[kInvCheck].calls)
	}
}

func TestTimetableKeepsScriptOrderAndRate(t *testing.T) {
	script, err := newServeScript(7)
	if err != nil {
		t.Fatal(err)
	}
	const n, dur = 3000, 10 * time.Second
	reqs, dues, _, err := script.timetable(n, dur)
	if err != nil {
		t.Fatal(err)
	}
	if len(reqs) != n || len(dues) != n {
		t.Fatalf("timetable has %d requests and %d due times, want %d", len(reqs), len(dues), n)
	}
	bodies := map[string]bool{}
	submits, reads := 0, 0
	for i, rq := range reqs {
		if dues[i] < 0 || dues[i] >= dur || i > 0 && dues[i] < dues[i-1] {
			t.Fatalf("request %d due at %v, after %v, outside [0, %v)", i, dues[i], dues[max(i-1, 0)], dur)
		}
		switch rq.op {
		case opSubmit:
			submits++
			bodies[string(rq.body)] = true
		case opStatus:
			reads++
			if rq.arg > submits {
				t.Fatalf("read %d of submit %d comes before it", i, rq.arg)
			}
		}
	}
	if reads == 0 || reads >= submits || len(bodies) < submits*9/10 {
		t.Errorf("%d submits (%d distinct specs), %d reads", submits, len(bodies), reads)
	}
	if _, _, _, err := script.timetable(len(script.reqs), dur); err == nil {
		t.Error("a phase longer than the script was accepted")
	}

	fixed := script.fixedPhaseDur(dur)
	reqs, _, _, err = script.timetable(int(math.Round(fixedRate*fixed.Seconds())), fixed)
	if err != nil {
		t.Fatal(err)
	}
	writes := 0
	for _, rq := range reqs {
		if rq.op != opStatus {
			writes++
		}
	}
	if writes%serveCkptEvery != serveCkptEvery/2 || fixed > dur || fixed < dur*9/10 {
		t.Errorf("fixed phase of %v for %v offers %d writes, want %d past a checkpoint", fixed, dur, writes, serveCkptEvery/2)
	}
}

func TestBenchmarkJSONMatchesMetricTables(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q here", i, w.Name, workloads[i].name)
		}
	}
	compare := func(what string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d here", what, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: %s [%s] in BENCHMARK.json, %s [%s] here", what, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	compare("end_to_end", b.EndToEnd, endToEnd)
	compare("per_layer", b.PerLayer, perLayerDefs)
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if got := quantile(xs, 0.5); got != 2.5 {
		t.Errorf("median = %g, want 2.5", got)
	}
	if got := quantile(xs, 1); got != 4 {
		t.Errorf("max = %g, want 4", got)
	}
	if xs[0] != 4 {
		t.Error("quantile sorted its input")
	}
}
