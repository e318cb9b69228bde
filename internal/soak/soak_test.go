package soak

import (
	"math"
	"strings"
	"testing"

	"github.com/coda-repro/coda/internal/experiments"
)

func TestRegistryIsWellFormed(t *testing.T) {
	rs := Recipes()
	if len(rs) < 6 {
		t.Fatalf("registry has %d recipes, the soak wall promises at least 6", len(rs))
	}
	seen := make(map[string]bool)
	for _, r := range rs {
		if err := r.Validate(); err != nil {
			t.Errorf("recipe %q invalid: %v", r.Name, err)
		}
		if seen[r.Name] {
			t.Errorf("recipe name %q registered twice", r.Name)
		}
		seen[r.Name] = true
	}
	want := []string{
		"quiet-baseline", "crash-heavy-diurnal-month", "controller-kill-storm",
		"drain-half-cluster-midmonth", "telemetry-dark-week", "straggler-cascade",
	}
	names := Names()
	for i, w := range want {
		if names[i] != w {
			t.Errorf("registry order changed: position %d is %q, want %q (golden reports depend on this order)", i, names[i], w)
		}
	}
}

func TestLookup(t *testing.T) {
	r, err := Lookup("controller-kill-storm")
	if err != nil || r.Name != "controller-kill-storm" {
		t.Fatalf("Lookup(controller-kill-storm) = %q, %v", r.Name, err)
	}
	if _, err := Lookup("no-such-recipe"); err == nil {
		t.Fatal("Lookup accepted an unknown recipe")
	} else if !strings.Contains(err.Error(), "quiet-baseline") {
		t.Errorf("unknown-recipe error should list the registry, got: %v", err)
	}
}

func TestRecipesBuildAtEveryScale(t *testing.T) {
	// Every recipe must build at every preset scale: fixed fault schedules
	// are scale-relative and must survive chaos.Plan.Validate at each size.
	// Specs stream their traces, so building even the warehouse cell is
	// cheap — nothing is materialized until the run.
	for _, name := range []string{"ci", "tiny", "small", "full", "warehouse"} {
		sc, err := experiments.ParseScale(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range Recipes() {
			sp, err := r.Build(7, sc)
			if err != nil {
				t.Errorf("%s at %s: %v", r.Name, sc.Name, err)
				continue
			}
			if err := sp.Validate(); err != nil {
				t.Errorf("%s at %s: built spec invalid: %v", r.Name, sc.Name, err)
			}
			if sp.Trace == nil {
				t.Errorf("%s at %s: spec materializes its trace instead of streaming", r.Name, sc.Name)
				continue
			}
			if sp.JobCount() != sc.CPUJobs+sc.GPUJobs {
				t.Errorf("%s at %s: %d jobs, want %d", r.Name, sc.Name, sp.JobCount(), sc.CPUJobs+sc.GPUJobs)
			}
		}
	}
}

func TestParseCondition(t *testing.T) {
	good := map[string]Condition{
		"completion-floor=0.97":  {Check: CheckCompletionFloor, Threshold: 0.97},
		" queue-p99-ceiling=600": {Check: CheckQueueP99Ceiling, Threshold: 600},
		"resume-equivalence=3":   {Check: CheckResumeEquivalence, Threshold: 3},
		"fault-counters-sane=1":  {Check: CheckFaultCountersSane, Threshold: 1},
	}
	for in, want := range good {
		got, err := ParseCondition(in)
		if err != nil {
			t.Errorf("ParseCondition(%q): %v", in, err)
			continue
		}
		if got != want {
			t.Errorf("ParseCondition(%q) = %+v, want %+v", in, got, want)
		}
	}

	bad := []string{
		"",
		"completion-floor",
		"completion-floor=",
		"=0.5",
		"no-such-check=1",
		"completion-floor=NaN",
		"completion-floor=nan",
		"queue-p99-ceiling=+Inf",
		"queue-p99-ceiling=-Inf",
		"completion-floor=1.5",  // ratio above 1
		"completion-floor=-0.1", // negative threshold
		"node-crashes-floor=-2",
		"completion-floor=abc",
	}
	for _, in := range bad {
		if c, err := ParseCondition(in); err == nil {
			t.Errorf("ParseCondition(%q) accepted: %+v", in, c)
		}
	}
}

func TestConditionRoundTrip(t *testing.T) {
	for _, ci := range checkTable {
		k := ci.kind
		c := Condition{Check: k, Threshold: 0.5}
		rt, err := ParseCondition(c.String())
		if err != nil {
			t.Errorf("%s: round trip failed: %v", k, err)
			continue
		}
		if rt != c {
			t.Errorf("%s: round trip changed %+v into %+v", k, c, rt)
		}
	}
}

// TestScaleValidateRejectsDegenerate: the soak wall shares experiments'
// Scale rule, so every degenerate shape must fail Scale.Validate and be
// refused at Recipe.Build, the gate every soak cell passes. An unnamed
// scale is healthy under the shared rule and is not listed here.
func TestScaleValidateRejectsDegenerate(t *testing.T) {
	base := experiments.TinyScale()
	cases := []struct {
		name string
		mut  func(*experiments.Scale)
	}{
		{"zero days", func(s *experiments.Scale) { s.Days = 0 }},
		{"negative days", func(s *experiments.Scale) { s.Days = -1 }},
		{"NaN days", func(s *experiments.Scale) { s.Days = math.NaN() }},
		{"infinite days", func(s *experiments.Scale) { s.Days = math.Inf(1) }},
		{"negative cpu jobs", func(s *experiments.Scale) { s.CPUJobs = -1 }},
		{"negative gpu jobs", func(s *experiments.Scale) { s.GPUJobs = -1 }},
		{"no gpu jobs", func(s *experiments.Scale) { s.GPUJobs = 0 }},
		{"no jobs at all", func(s *experiments.Scale) { s.CPUJobs, s.GPUJobs = 0, 0 }},
		{"zero nodes", func(s *experiments.Scale) { s.Nodes = 0 }},
		{"negative nodes", func(s *experiments.Scale) { s.Nodes = -4 }},
	}
	for _, tc := range cases {
		sc := base
		tc.mut(&sc)
		if err := sc.Validate(); err == nil {
			t.Errorf("%s: Validate accepted %+v", tc.name, sc)
		}
		if _, err := quietBaseline().Build(1, sc); err == nil {
			t.Errorf("%s: Build accepted degenerate scale %+v", tc.name, sc)
		}
	}
}

func TestRecipeValidateRejectsMalformed(t *testing.T) {
	ok := Recipe{
		Name:        "x",
		Description: "y",
		Conditions:  []Condition{{Check: CheckCompletionFloor, Threshold: 0.9}},
		plan:        quietBaseline().plan,
	}
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid recipe rejected: %v", err)
	}
	cases := []struct {
		name string
		mut  func(*Recipe)
	}{
		{"no name", func(r *Recipe) { r.Name = "" }},
		{"no description", func(r *Recipe) { r.Description = "" }},
		{"no plan", func(r *Recipe) { r.plan = nil }},
		{"no conditions", func(r *Recipe) { r.Conditions = nil }},
		{"bad condition", func(r *Recipe) { r.Conditions = []Condition{{Check: "bogus", Threshold: 1}} }},
		{"NaN threshold", func(r *Recipe) {
			r.Conditions = []Condition{{Check: CheckCompletionFloor, Threshold: math.NaN()}}
		}},
	}
	for _, tc := range cases {
		r := ok
		tc.mut(&r)
		if err := r.Validate(); err == nil {
			t.Errorf("%s: Validate accepted the recipe", tc.name)
		}
	}
}

func TestMatrixSpecValidate(t *testing.T) {
	ok := MatrixSpec{Recipes: Recipes()[:1], Seeds: []int64{1}, Scale: experiments.CIScale()}
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid matrix rejected: %v", err)
	}
	cases := []struct {
		name string
		ms   MatrixSpec
	}{
		{"no recipes", MatrixSpec{Seeds: []int64{1}, Scale: experiments.CIScale()}},
		{"no seeds", MatrixSpec{Recipes: Recipes()[:1], Scale: experiments.CIScale()}},
		{"bad scale", MatrixSpec{Recipes: Recipes()[:1], Seeds: []int64{1}, Scale: experiments.Scale{Name: "x", Days: -1, CPUJobs: 1, GPUJobs: 1, Nodes: 1}}},
		{"duplicate recipe", MatrixSpec{Recipes: []Recipe{quietBaseline(), quietBaseline()}, Seeds: []int64{1}, Scale: experiments.CIScale()}},
		{"bad extra condition", MatrixSpec{
			Recipes: Recipes()[:1], Seeds: []int64{1}, Scale: experiments.CIScale(),
			ExtraConditions: []Condition{{Check: "bogus", Threshold: 1}},
		}},
	}
	for _, tc := range cases {
		if err := tc.ms.Validate(); err == nil {
			t.Errorf("%s: Validate accepted the matrix", tc.name)
		}
	}
}
