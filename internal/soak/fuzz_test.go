package soak

import (
	"math"
	"strings"
	"testing"

	"github.com/coda-repro/coda/internal/experiments"
)

// FuzzParseCondition: whatever the input, ParseCondition either rejects it
// or returns a Condition that validates, round-trips through String, and
// carries a finite, in-domain threshold. The CLI feeds -conditions
// straight through this parser, so "parse implies valid" is what keeps a
// typo'd soak wall from silently disarming itself.
func FuzzParseCondition(f *testing.F) {
	for _, s := range []string{
		"completion-floor=0.97",
		"queue-p99-ceiling=14400",
		"queue-p99-ratio-ceiling=0.12",
		"terminal-failure-ratio-ceiling=0.05",
		"fault-counters-sane=1",
		"invariants-clean=1",
		"node-crashes-floor=1",
		"stragglers-floor=4",
		"degraded-samples-floor=1",
		"controller-kills-floor=3",
		"resume-equivalence=3",
		"no-such-check=1",
		"completion-floor=NaN",
		"completion-floor=+Inf",
		"completion-floor=-1",
		"completion-floor=1.5",
		"completion-floor=1e309",
		"=1",
		"completion-floor=",
		"completion-floor",
		" completion-floor = 0.5 ",
		"completion-floor=0x1p-2",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		c, err := ParseCondition(s)
		if err != nil {
			return
		}
		if err := c.Validate(); err != nil {
			t.Fatalf("ParseCondition(%q) returned a condition its own Validate rejects: %v", s, err)
		}
		if math.IsNaN(c.Threshold) || math.IsInf(c.Threshold, 0) || c.Threshold < 0 {
			t.Fatalf("ParseCondition(%q) let threshold %g through", s, c.Threshold)
		}
		if strings.TrimSpace(string(c.Check)) != string(c.Check) || c.Check == "" {
			t.Fatalf("ParseCondition(%q) kept an unnormalized check name %q", s, c.Check)
		}
		rt, err := ParseCondition(c.String())
		if err != nil {
			t.Fatalf("round trip of %q failed: ParseCondition(%q): %v", s, c.String(), err)
		}
		if rt != c {
			t.Fatalf("round trip of %q changed %+v into %+v", s, c, rt)
		}
	})
}

// FuzzScaleValidate: Recipe.Build, the gate every cell passes, must reject
// every degenerate shape — non-finite or non-positive durations, negative
// job counts, no GPU jobs, non-positive clusters — and accept the rest,
// named or not.
func FuzzScaleValidate(f *testing.F) {
	f.Add("tiny", 0.5, 300, 100, 16)
	f.Add("full", 30.0, 75000, 25000, 80)
	f.Add("bad", -1.0, 10, 10, 4)
	f.Add("", 1.0, 10, 10, 4)
	f.Add("nan", math.NaN(), 10, 10, 4)
	f.Add("inf", math.Inf(1), 10, 10, 4)
	f.Add("empty", 1.0, 0, 0, 4)
	f.Add("nonodes", 1.0, 10, 10, 0)
	f.Fuzz(func(t *testing.T, name string, days float64, cpu, gpu, nodes int) {
		sc := experiments.Scale{Name: name, Days: days, CPUJobs: cpu, GPUJobs: gpu, Nodes: nodes}
		_, err := quietBaseline().Build(1, sc)
		degenerate := math.IsNaN(days) || math.IsInf(days, 0) || days <= 0 ||
			cpu < 0 || gpu <= 0 || nodes <= 0
		if degenerate && err == nil {
			t.Fatalf("Build accepted degenerate scale %+v", sc)
		}
		if !degenerate && err != nil {
			t.Fatalf("Build rejected healthy scale %+v: %v", sc, err)
		}
	})
}
