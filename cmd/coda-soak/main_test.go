package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"github.com/coda-repro/coda/internal/soak"
)

// runCLI captures one invocation.
func runCLI(args ...string) (code int, stdout, stderr string) {
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

// TestListNamesEveryRecipe: -list prints the whole registry and exits 0.
func TestListNamesEveryRecipe(t *testing.T) {
	code, out, _ := runCLI("-list")
	if code != 0 {
		t.Fatalf("-list exited %d", code)
	}
	names := soak.Names()
	if len(names) < 6 {
		t.Fatalf("registry shrank to %d recipes", len(names))
	}
	for _, name := range names {
		if !strings.Contains(out, name) {
			t.Errorf("-list output does not name %q", name)
		}
	}
}

// TestOperationalErrorsExitTwo: unknown recipes, scales and conditions are
// tool failures (exit 2), matching the coda-vet convention — they must
// never masquerade as verdict failures (exit 1).
func TestOperationalErrorsExitTwo(t *testing.T) {
	cases := [][]string{
		{"-recipe", "no-such-recipe"},
		{"-seeds", "0"},
		{"-seeds", "-3"},
		{"-seed-base", "-1"},
		{"-seed-base", "-9000"},
		{"-conditions", "completion-floor=NaN"},
		{"-conditions", "bogus-check=1"},
		{"-conditions", "completion-floor"},
		{"-not-a-flag"},
		{"stray", "args"},
	}
	for _, args := range cases {
		code, _, stderr := runCLI(args...)
		if code != 2 {
			t.Errorf("coda-soak %s: exit %d, want 2 (stderr: %s)", strings.Join(args, " "), code, stderr)
		}
	}
	code, _, stderr := runCLI("-scale", "huge")
	if code != 2 {
		t.Errorf("coda-soak -scale huge: exit %d, want 2 (stderr: %s)", code, stderr)
	}
	for _, name := range []string{"ci", "tiny", "small", "full", "warehouse"} {
		if !strings.Contains(stderr, name) {
			t.Errorf("unknown-scale error does not name preset %q: %s", name, stderr)
		}
	}
}

// TestTinyRunEmitsStableJSON: a single ci-scale cell passes, exits 0, and the
// JSON report round-trips with the expected shape.
func TestTinyRunEmitsStableJSON(t *testing.T) {
	code, out, stderr := runCLI("-recipe", "quiet-baseline", "-seeds", "1", "-scale", "ci", "-json")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr)
	}
	var rep soak.Report
	if err := json.Unmarshal([]byte(out), &rep); err != nil {
		t.Fatalf("report is not JSON: %v", err)
	}
	if !rep.Pass || len(rep.Cells) != 1 {
		t.Fatalf("report pass=%v cells=%d, want pass with 1 cell", rep.Pass, len(rep.Cells))
	}
	if rep.Cells[0].Name != "quiet-baseline/seed=1" {
		t.Errorf("cell name %q", rep.Cells[0].Name)
	}

	// Two invocations emit identical bytes — the CI diffing contract.
	_, again, _ := runCLI("-recipe", "quiet-baseline", "-seeds", "1", "-scale", "ci", "-json")
	if out != again {
		t.Error("the same grid emitted different report bytes across invocations")
	}
}

// TestVerdictFailureExitsOne: an impossible extra condition turns a
// passing cell into a verdict failure — exit 1, with the failing check
// named in the human output.
func TestVerdictFailureExitsOne(t *testing.T) {
	code, out, _ := runCLI("-recipe", "quiet-baseline", "-seeds", "1", "-scale", "ci",
		"-conditions", "node-crashes-floor=1")
	if code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	if !strings.Contains(out, "node-crashes-floor") || !strings.Contains(out, "FAIL") {
		t.Errorf("failure output does not name the failing condition:\n%s", out)
	}
}
