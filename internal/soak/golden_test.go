package soak

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	"github.com/coda-repro/coda/internal/experiments"
)

// TestGoldenVerdicts pins the full ci-scale recipe matrix at seeds 1 and 2
// to testdata/soak/golden.json, byte for byte. Any behavioral drift in
// the engine, the chaos layer, the trace generator, a recipe definition or
// a condition evaluator changes the report bytes and fails loudly here.
//
// Regenerate intentionally with:
//
//	SOAK_UPDATE_GOLDEN=1 go test ./internal/soak -run TestGoldenVerdicts
func TestGoldenVerdicts(t *testing.T) {
	rep, err := RunMatrix(context.Background(), MatrixSpec{
		Recipes: Recipes(),
		Seeds:   []int64{1, 2},
		Scale:   experiments.CIScale(),
	})
	if err != nil {
		t.Fatal(err)
	}
	got, err := rep.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Pass {
		t.Errorf("ci-scale matrix no longer passes its own conditions (%d failing cells)", rep.Failed)
	}

	golden := filepath.Join("testdata", "soak", "golden.json")
	if os.Getenv("SOAK_UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", golden, len(got))
		return
	}

	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden verdicts (regenerate with SOAK_UPDATE_GOLDEN=1): %v", err)
	}
	if string(got) == string(want) {
		return
	}
	// Find the first divergent line so the failure names what moved.
	gl, wl := splitLines(string(got)), splitLines(string(want))
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("verdict report drifted at line %d:\n  got:  %s\n  want: %s\n(intentional? regenerate with SOAK_UPDATE_GOLDEN=1)",
				i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("verdict report drifted: got %d lines, want %d (intentional? regenerate with SOAK_UPDATE_GOLDEN=1)",
		len(gl), len(wl))
}

func splitLines(s string) []string {
	var out []string
	start := 0
	for i := 0; i < len(s); i++ {
		if s[i] == '\n' {
			out = append(out, s[start:i])
			start = i + 1
		}
	}
	if start < len(s) {
		out = append(out, s[start:])
	}
	return out
}
