package lint

import "testing"

// TestCheckAnnotationsScopeToPerFileRules runs Check over the annotated
// fixture: every whole-program finding survives its annotation, an
// annotation that only sits on whole-program findings is reported as
// suppressing nothing, and one that also covers a per-file finding counts
// as used.
func TestCheckAnnotationsScopeToPerFileRules(t *testing.T) {
	m, dirs := vetFixture(t, "annotated", "example.com/annotated", "internal/engine")
	findings := Check(m, Config{WallClockFree: []string{"internal/"}}, VetConfig{
		PurityRoots: []string{"internal/engine"},
		ImpurePkgs:  []string{"os"},
		Layers:      []Layer{{Name: "engine", Packages: []string{"internal/engine"}, DenyStd: []string{"os"}}},
	})
	matchFindingsToWants(t, findings, dirs)
	for i := 1; i < len(findings); i++ {
		if a, b := findings[i-1].Pos, findings[i].Pos; a.Line > b.Line {
			t.Fatalf("findings out of order: %s before %s", findings[i-1], findings[i])
		}
	}
}
