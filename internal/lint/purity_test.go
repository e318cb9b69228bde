package lint

import (
	"fmt"
	"path/filepath"
	"strings"
	"testing"
)

// vetFixture loads one testdata/vet/<name>/src tree as a fake module rooted
// at modPath.
func vetFixture(t *testing.T, name, modPath string, pkgs ...string) (*Module, []string) {
	t.Helper()
	root, err := filepath.Abs(filepath.Join("testdata", "vet", name, "src"))
	if err != nil {
		t.Fatal(err)
	}
	dirs := make([]string, 0, len(pkgs))
	for _, p := range pkgs {
		dirs = append(dirs, filepath.Join(root, filepath.FromSlash(p)))
	}
	m, err := loadFixture(root, modPath, dirs)
	if err != nil {
		t.Fatal(err)
	}
	return m, dirs
}

// matchFindingsToWants requires findings to match the fixture's `// want`
// markers exactly — every seeded violation fires, nothing else does.
func matchFindingsToWants(t *testing.T, findings []Finding, dirs []string) {
	t.Helper()
	got := make(map[string]bool, len(findings))
	for _, f := range findings {
		key := fmt.Sprintf("%s:%d: %s", f.Pos.Filename, f.Pos.Line, f.Rule)
		if got[key] {
			t.Errorf("duplicate finding: %s", f)
		}
		got[key] = true
	}
	want := collectWants(t, dirs)
	for key := range want {
		if !got[key] {
			t.Errorf("missing finding: %s", key)
		}
	}
	for _, f := range findings {
		key := fmt.Sprintf("%s:%d: %s", f.Pos.Filename, f.Pos.Line, f.Rule)
		if !want[key] {
			t.Errorf("unexpected finding: %s", f)
		}
	}
}

func purityFixtureConfig() VetConfig {
	return VetConfig{
		PurityRoots:  []string{"internal/engine"},
		PurityExempt: []string{"internal/runner"},
		ImpurePkgs:   []string{"os", "net", "syscall"},
	}
}

func runPurity(t *testing.T, m *Module, cfg VetConfig) []Finding {
	t.Helper()
	var findings []Finding
	checkPurity(m, cfg, func(f Finding) { findings = append(findings, f) })
	SortFindings(findings)
	return findings
}

// TestPurityFixtures seeds every sink class — wall clock, goroutine spawn,
// global rand, os calls — behind helper indirection and requires each to be
// found with a witness chain rooted in the engine package. The exempt
// internal/runner package is impure on purpose and must stay silent.
func TestPurityFixtures(t *testing.T) {
	m, dirs := vetFixture(t, "purity", "example.com/vet",
		"internal/engine", "internal/util", "internal/runner")
	findings := runPurity(t, m, purityFixtureConfig())
	matchFindingsToWants(t, findings, dirs)
	for _, f := range findings {
		if len(f.Chain) < 2 {
			t.Errorf("finding lacks a root-to-sink witness chain: %s", f)
			continue
		}
		if !strings.HasPrefix(f.Chain[0], "internal/engine.") {
			t.Errorf("witness chain does not start at an engine root: %v", f.Chain)
		}
		if !strings.Contains(f.Message, "[reached via ") {
			t.Errorf("message does not embed the witness chain: %s", f.Message)
		}
	}
}

// TestPurityAllow pins the one sanctioned escape hatch: an exact qualified
// name in PurityAllow stops being a sink, and nothing else changes.
func TestPurityAllow(t *testing.T) {
	m, _ := vetFixture(t, "purity", "example.com/vet",
		"internal/engine", "internal/util", "internal/runner")
	cfg := purityFixtureConfig()
	cfg.PurityAllow = []string{"os.Getenv"}
	findings := runPurity(t, m, cfg)
	for _, f := range findings {
		if strings.Contains(f.Message, "os.Getenv") {
			t.Errorf("allowlisted qualified name still reported: %s", f)
		}
	}
	// The fixture seeds 7 sinks, 2 of which are os.Getenv.
	if len(findings) != 5 {
		t.Errorf("expected 5 findings with os.Getenv allowlisted, got %d: %v", len(findings), findings)
	}
}

// TestPurityRootsAreSelfChecked: impurity written directly into a root
// package function is reported with a single-element chain, not skipped.
func TestPurityRootsAreSelfChecked(t *testing.T) {
	m, _ := vetFixture(t, "purity", "example.com/vet",
		"internal/engine", "internal/util", "internal/runner")
	// Flip the fixture around: util is the root, so its sinks are direct.
	cfg := VetConfig{
		PurityRoots: []string{"internal/util"},
		ImpurePkgs:  []string{"os", "net", "syscall"},
	}
	findings := runPurity(t, m, cfg)
	if len(findings) == 0 {
		t.Fatal("expected direct sinks when util itself is the root")
	}
	for _, f := range findings {
		if len(f.Chain) != 1 {
			t.Errorf("direct sink should have a single-element chain, got %v", f.Chain)
		}
		if !strings.HasPrefix(f.Chain[0], "internal/util.") {
			t.Errorf("chain should start in internal/util: %v", f.Chain)
		}
	}
}
