package lint

import (
	"fmt"
	"path/filepath"
	"strings"
	"testing"
)

// TestProductionGoroutinePolicy pins the DefaultConfig goroutine
// allowlist against a fixture tree shaped like the real repository: a
// goroutine in internal/sim and a sync primitive in internal/core must
// fail no-stray-goroutines, while the identical concurrency in
// internal/runner — the one allowlisted deterministic-adjacent package —
// produces zero findings. This is the test that would catch someone
// quietly widening the allowlist.
func TestProductionGoroutinePolicy(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("testdata", "prodpolicy", "src"))
	if err != nil {
		t.Fatal(err)
	}
	dirs := []string{
		filepath.Join(root, "internal", "sim"),
		filepath.Join(root, "internal", "core"),
		filepath.Join(root, "internal", "runner"),
	}
	m, err := loadFixture(root, "example.com/prod", dirs)
	if err != nil {
		t.Fatal(err)
	}
	findings := Run(m, DefaultConfig())

	got := make(map[string]bool, len(findings))
	for _, f := range findings {
		if f.Rule != RuleGoroutines {
			t.Errorf("unexpected non-goroutine finding: %s", f)
			continue
		}
		if strings.Contains(f.Pos.Filename, filepath.Join("internal", "runner")) {
			t.Errorf("allowlisted internal/runner was flagged: %s", f)
			continue
		}
		got[fmt.Sprintf("%s:%d: %s", f.Pos.Filename, f.Pos.Line, f.Rule)] = true
	}
	want := collectWants(t, dirs)
	if len(want) == 0 {
		t.Fatal("prodpolicy fixtures carry no want markers; the test checks nothing")
	}
	for key := range want {
		if !got[key] {
			t.Errorf("missing finding: %s", key)
		}
	}
	if len(got) != len(want) {
		t.Errorf("got %d findings, want %d", len(got), len(want))
	}
}

// TestDefaultConfigAllowlist pins the allowlist itself: exactly
// internal/history (wall-clock-exempt log), internal/runner (worker
// pool) and internal/ctl (the control-plane server's vetted mutex and
// reply channels; its ticker goroutine lives in cmd/coda-serve) — in
// particular internal/experiments must NOT be there anymore.
func TestDefaultConfigAllowlist(t *testing.T) {
	got := DefaultConfig().GoroutineAllow
	want := []string{"internal/history", "internal/runner", "internal/ctl"}
	if len(got) != len(want) {
		t.Fatalf("GoroutineAllow = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("GoroutineAllow = %v, want %v", got, want)
		}
	}
}
