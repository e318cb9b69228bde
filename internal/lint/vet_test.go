package lint

import (
	"strings"
	"testing"
)

// TestRepositoryIsVetClean is the whole-program self-enforcing pass: the
// three vet passes run over the repository's own internal/ and cmd/ trees
// (the load TestRepositoryIsLintClean shares) with the production config,
// and any finding fails the build. This is the proof the engine advertises
// — no reachable wall clock, rand, host I/O, or goroutine; the layer DAG
// holds; every checkpoint field round-trips.
func TestRepositoryIsVetClean(t *testing.T) {
	findings := RunVet(repoModule(t), DefaultVetConfig())
	for _, f := range findings {
		t.Errorf("%s", f)
	}
	if len(findings) > 0 {
		t.Log("vet findings have no annotation escape hatch; fix structurally or adjust the reviewed spec in vet.go (see DESIGN.md)")
	}
}

// TestDefaultVetConfigCoversEngine pins the policy itself: the purity roots
// must include the engine and every scheduling package, and the exempt list
// must stay exactly the host-facing pair. Loosening the proof is a reviewed
// change here, not a quiet config drift.
func TestDefaultVetConfigCoversEngine(t *testing.T) {
	cfg := DefaultVetConfig()
	for _, pkg := range []string{
		"internal/sim", "internal/sched", "internal/core", "internal/cluster",
		"internal/membw", "internal/fair", "internal/perfmodel", "internal/chaos",
	} {
		if !matchScope(cfg.PurityRoots, pkg) {
			t.Errorf("purity roots no longer cover %s", pkg)
		}
	}
	for _, pkg := range []string{"internal/runner", "cmd/coda-sim"} {
		if !matchScope(cfg.PurityExempt, pkg) {
			t.Errorf("purity exemptions no longer cover %s", pkg)
		}
	}
	if matchScope(cfg.PurityExempt, "internal/sim") {
		t.Error("the engine must never be purity-exempt")
	}
}

// TestVetFindingsSorted: RunVet output is ordered by (file, line, rule) so
// CI artifacts diff clean between runs.
func TestVetFindingsSorted(t *testing.T) {
	m, _ := vetFixture(t, "layers", "example.com/layers",
		"internal/base", "internal/engine", "internal/engine2",
		"internal/orch", "internal/stray")
	findings := RunVet(m, VetConfig{
		Layers:          layersFixtureSpec(),
		PurityRoots:     []string{"internal/engine"},
		ImpurePkgs:      []string{"net", "syscall"}, // not os: layer findings only
		CheckpointScope: nil,
	})
	if len(findings) < 2 {
		t.Fatalf("need at least two findings to check ordering, got %d", len(findings))
	}
	for i := 1; i < len(findings); i++ {
		a, b := findings[i-1], findings[i]
		if a.Pos.Filename > b.Pos.Filename ||
			(a.Pos.Filename == b.Pos.Filename && a.Pos.Line > b.Pos.Line) {
			t.Fatalf("findings out of order: %s before %s", a, b)
		}
	}
}

// BenchmarkVet measures analyzer wall time over the real module, split into
// the load/type-check phase and each pass, so the CI time budget documented
// in .github/workflows/ci.yml has a measured basis. Run with:
//
//	go test ./internal/lint -bench BenchmarkVet -benchtime 3x
func BenchmarkVet(b *testing.B) {
	root, err := FindModuleRoot(".")
	if err != nil {
		b.Fatal(err)
	}
	trees := []string{"internal", "cmd"}

	b.Run("load", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := LoadModule(root, trees); err != nil {
				b.Fatal(err)
			}
		}
	})

	m, err := LoadModule(root, trees)
	if err != nil {
		b.Fatal(err)
	}
	cfg := DefaultVetConfig()
	b.Run("passes", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if findings := RunVet(m, cfg); len(findings) != 0 {
				b.Fatalf("module not vet-clean: %v", findings[0])
			}
		}
	})
	b.Run("lint", func(b *testing.B) {
		lintCfg := DefaultConfig()
		for i := 0; i < b.N; i++ {
			Run(m, lintCfg)
		}
	})
}

// TestVetMessagesAreActionable: every finding names its rule's fix surface —
// purity messages embed the chain, layer messages name both layers or the
// spec, checkpoint messages name the field's fate.
func TestVetMessagesAreActionable(t *testing.T) {
	m, _ := vetFixture(t, "purity", "example.com/vet",
		"internal/engine", "internal/util", "internal/runner")
	for _, f := range runPurity(t, m, purityFixtureConfig()) {
		if !strings.Contains(f.Message, " -> ") && len(f.Chain) > 1 {
			t.Errorf("multi-hop purity finding without a rendered chain: %s", f.Message)
		}
	}
}
