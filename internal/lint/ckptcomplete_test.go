package lint

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func runCkpt(t *testing.T, m *Module, scope []string) []Finding {
	t.Helper()
	var findings []Finding
	checkCkptComplete(m, VetConfig{CheckpointScope: scope},
		func(f Finding) { findings = append(findings, f) })
	SortFindings(findings)
	return findings
}

// TestCkptFixtures seeds the three completeness failures — field missing
// from the encode path (through a helper, so the closure matters), field
// missing from the decode path, encoder with no decoder at all — and
// requires the clean round-tripping pair to stay silent.
func TestCkptFixtures(t *testing.T) {
	m, dirs := vetFixture(t, "ckpt", "example.com/ckpt", "internal/store")
	findings := runCkpt(t, m, []string{"internal/store"})
	matchFindingsToWants(t, findings, dirs)

	assertOne := func(substr string) {
		t.Helper()
		for _, f := range findings {
			if strings.Contains(f.Message, substr) {
				return
			}
		}
		t.Errorf("no finding mentions %q; got %v", substr, findings)
	}
	assertOne("never set in the encode path")  // dropState.Dropped
	assertOne("never read in the decode path") // orphanState.Leak
	assertOne("no matching decoder")           // Solo.CheckpointState
}

// TestCkptScope: a package outside CheckpointScope is not analyzed, however
// broken its serializers are.
func TestCkptScope(t *testing.T) {
	m, _ := vetFixture(t, "ckpt", "example.com/ckpt", "internal/store")
	if findings := runCkpt(t, m, []string{"internal/elsewhere"}); len(findings) != 0 {
		t.Fatalf("out-of-scope package produced findings: %v", findings)
	}
}

// TestEncoderFieldDeletionDetected is the acceptance-criteria mutation test:
// a round-tripping encoder/decoder pair passes clean, and deleting a single
// field assignment from the encoder flips the pass to failing, pointing at
// the exact field that would arrive zero-valued after a resume.
func TestEncoderFieldDeletionDetected(t *testing.T) {
	const src = `// Package acct mirrors the repository's checkpoint serializer shape.
package acct

// Accountant is live engine state.
type Accountant struct{ credit, debt int }

type acctState struct {
	Credit int
	Debt   int
}

// CheckpointState snapshots the accountant.
func (a *Accountant) CheckpointState() acctState {
	return acctState{
		Credit: a.credit,
%s	}
}

// RestoreCheckpoint rebuilds the accountant from a snapshot.
func (a *Accountant) RestoreCheckpoint(st acctState) {
	a.credit = st.Credit
	a.debt = st.Debt
}
`
	run := func(debtLine string) []Finding {
		t.Helper()
		root := t.TempDir()
		dir := filepath.Join(root, "internal", "acct")
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		code := fmt.Sprintf(src, debtLine)
		if err := os.WriteFile(filepath.Join(dir, "acct.go"), []byte(code), 0o644); err != nil {
			t.Fatal(err)
		}
		m, err := loadFixture(root, "example.com/acct", []string{dir})
		if err != nil {
			t.Fatal(err)
		}
		return runCkpt(t, m, []string{"internal/"})
	}

	if got := run("\t\tDebt: a.debt,\n"); len(got) != 0 {
		t.Fatalf("intact encoder must be clean, got %v", got)
	}
	got := run("")
	if len(got) != 1 {
		t.Fatalf("deleting a field from the encoder must produce exactly one finding, got %v", got)
	}
	if !strings.Contains(got[0].Message, "Debt") ||
		!strings.Contains(got[0].Message, "never set in the encode path") {
		t.Fatalf("finding must name the dropped field: %s", got[0])
	}
}

// TestCkptUnkeyedLiteralCountsAllFields: a positional struct literal sets
// every field, so it must satisfy the encode side without false positives.
func TestCkptUnkeyedLiteralCountsAllFields(t *testing.T) {
	const src = `// Package pos uses a positional state literal.
package pos

// Box is live state.
type Box struct{ a, b int }

type boxState struct {
	A int
	B int
}

// CheckpointState snapshots positionally.
func (x *Box) CheckpointState() boxState { return boxState{x.a, x.b} }

// RestoreCheckpoint reads both fields.
func (x *Box) RestoreCheckpoint(st boxState) { x.a, x.b = st.A, st.B }
`
	root := t.TempDir()
	dir := filepath.Join(root, "internal", "pos")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "pos.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	m, err := loadFixture(root, "example.com/pos", []string{dir})
	if err != nil {
		t.Fatal(err)
	}
	if findings := runCkpt(t, m, []string{"internal/"}); len(findings) != 0 {
		t.Fatalf("positional literal round trip must be clean, got %v", findings)
	}
}
