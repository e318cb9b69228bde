package lint

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// lineOf returns the 1-based line of the first occurrence of substr in the
// file, failing the test if it is absent.
func lineOf(t *testing.T, path, substr string) int {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for line := 1; sc.Scan(); line++ {
		if strings.Contains(sc.Text(), substr) {
			return line
		}
	}
	t.Fatalf("sentinel %q not found in %s", substr, path)
	return 0
}

// TestBadAnnotations covers the escape hatch's own failure modes: a bare
// annotation, stacked annotations, and an annotation on the wrong line are
// each rejected with a bad-annotation finding — and none of them suppress
// anything. The expectations are sentinel-based because a bare annotation
// cannot carry a `// want` marker without the marker becoming its reason.
func TestBadAnnotations(t *testing.T) {
	fixtureRoot, err := filepath.Abs(filepath.Join("testdata", "src"))
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(fixtureRoot, "internal", "badann")
	m, err := loadFixture(fixtureRoot, "example.com/m", []string{dir})
	if err != nil {
		t.Fatal(err)
	}
	findings := Run(m, Config{DecisionPath: []string{"internal/"}})

	path := filepath.Join(dir, "badann.go")
	type exp struct {
		line    int
		rule    string
		msgPart string
	}
	wants := []exp{
		// The bare annotation (the line above the loop it fails to cover) is
		// reported, and the loop below it still fires.
		{lineOf(t, path, "sentinel: loop-after-bare") - 1, RuleBadAnnotation, "carries no reason"},
		{lineOf(t, path, "sentinel: loop-after-bare"), RuleOrderedMap, "map iteration"},
		// The upper of two stacked annotations is ambiguous and reported; the
		// lower one validly suppresses the loop, which therefore stays silent.
		{lineOf(t, path, "sentinel: the upper annotation"), RuleBadAnnotation, "stacked suppression annotations"},
		// The drifted annotation suppresses nothing: both it and the loop two
		// lines below are reported.
		{lineOf(t, path, "sentinel: drifted annotation"), RuleBadAnnotation, "suppresses no finding"},
		{lineOf(t, path, "sentinel: loop-after-drift"), RuleOrderedMap, "map iteration"},
	}

	if len(findings) != len(wants) {
		t.Errorf("want %d findings, got %d: %v", len(wants), len(findings), findings)
	}
	matched := make([]bool, len(findings))
	for _, w := range wants {
		found := false
		for i, f := range findings {
			if matched[i] || f.Pos.Line != w.line || f.Rule != w.rule {
				continue
			}
			if !strings.Contains(f.Message, w.msgPart) {
				t.Errorf("finding at line %d (%s): message %q lacks %q", w.line, w.rule, f.Message, w.msgPart)
			}
			matched[i] = true
			found = true
			break
		}
		if !found {
			t.Errorf("missing finding: line %d rule %s (%s)", w.line, w.rule, w.msgPart)
		}
	}
	for i, f := range findings {
		if !matched[i] {
			t.Errorf("unexpected finding: %s", f)
		}
	}
}

// TestAnnotationWhitespaceReason: a reason of pure whitespace is still no
// reason. Built from a temp module because gofmt would strip the trailing
// whitespace out of a checked-in fixture.
func TestAnnotationWhitespaceReason(t *testing.T) {
	root := t.TempDir()
	dir := filepath.Join(root, "internal", "ws")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	src := "package ws\n\nfunc f(m map[string]int) int {\n" +
		"\t//coda:ordered-ok \t \n" + // whitespace-only "reason"
		"\tfor k := range m {\n\t\treturn len(k)\n\t}\n\treturn 0\n}\n"
	if err := os.WriteFile(filepath.Join(dir, "ws.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	m, err := loadFixture(root, "example.com/ws", []string{dir})
	if err != nil {
		t.Fatal(err)
	}
	findings := Run(m, Config{DecisionPath: []string{"internal/"}})
	if len(findings) != 2 {
		t.Fatalf("want bad-annotation + unsuppressed loop, got %v", findings)
	}
	var rules []string
	for _, f := range findings {
		rules = append(rules, f.Rule)
	}
	got := fmt.Sprintf("%v", rules)
	if !strings.Contains(got, RuleBadAnnotation) || !strings.Contains(got, RuleOrderedMap) {
		t.Fatalf("want one %s and one %s, got %v", RuleBadAnnotation, RuleOrderedMap, findings)
	}
}

// TestValidAnnotationStaysValid pins the contract the whole repository
// depends on: a reason-bearing annotation on the line above a finding
// suppresses it and produces no hygiene noise.
func TestValidAnnotationStaysValid(t *testing.T) {
	root := t.TempDir()
	dir := filepath.Join(root, "internal", "ok")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	src := "package ok\n\nfunc f(m map[string]int) int {\n" +
		"\t//coda:ordered-ok any-match probe; outcome independent of order\n" +
		"\tfor k := range m {\n\t\treturn len(k)\n\t}\n\treturn 0\n}\n"
	if err := os.WriteFile(filepath.Join(dir, "ok.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	m, err := loadFixture(root, "example.com/ok", []string{dir})
	if err != nil {
		t.Fatal(err)
	}
	if findings := Run(m, Config{DecisionPath: []string{"internal/"}}); len(findings) != 0 {
		t.Fatalf("valid annotation should suppress cleanly, got %v", findings)
	}
}
