package lint

import (
	"bufio"
	"fmt"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// loadFixture builds a Module from an explicit directory set, assigning
// each directory the import path modPath + "/" + its path relative to root,
// so the fixture tests lint testdata packages under a fake module.
func loadFixture(root, modPath string, dirs []string) (*Module, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	m := &Module{Path: modPath, Root: root, Fset: token.NewFileSet()}
	if err := m.loadDirs(dirs); err != nil {
		return nil, err
	}
	return m, nil
}

// fixtureConfig puts the whole fixture tree in every rule's scope, with
// internal/allowed on the goroutine allowlist.
func fixtureConfig() Config {
	return Config{
		DecisionPath:   []string{"internal/"},
		WallClockFree:  []string{"internal/"},
		Deterministic:  []string{"internal/"},
		GoroutineAllow: []string{"internal/allowed"},
		FloatEqScope:   []string{"internal/"},
		ErrCheckScope:  []string{"internal/"},
	}
}

var wantRe = regexp.MustCompile(`// want "([a-z-]+)"`)

// collectWants scans the fixture sources for `// want "<rule>"` markers and
// returns the expected findings as "file:line: rule" strings.
func collectWants(t *testing.T, dirs []string) map[string]bool {
	t.Helper()
	wants := make(map[string]bool)
	for _, dir := range dirs {
		ents, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range ents {
			if !strings.HasSuffix(e.Name(), ".go") {
				continue
			}
			path := filepath.Join(dir, e.Name())
			f, err := os.Open(path)
			if err != nil {
				t.Fatal(err)
			}
			sc := bufio.NewScanner(f)
			for line := 1; sc.Scan(); line++ {
				for _, match := range wantRe.FindAllStringSubmatch(sc.Text(), -1) {
					wants[fmt.Sprintf("%s:%d: %s", path, line, match[1])] = true
				}
			}
			if err := sc.Err(); err != nil {
				t.Fatal(err)
			}
			f.Close()
		}
	}
	return wants
}

// TestFixtures runs the analyzer over the testdata module and requires the
// findings to match the `// want` expectations exactly — every seeded
// violation fires, every annotated variant stays quiet.
func TestFixtures(t *testing.T) {
	fixtureRoot, err := filepath.Abs(filepath.Join("testdata", "src"))
	if err != nil {
		t.Fatal(err)
	}
	dirs := []string{
		filepath.Join(fixtureRoot, "internal", "api"),
		filepath.Join(fixtureRoot, "internal", "allowed"),
		filepath.Join(fixtureRoot, "internal", "fixture"),
	}
	m, err := loadFixture(fixtureRoot, "example.com/m", dirs)
	if err != nil {
		t.Fatal(err)
	}
	findings := Run(m, fixtureConfig())

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

	// Each of the five rules must appear at least once, or the fixture has
	// stopped exercising part of the analyzer.
	rules := map[string]bool{}
	for _, f := range findings {
		rules[f.Rule] = true
	}
	for _, r := range []string{RuleOrderedMap, RuleWallClock, RuleGoroutines, RuleFloatEq, RuleUncheckedErr} {
		if !rules[r] {
			t.Errorf("fixture never triggered rule %s", r)
		}
	}
}

func TestMatchScope(t *testing.T) {
	cases := []struct {
		scope []string
		rel   string
		want  bool
	}{
		{[]string{"internal/core"}, "internal/core", true},
		{[]string{"internal/core"}, "internal/cores", false},
		{[]string{"internal/"}, "internal/core", true},
		{[]string{"internal/"}, "internal", true},
		{[]string{"internal/"}, "cmd/coda-sim", false},
		{[]string{"cmd/"}, "cmd/coda-sim", true},
		{nil, "internal/core", false},
	}
	for _, c := range cases {
		if got := matchScope(c.scope, c.rel); got != c.want {
			t.Errorf("matchScope(%v, %q) = %t, want %t", c.scope, c.rel, got, c.want)
		}
	}
}

// TestFindingsSorted pins the report order: findings come back sorted by
// file, line, rule so CLI output and test failures are stable.
func TestFindingsSorted(t *testing.T) {
	fixtureRoot, err := filepath.Abs(filepath.Join("testdata", "src"))
	if err != nil {
		t.Fatal(err)
	}
	m, err := loadFixture(fixtureRoot, "example.com/m", []string{
		filepath.Join(fixtureRoot, "internal", "api"),
		filepath.Join(fixtureRoot, "internal", "allowed"),
		filepath.Join(fixtureRoot, "internal", "fixture"),
	})
	if err != nil {
		t.Fatal(err)
	}
	findings := Run(m, fixtureConfig())
	if len(findings) < 2 {
		t.Fatalf("need at least two findings to check ordering, got %d", len(findings))
	}
	sorted := sort.SliceIsSorted(findings, func(i, j int) bool {
		a, b := findings[i].Pos, findings[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return findings[i].Rule < findings[j].Rule
	})
	if !sorted {
		t.Error("findings are not sorted by position")
	}
}
