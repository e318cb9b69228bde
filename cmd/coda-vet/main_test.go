package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// runVet invokes the command body and captures its streams.
func runVet(t *testing.T, args []string, dir string, jsonOut bool) (code int, stdout, stderr string) {
	t.Helper()
	var out, errw bytes.Buffer
	code = run(args, dir, jsonOut, &out, &errw)
	return code, out.String(), errw.String()
}

// writeTree materializes path->content files under root.
func writeTree(t *testing.T, root string, files map[string]string) {
	t.Helper()
	for path, content := range files {
		full := filepath.Join(root, path)
		if err := os.MkdirAll(filepath.Dir(full), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(full, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestExitZeroOnCleanTree: checking this repository itself must be clean —
// the per-file rules and the whole-program proofs are self-enforced — and a
// clean run exits 0 with no findings printed.
func TestExitZeroOnCleanTree(t *testing.T) {
	code, stdout, stderr := runVet(t, []string{"./..."}, ".", false)
	if code != 0 {
		t.Fatalf("exit = %d, want 0; stdout:\n%s\nstderr:\n%s", code, stdout, stderr)
	}
	if stdout != "" {
		t.Errorf("clean run printed findings:\n%s", stdout)
	}
}

// dirtyModule is a minimal module violating the default policy: a package
// named internal/sim (the engine layer) importing os, which the engine
// deny-list forbids, and reading the wall clock — so the per-file
// no-wall-clock rule, the layering pass and the purity pass all fire.
var dirtyModule = map[string]string{
	"go.mod": "module example.com/tmpvet\n\ngo 1.21\n",
	"internal/sim/sim.go": `package sim

import (
	"os"
	"time"
)

// Run leaks the host into the engine twice over.
func Run() int { return len(os.Args) + tick() }

func tick() int { return int(time.Now().UnixNano()) }
`,
	"internal/job/job.go": `package job

// N keeps the base layer non-empty.
func N() int { return 1 }
`,
}

// TestExitOneOnFindings: a module with per-file and whole-program
// violations exits 1, reports both from one run as file:line: rule:
// message, and the purity finding embeds the witness chain.
func TestExitOneOnFindings(t *testing.T) {
	tmp := t.TempDir()
	writeTree(t, tmp, dirtyModule)
	code, stdout, stderr := runVet(t, nil, tmp, false)
	if code != 1 {
		t.Fatalf("exit = %d, want 1; stdout:\n%s\nstderr:\n%s", code, stdout, stderr)
	}
	if !strings.Contains(stdout, "no-wall-clock") {
		t.Errorf("missing per-file wall-clock finding:\n%s", stdout)
	}
	if !strings.Contains(stdout, "import-layering") {
		t.Errorf("missing layering finding:\n%s", stdout)
	}
	if !strings.Contains(stdout, "transitive-purity") || !strings.Contains(stdout, "reached via") {
		t.Errorf("missing purity finding with witness chain:\n%s", stdout)
	}
	if !strings.Contains(stderr, "finding(s)") {
		t.Errorf("stderr missing summary: %q", stderr)
	}
}

// TestJSONOutput: -json renders a parseable array with module-relative paths
// and the purity chain serialized, with stdout kept pure JSON.
func TestJSONOutput(t *testing.T) {
	tmp := t.TempDir()
	writeTree(t, tmp, dirtyModule)
	code, stdout, _ := runVet(t, nil, tmp, true)
	if code != 1 {
		t.Fatalf("exit = %d, want 1", code)
	}
	var got []struct {
		File  string   `json:"file"`
		Line  int      `json:"line"`
		Rule  string   `json:"rule"`
		Chain []string `json:"chain"`
	}
	if err := json.Unmarshal([]byte(stdout), &got); err != nil {
		t.Fatalf("stdout is not a JSON array: %v\n%s", err, stdout)
	}
	var sawChain bool
	for _, f := range got {
		if f.File != "internal/sim/sim.go" {
			t.Errorf("path not module-relative: %q", f.File)
		}
		if f.Rule == "transitive-purity" && len(f.Chain) > 0 {
			sawChain = true
		}
	}
	if !sawChain {
		t.Error("no purity finding carried a witness chain in JSON")
	}
}

// TestArgumentFilterScopesFindings: naming a clean subtree hides the dirty
// one's findings; a bad path is an operational error, not a clean run.
func TestArgumentFilterScopesFindings(t *testing.T) {
	tmp := t.TempDir()
	writeTree(t, tmp, dirtyModule)
	if code, stdout, stderr := runVet(t, []string{"./internal/job"}, tmp, false); code != 0 {
		t.Errorf("clean subtree exit = %d, want 0; stdout:\n%s\nstderr:\n%s", code, stdout, stderr)
	}
	if code, _, _ := runVet(t, []string{"./internal/sim/..."}, tmp, false); code != 1 {
		t.Errorf("dirty subtree exit = %d, want 1", code)
	}
	if code, _, stderr := runVet(t, []string{"./no-such-dir"}, tmp, false); code != 2 {
		t.Errorf("bad path exit = %d, want 2; stderr: %s", code, stderr)
	}
}

// TestExitTwoOnBadPath: a pattern naming a directory that does not exist is
// an operational error (exit 2), never a silently clean run, and it fails
// before the load: the module here does not even parse.
func TestExitTwoOnBadPath(t *testing.T) {
	tmp := t.TempDir()
	writeTree(t, tmp, map[string]string{
		"go.mod":              "module example.com/tmpvet\n\ngo 1.21\n",
		"internal/job/job.go": "package job\n\nfunc (",
	})
	code, _, stderr := runVet(t, []string{"./no-such-dir/..."}, tmp, false)
	if code != 2 {
		t.Fatalf("exit = %d, want 2; stderr:\n%s", code, stderr)
	}
	if !strings.Contains(stderr, "not a directory") {
		t.Errorf("stderr missing diagnosis (was the module loaded first?): %q", stderr)
	}
}

// TestJSONCleanRunIsEmptyArray: a clean module serializes as [] with exit 0.
func TestJSONCleanRunIsEmptyArray(t *testing.T) {
	tmp := t.TempDir()
	writeTree(t, tmp, map[string]string{
		"go.mod":              dirtyModule["go.mod"],
		"internal/job/job.go": dirtyModule["internal/job/job.go"],
	})
	code, stdout, stderr := runVet(t, nil, tmp, true)
	if code != 0 {
		t.Fatalf("exit = %d, want 0; stderr:\n%s", code, stderr)
	}
	if strings.TrimSpace(stdout) != "[]" {
		t.Fatalf("clean run must print [], got %q", stdout)
	}
}

// TestExitTwoOutsideModule: running outside any Go module is an operational
// error.
func TestExitTwoOutsideModule(t *testing.T) {
	code, _, stderr := runVet(t, nil, t.TempDir(), false)
	if code != 2 {
		t.Fatalf("exit = %d, want 2; stderr:\n%s", code, stderr)
	}
}

// perFileModule is a minimal module whose only violations are per-file
// rules: internal/fair sits in the layer spec and imports nothing, so no
// whole-program pass has anything to say about it.
var perFileModule = map[string]string{
	"go.mod": "module example.com/tmplint\n\ngo 1.21\n",
	"internal/fair/fair.go": `package fair

// Keys leaks map iteration order into a slice.
func Keys(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	return keys
}

// Eq compares floats for exact equality.
func Eq(a, b float64) bool { return a == b }
`,
}

// TestExitOneOnPerFileFindings: a module with determinism violations only
// in per-file rules exits 1 and reports each finding as file:line: rule:
// message.
func TestExitOneOnPerFileFindings(t *testing.T) {
	tmp := t.TempDir()
	writeTree(t, tmp, perFileModule)
	code, stdout, stderr := runVet(t, nil, tmp, false)
	if code != 1 {
		t.Fatalf("exit = %d, want 1; stdout:\n%s\nstderr:\n%s", code, stdout, stderr)
	}
	if stdout == "" {
		t.Fatal("findings exit code without printed findings")
	}
	lines := strings.Split(strings.TrimSuffix(stdout, "\n"), "\n")
	want := []*regexp.Regexp{
		regexp.MustCompile(`^internal/fair/fair\.go:6: ordered-map-iteration: .+`),
		regexp.MustCompile(`^internal/fair/fair\.go:13: float-eq: .+`),
	}
	if len(lines) != len(want) {
		t.Fatalf("got %d findings, want %d (per-file only):\n%s", len(lines), len(want), stdout)
	}
	for i, re := range want {
		if !re.MatchString(lines[i]) {
			t.Errorf("finding %d = %q, want match for %s", i, lines[i], re)
		}
	}
	if !strings.Contains(stderr, "finding(s)") {
		t.Errorf("stderr missing summary: %q", stderr)
	}
}

// TestArgumentFilterScopesPerFileFindings: restricting the run to a clean
// subtree of a module with per-file violations hides the findings
// elsewhere; naming the dirty subtree surfaces them.
func TestArgumentFilterScopesPerFileFindings(t *testing.T) {
	tmp := t.TempDir()
	writeTree(t, tmp, map[string]string{
		"go.mod": perFileModule["go.mod"],
		"internal/fair/fair.go": `package fair

func Eq(a, b float64) bool { return a == b }
`,
		"internal/job/job.go": `package job

func Add(a, b int) int { return a + b }
`,
	})
	if code, stdout, stderr := runVet(t, []string{"./internal/job"}, tmp, false); code != 0 {
		t.Errorf("clean subtree exit = %d, want 0; stdout:\n%s\nstderr:\n%s", code, stdout, stderr)
	}
	if code, _, _ := runVet(t, []string{"./internal/fair/..."}, tmp, false); code != 1 {
		t.Errorf("dirty subtree exit = %d, want 1", code)
	}
}

// TestJSONOutputPerFileFinding: -json renders a single per-file finding as
// a parseable array with a module-relative path, keeps the exit-1
// contract, and keeps stdout pure JSON (the human summary stays on stderr).
func TestJSONOutputPerFileFinding(t *testing.T) {
	tmp := t.TempDir()
	writeTree(t, tmp, map[string]string{
		"go.mod": perFileModule["go.mod"],
		"internal/fair/fair.go": `package fair

// Eq compares floats for exact equality.
func Eq(a, b float64) bool { return a == b }
`,
	})
	code, stdout, stderr := runVet(t, nil, tmp, true)
	if code != 1 {
		t.Fatalf("exit = %d, want 1; stderr:\n%s", code, stderr)
	}
	var got []struct {
		File string `json:"file"`
		Line int    `json:"line"`
		Rule string `json:"rule"`
	}
	if err := json.Unmarshal([]byte(stdout), &got); err != nil {
		t.Fatalf("stdout is not a JSON array: %v\n%s", err, stdout)
	}
	if len(got) != 1 || got[0].Rule != "float-eq" || got[0].File != "internal/fair/fair.go" {
		t.Fatalf("unexpected JSON findings: %+v", got)
	}
	if strings.Contains(stdout, "finding(s)") {
		t.Error("summary leaked into JSON stdout")
	}
}

// TestJSONExitTwoOutsideModule: with -json, running outside any Go module
// is still an operational error, and stdout stays empty so a redirected
// findings file never holds a partial or misleading array.
func TestJSONExitTwoOutsideModule(t *testing.T) {
	code, stdout, stderr := runVet(t, nil, t.TempDir(), true)
	if code != 2 {
		t.Fatalf("exit = %d, want 2; stderr:\n%s", code, stderr)
	}
	if stdout != "" {
		t.Errorf("failed -json run wrote to stdout: %q", stdout)
	}
}
