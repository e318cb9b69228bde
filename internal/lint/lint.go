// Package lint is the engine of coda-vet: a stdlib-only static analyzer
// enforcing the determinism and concurrency invariants CODA's reproduction
// rests on.
// Identical seeds must replay identical schedules — otherwise the paper's
// JCT and utilization numbers are unreproducible noise — so the decision
// path must never consume Go's randomized map iteration order, wall-clock
// time, the global math/rand stream, stray goroutines, or exact float
// equality where accumulation order can leak in.
//
// Five named per-file rules (see DESIGN.md "Determinism invariants"):
//
//	ordered-map-iteration  range over a map in a decision-path package
//	no-wall-clock          time.Now/Since/Until or global math/rand use
//	no-stray-goroutines    go statements / sync primitives outside allowlist
//	float-eq               ==/!= between floating-point expressions
//	unchecked-error        discarded error results from module-internal APIs
//
// A per-file finding is suppressed by a `//coda:ordered-ok <reason>`
// annotation on the flagged line or the line above; the reason is
// mandatory. The three whole-program passes in vet.go have no such escape
// hatch. Check runs both families over one loaded Module.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// Rule names, as reported in findings and matched by fixture expectations.
const (
	RuleOrderedMap   = "ordered-map-iteration"
	RuleWallClock    = "no-wall-clock"
	RuleGoroutines   = "no-stray-goroutines"
	RuleFloatEq      = "float-eq"
	RuleUncheckedErr = "unchecked-error"
	// RuleBadAnnotation rejects malformed //coda:ordered-ok annotations: a
	// missing reason, stacked annotations, or an annotation that suppresses
	// nothing (usually on the wrong line).
	RuleBadAnnotation = "bad-annotation"
)

// Whole-program rule names; see vet.go.
const (
	RulePurity       = "transitive-purity"
	RuleLayering     = "import-layering"
	RuleCkptComplete = "checkpoint-complete"
)

// Config scopes each rule to package sets. Paths are module-relative
// package paths ("internal/core"); an entry ending in "/" matches as a
// prefix, otherwise it matches exactly.
type Config struct {
	// DecisionPath packages are scheduling-decision code where map
	// iteration order can leak into placements (ordered-map-iteration).
	DecisionPath []string
	// WallClockFree packages may not read wall-clock time or the global
	// math/rand stream (no-wall-clock).
	WallClockFree []string
	// Deterministic packages may not start goroutines or use sync
	// primitives (no-stray-goroutines) ...
	Deterministic []string
	// ... except those in GoroutineAllow.
	GoroutineAllow []string
	// FloatEqScope packages are checked for exact float comparisons.
	FloatEqScope []string
	// ErrCheckScope packages are checked for silently discarded errors.
	ErrCheckScope []string
}

// DefaultConfig is the CODA repository policy.
func DefaultConfig() Config {
	return Config{
		// The packages whose iteration order reaches DRF tie-breaking,
		// placement scans, or metric accumulation.
		DecisionPath: []string{
			"internal/core", "internal/sched", "internal/fair",
			"internal/cluster", "internal/sim", "internal/membw",
		},
		// Everything simulator-driven runs on virtual time and seeded rngs.
		WallClockFree: []string{"internal/"},
		// Goroutines and locks are confined to the history log (guarded by
		// a vetted RWMutex), the runner's worker pool — the one place the
		// repository is allowed to overlap independent simulation runs —
		// and the control-plane server, whose mutex serializes HTTP
		// handlers in front of the single-threaded machine. internal/ctl
		// still may not start goroutines of its own: the allowlist admits
		// sync primitives, and the absence of `go` statements is asserted
		// by the package's own tests plus the cmd-layer ownership of the
		// ticker loop. internal/experiments is deliberately NOT here: its
		// old replay fan-out moved into internal/runner, and it must stay
		// sync-free.
		Deterministic:  []string{"internal/"},
		GoroutineAllow: []string{"internal/history", "internal/runner", "internal/ctl"},
		FloatEqScope:   []string{"internal/", "cmd/"},
		ErrCheckScope:  []string{"internal/", "cmd/"},
	}
}

// Finding is one rule violation.
type Finding struct {
	// Pos locates the violation.
	Pos token.Position
	// Rule is the rule name (Rule* constants).
	Rule string
	// Message explains the violation.
	Message string
	// Chain is the witness call chain for transitive findings (root first,
	// offending function last); empty for per-file rules.
	Chain []string
}

// String formats the finding as "file:line: rule: message".
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d: %s: %s", f.Pos.Filename, f.Pos.Line, f.Rule, f.Message)
}

// matchScope reports whether relPath falls in the scope list.
func matchScope(scope []string, relPath string) bool {
	for _, s := range scope {
		if strings.HasSuffix(s, "/") {
			if strings.HasPrefix(relPath, s) || relPath == strings.TrimSuffix(s, "/") {
				return true
			}
		} else if relPath == s {
			return true
		}
	}
	return false
}

// AnnotationPrefix marks an intentional, reviewed exception. The text after
// the prefix is the mandatory justification.
const AnnotationPrefix = "//coda:ordered-ok"

// annotation is one //coda:ordered-ok comment, valid or not.
type annotation struct {
	pos       token.Position
	hasReason bool
	used      bool // suppressed at least one finding this run
}

// annotations indexes every suppression annotation in the module. Only
// well-formed (reason-bearing, unstacked) annotations suppress; the rest are
// reported as bad-annotation findings by validate.
type annotations struct {
	byLine map[string]map[int]*annotation
	all    []*annotation // in scan order (file, then position)
}

func newAnnotations() *annotations {
	return &annotations{byLine: make(map[string]map[int]*annotation)}
}

// collect scans a file's comments for suppression annotations.
func (a *annotations) collect(fset *token.FileSet, file *ast.File) {
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			rest, ok := strings.CutPrefix(c.Text, AnnotationPrefix)
			if !ok {
				continue
			}
			pos := fset.Position(c.Pos())
			ann := &annotation{pos: pos, hasReason: strings.TrimSpace(rest) != ""}
			lines, found := a.byLine[pos.Filename]
			if !found {
				lines = make(map[int]*annotation)
				a.byLine[pos.Filename] = lines
			}
			lines[pos.Line] = ann
			a.all = append(a.all, ann)
		}
	}
}

// stacked reports whether ann sits directly above another annotation, which
// makes its target ambiguous: an annotation covers only its own line and the
// line below, and the line below is already an annotation.
func (a *annotations) stacked(ann *annotation) bool {
	_, below := a.byLine[ann.pos.Filename][ann.pos.Line+1]
	return below
}

// valid reports whether ann is allowed to suppress findings.
func (a *annotations) valid(ann *annotation) bool {
	return ann.hasReason && !a.stacked(ann)
}

// suppressed reports whether a finding at pos carries a valid annotation on
// the same line or the line directly above, and marks that annotation used.
func (a *annotations) suppressed(pos token.Position) bool {
	lines := a.byLine[pos.Filename]
	for _, line := range []int{pos.Line, pos.Line - 1} {
		if ann, ok := lines[line]; ok && a.valid(ann) {
			ann.used = true
			return true
		}
	}
	return false
}

// validate reports malformed and ineffective annotations: a missing reason,
// stacked annotations, and annotations that suppressed nothing (usually an
// annotation drifted onto the wrong line). Call after every rule has run so
// usage is fully accounted.
func (a *annotations) validate(keep func(Finding)) {
	for _, ann := range a.all {
		switch {
		case !ann.hasReason:
			keep(Finding{
				Pos:  ann.pos,
				Rule: RuleBadAnnotation,
				Message: "suppression annotation carries no reason; write " +
					AnnotationPrefix + " <why this site is safe>",
			})
		case a.stacked(ann):
			keep(Finding{
				Pos:  ann.pos,
				Rule: RuleBadAnnotation,
				Message: "stacked suppression annotations: an annotation covers only its own line " +
					"and the line below, and the line below is another annotation — merge them " +
					"into one annotation with one reason",
			})
		case !ann.used:
			keep(Finding{
				Pos:  ann.pos,
				Rule: RuleBadAnnotation,
				Message: "suppression annotation suppresses no finding; delete it or move it onto " +
					"the flagged line (or the line directly above it)",
			})
		}
	}
}

// Run executes every rule over the module and returns the surviving
// findings sorted by position.
func Run(m *Module, cfg Config) []Finding {
	ann := newAnnotations()
	for _, pkg := range m.Packages {
		for _, file := range pkg.Files {
			ann.collect(m.Fset, file)
		}
	}

	var out []Finding
	keep := func(f Finding) {
		if !ann.suppressed(f.Pos) {
			out = append(out, f)
		}
	}
	for _, pkg := range m.Packages {
		if matchScope(cfg.DecisionPath, pkg.RelPath) {
			checkOrderedMapIteration(m, pkg, keep)
		}
		if matchScope(cfg.WallClockFree, pkg.RelPath) {
			checkWallClock(m, pkg, keep)
		}
		if matchScope(cfg.Deterministic, pkg.RelPath) && !matchScope(cfg.GoroutineAllow, pkg.RelPath) {
			checkGoroutines(m, pkg, keep)
		}
		if matchScope(cfg.FloatEqScope, pkg.RelPath) {
			checkFloatEq(m, pkg, keep)
		}
		if matchScope(cfg.ErrCheckScope, pkg.RelPath) {
			checkUncheckedError(m, pkg, keep)
		}
	}
	// Annotation hygiene runs after every rule so usage is fully accounted.
	// Bad-annotation findings are appended directly: an annotation must not
	// be able to suppress the finding about itself.
	ann.validate(func(f Finding) { out = append(out, f) })
	SortFindings(out)
	return out
}

// SortFindings orders findings by file, line, then rule — the stable report
// order shared by Run, RunVet, Check, the CLI and the JSON output.
func SortFindings(out []Finding) {
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].Pos, out[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return out[i].Rule < out[j].Rule
	})
}

// Check runs every rule over one loaded module: the five per-file rules and
// annotation hygiene under cfg, then the three whole-program passes under
// vcfg, returned as one sorted list. The families stay independent:
// annotations apply only to per-file findings, so an annotation on a
// whole-program finding's line neither suppresses it nor counts as used.
func Check(m *Module, cfg Config, vcfg VetConfig) []Finding {
	out := append(Run(m, cfg), RunVet(m, vcfg)...)
	SortFindings(out)
	return out
}
