// Command coda-vet is the repository's static analyzer. One load of the
// enclosing module's internal/... and cmd/... runs every rule:
//
//   - five per-file determinism rules (ordered-map-iteration,
//     no-wall-clock, no-stray-goroutines, float-eq, unchecked-error), each
//     suppressible by a reviewed `//coda:ordered-ok <reason>` annotation,
//     plus bad-annotation for annotations that lack a reason, are stacked
//     or suppress nothing;
//   - three whole-program proofs: transitive purity of everything reachable
//     from the engine (with witness call chains), the declarative
//     import-layering DAG, and checkpoint encode/decode completeness.
//     These carry no annotation escape hatch: the fixes are structural, or
//     a reviewed change to the spec in internal/lint/vet.go.
//
// Findings print as one list sorted by file and line, either as
// "file:line: rule: message" lines or, with -json, as a JSON array.
//
// Usage:
//
//	go run ./cmd/coda-vet ./...
//	go run ./cmd/coda-vet -json ./internal/core ./internal/sched
//
// Exit codes: 0 when the tree is clean, 1 when findings survive, 2 when the
// run itself fails (no module root, unreadable source, bad arguments).
//
// See DESIGN.md "Determinism invariants" and "Static analysis & layering".
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"github.com/coda-repro/coda/internal/lint"
)

func main() {
	jsonOut := flag.Bool("json", false, "emit findings as a JSON array (stable order, module-relative paths)")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(),
			"usage: coda-vet [-json] [./... | package-dirs]\n\n"+
				"Runs the CODA per-file rules (%s)\nand whole-program passes (%s)\nover internal/... and cmd/... of the enclosing module.\n",
			strings.Join([]string{
				lint.RuleOrderedMap, lint.RuleWallClock, lint.RuleGoroutines,
				lint.RuleFloatEq, lint.RuleUncheckedErr, lint.RuleBadAnnotation,
			}, ", "),
			strings.Join([]string{lint.RulePurity, lint.RuleLayering, lint.RuleCkptComplete}, ", "))
		flag.PrintDefaults()
	}
	flag.Parse()

	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "coda-vet:", err)
		os.Exit(2)
	}
	os.Exit(run(flag.Args(), cwd, *jsonOut, os.Stdout, os.Stderr))
}

// run is the testable body of the command: check the module enclosing dir,
// restricted to the argument patterns, writing findings to stdout and
// diagnostics to stderr. Returns the process exit code — 0 clean, 1 with
// findings, 2 on operational errors.
func run(args []string, dir string, jsonOut bool, stdout, stderr io.Writer) int {
	fail := func(err error) int {
		fmt.Fprintln(stderr, "coda-vet:", err)
		return 2
	}
	root, err := lint.FindModuleRoot(dir)
	if err != nil {
		return fail(err)
	}
	prefixes, err := lint.ResolvePatterns(args, dir)
	if err != nil {
		return fail(err)
	}
	m, err := lint.LoadModule(root, []string{"internal", "cmd"})
	if err != nil {
		return fail(err)
	}
	findings := lint.FilterToDirs(lint.Check(m, lint.DefaultConfig(), lint.DefaultVetConfig()), prefixes)

	if jsonOut {
		data, err := lint.MarshalFindings(findings, root)
		if err != nil {
			return fail(err)
		}
		if _, err := stdout.Write(data); err != nil {
			return fail(err)
		}
	} else {
		for _, f := range findings {
			fmt.Fprintf(stdout, "%s:%d: %s: %s\n", lint.RelPath(dir, f.Pos.Filename), f.Pos.Line, f.Rule, f.Message)
		}
	}
	if len(findings) > 0 {
		fmt.Fprintf(stderr, "coda-vet: %d finding(s)\n", len(findings))
		return 1
	}
	return 0
}
