// Command coda-soak runs named chaos recipes — month-shaped soak
// scenarios with declarative pass/fail conditions — across a recipe × seed
// matrix and reports machine-checked verdicts.
//
// Usage:
//
//	coda-soak -list
//	coda-soak -recipe crash-heavy-diurnal-month -seeds 3
//	coda-soak -scale tiny -seeds 2 -json > report.json
//
// Exit codes follow the coda-vet convention: 0 every cell passed, 1 at
// least one verdict failed, 2 the tool itself could not run (unknown
// recipe or scale, malformed condition, bad flags).
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"github.com/coda-repro/coda/internal/soak"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("coda-soak", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		list     = fs.Bool("list", false, "list the named recipes and their conditions, then exit")
		recipe   = fs.String("recipe", "", "comma-separated recipe names (default: every recipe)")
		seeds    = fs.Int("seeds", 2, "seeds per recipe: runs seed-base .. seed-base+seeds-1")
		seedBase = fs.Int64("seed-base", 1, "first seed of the sweep")
		scale    = fs.String("scale", "tiny", "matrix scale: tiny, small, full or warehouse")
		parallel = fs.Int("parallel", 0, "worker-pool width (0 = GOMAXPROCS)")
		jsonOut  = fs.Bool("json", false, "emit the verdict report as stable-ordered JSON on stdout")
		conds    = fs.String("conditions", "", "extra check=threshold conditions for every selected recipe, comma-separated")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "coda-soak: unexpected arguments: %s\n", strings.Join(fs.Args(), " "))
		return 2
	}

	if *list {
		listRecipes(stdout)
		return 0
	}

	sc, err := soak.ParseScale(*scale)
	if err != nil {
		fmt.Fprintf(stderr, "coda-soak: %v\n", err)
		return 2
	}
	if *seeds < 1 {
		fmt.Fprintf(stderr, "coda-soak: -seeds must be at least 1, got %d\n", *seeds)
		return 2
	}
	if *seedBase < 0 {
		fmt.Fprintf(stderr, "coda-soak: -seed-base must be non-negative, got %d\n", *seedBase)
		return 2
	}
	seedList := make([]int64, *seeds)
	for i := range seedList {
		seedList[i] = *seedBase + int64(i)
	}

	var names []string
	if *recipe != "" {
		for _, name := range strings.Split(*recipe, ",") {
			name = strings.TrimSpace(name)
			if name == "" {
				continue
			}
			names = append(names, name)
		}
	}

	var extra []soak.Condition
	if *conds != "" {
		for _, s := range strings.Split(*conds, ",") {
			s = strings.TrimSpace(s)
			if s == "" {
				continue
			}
			c, err := soak.ParseCondition(s)
			if err != nil {
				fmt.Fprintf(stderr, "coda-soak: %v\n", err)
				return 2
			}
			extra = append(extra, c)
		}
	}

	rep, err := soak.Grid(context.Background(), names, seedList, sc, *parallel, extra)
	if err != nil {
		fmt.Fprintf(stderr, "coda-soak: %v\n", err)
		return 2
	}

	if *jsonOut {
		data, err := rep.Encode()
		if err != nil {
			fmt.Fprintf(stderr, "coda-soak: %v\n", err)
			return 2
		}
		if _, err := stdout.Write(data); err != nil {
			fmt.Fprintf(stderr, "coda-soak: %v\n", err)
			return 2
		}
	} else {
		printReport(stdout, rep)
	}
	if !rep.Pass {
		return 1
	}
	return 0
}

// listRecipes renders the registry with each recipe's conditions.
func listRecipes(w io.Writer) {
	for _, r := range soak.Recipes() {
		fmt.Fprintf(w, "%s\n    %s\n", r.Name, r.Description)
		for _, c := range r.Conditions {
			fmt.Fprintf(w, "    - %s\n", c)
		}
	}
}

// printReport renders the human-facing verdict table.
func printReport(w io.Writer, rep *soak.Report) {
	fmt.Fprintf(w, "scale=%s seeds=%d recipes=%d\n", rep.Scale.Name, len(rep.Seeds), len(rep.Recipes))
	for _, c := range rep.Cells {
		passed := 0
		for _, v := range c.Conditions {
			if v.Pass {
				passed++
			}
		}
		status := "PASS"
		if !c.Pass {
			status = "FAIL"
		}
		fmt.Fprintf(w, "%-4s %-42s %d/%d conditions\n", status, c.Name, passed, len(c.Conditions))
		if c.Error != "" {
			fmt.Fprintf(w, "     run error: %s\n", c.Error)
		}
		for _, v := range c.Conditions {
			if !v.Pass {
				fmt.Fprintf(w, "     FAIL %s=%g measured=%g %s\n", v.Check, v.Threshold, v.Measured, v.Detail)
			}
		}
	}
	if rep.Pass {
		fmt.Fprintf(w, "PASS: all %d cells\n", len(rep.Cells))
	} else {
		fmt.Fprintf(w, "FAIL: %d of %d cells\n", rep.Failed, len(rep.Cells))
	}
}
