// Command perfbench is the repository benchmark. It runs one named
// workload from a seed for a fixed measuring time, checks that the
// program's outputs are correct, and prints one JSON result line: the
// end-to-end metrics with -trace 0, or the per-layer metrics of a separate
// traced run with -trace 1. README.md in this directory defines every
// workload and metric.
//
// Run it from the repository root through the wrapper, which builds it:
//
//	bash perfbench/run.sh --workload month-coda --seed 1 --seconds 25 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the benchmark's last output line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// metricDef names a metric and its unit; the tables below are the
// benchmark's whole vocabulary and BENCHMARK.json must list the same.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"events_per_s", "1/s"},
	{"peak_heap_mib", "MiB"},
	{"recover_s", "s"},
	{"ack_p50_ms", "ms"},
	{"ack_p99_ms", "ms"},
	{"max_rps", "1/s"},
}

var perLayerDefs = []metricDef{
	{"sched.submit.calls", "count"},
	{"sched.submit.self_ns", "ns"},
	{"sched.tick.calls", "count"},
	{"sched.tick.self_ns", "ns"},
	{"sched.complete.calls", "count"},
	{"sched.complete.self_ns", "ns"},
	{"sched.share", "ratio"},
	{"cluster.placement_queries", "count"},
	{"cluster.queries_per_sched_call", "ratio"},
	{"env.start.calls", "count"},
	{"env.start.ns", "ns"},
	{"env.resize.calls", "count"},
	{"env.resize.ns", "ns"},
	{"env.preempt.calls", "count"},
	{"env.preempt.ns", "ns"},
	{"env.throttle.calls", "count"},
	{"env.throttle.ns", "ns"},
	{"env.unthrottle.calls", "count"},
	{"env.unthrottle.ns", "ns"},
	{"env.gpuutil.calls", "count"},
	{"env.gpuutil.ns", "ns"},
	{"env.meter.calls", "count"},
	{"env.meter.ns", "ns"},
	{"env.share", "ratio"},
	{"sim.events", "count"},
	{"sim.self_s", "s"},
	{"sim.throttles", "count"},
	{"sim.preemptions", "count"},
	{"trace.next_ns", "ns"},
	{"wal.append.calls", "count"},
	{"wal.append.p50_ns", "ns"},
	{"wal.append.p99_ns", "ns"},
	{"wal.bytes_per_record", "B"},
	{"ctl.batch_size", "count"},
	{"ckpt.save.calls", "count"},
	{"ckpt.save.ns", "ns"},
	{"ckpt.bytes", "B"},
	{"inv.sched_check.calls", "count"},
	{"inv.sched_check.ns", "ns"},
	{"ctl.tick.p50_ns", "ns"},
	{"ctl.tick.p99_ns", "ns"},
	{"ctl.queue_wait_ns", "ns"},
	{"status_p99_ms", "ms"},
	{"gen.late_p99_ms", "ms"},
	{"tracing.overhead", "ratio"},
}

// errIncorrect marks a run whose outputs failed a check: the result line
// is still printed, with correct=false.
var errIncorrect = errors.New("output check failed")

// runConfig is what every workload receives.
type runConfig struct {
	seed    int64
	measure time.Duration
	traced  bool
	// workDir holds everything a run writes: temp data dirs and span files.
	workDir string
	// log receives human-readable progress and check lines.
	log io.Writer
}

// workload runs one named workload and returns its metrics by name.
type workload struct {
	name string
	run  func(cfg runConfig) (report, error)
}

var workloads = []workload{
	{"month-coda", runMonthCODA},
	{"warehouse-fifo", runWarehouseFIFO},
	{"serve-mixed", runServeMixed},
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run (month-coda, warehouse-fifo, serve-mixed)")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Int("seconds", 20, "measuring time in seconds")
	trace := fs.Int("trace", 0, "0 prints end-to-end metrics; 1 runs traced and prints per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: usage: --workload NAME --seed N --seconds S --trace 0|1")
		return 2
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	}
	// Everything a run writes goes under .bench_build in the working
	// directory, the checkout root run.sh starts from.
	dir, err := filepath.Abs(".bench_build")
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	cfg := runConfig{
		seed:    *seed,
		measure: time.Duration(*seconds) * time.Second,
		traced:  *trace == 1,
		workDir: dir,
		log:     stdout,
	}
	rep, err := w.run(cfg)
	if err != nil && !errors.Is(err, errIncorrect) {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		rep.Correct = false
	}
	defs := endToEnd
	if cfg.traced {
		defs = perLayerDefs
	}
	out := report{Correct: rep.Correct, Attempted: rep.Attempted, Failed: rep.Failed, Metrics: map[string]metric{}}
	for _, d := range defs {
		m, ok := rep.Metrics[d.name]
		if !ok && out.Correct {
			fmt.Fprintf(stderr, "perfbench: %s did not measure %s\n", w.name, d.name)
			return 1
		}
		out.Metrics[d.name] = metric{Value: m.Value, Unit: d.unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !out.Correct {
		return 1
	}
	return 0
}

// set records a metric value; the unit is filled from the tables.
func set(m map[string]metric, name string, v float64) { m[name] = metric{Value: v} }
