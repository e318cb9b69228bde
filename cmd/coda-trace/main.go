// Command coda-trace generates synthetic cluster traces matching the
// paper's published workload statistics, writes them as JSON lines, and
// summarizes existing traces.
//
// Usage:
//
//	coda-trace -gen -days 30 -cpu-jobs 75000 -gpu-jobs 25000 -o trace.jsonl
//	coda-trace -gen -days 30 -cpu-jobs 18750000 -gpu-jobs 6250000 -o month.jsonl
//	coda-trace -count-only -days 30 -cpu-jobs 18750000 -gpu-jobs 6250000
//	coda-trace -stats trace.jsonl
//
// -gen spools jobs to the output one at a time, and -count-only summarizes
// the configured trace without writing anything; each is one streaming
// pass, so both stay flat in memory at any job count.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"github.com/coda-repro/coda/internal/job"
	"github.com/coda-repro/coda/internal/trace"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "coda-trace:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("coda-trace", flag.ContinueOnError)
	gen := fs.Bool("gen", false, "generate a trace")
	countOnly := fs.Bool("count-only", false, "summarize the configured trace in one streaming pass, writing nothing")
	statsPath := fs.String("stats", "", "summarize an existing trace file")
	out := fs.String("o", "", "output path for -gen (default stdout)")
	days := fs.Float64("days", 30, "trace duration in days")
	cpuJobs := fs.Int("cpu-jobs", 75000, "CPU job count")
	gpuJobs := fs.Int("gpu-jobs", 25000, "GPU job count")
	seed := fs.Int64("seed", 1, "random seed")
	if err := fs.Parse(args); err != nil {
		return err
	}

	cfg := trace.DefaultConfig()
	cfg.Seed = *seed
	cfg.Duration = time.Duration(*days * 24 * float64(time.Hour))
	cfg.CPUJobs = *cpuJobs
	cfg.GPUJobs = *gpuJobs

	switch {
	case *countOnly:
		src, err := trace.NewSource(cfg)
		if err != nil {
			return err
		}
		return drainStats(os.Stdout, src, nil)
	case *gen:
		src, err := trace.NewSource(cfg)
		if err != nil {
			return err
		}
		w := os.Stdout
		if *out != "" {
			f, err := os.Create(*out)
			if err != nil {
				return err
			}
			defer f.Close()
			w = f
		}
		enc := trace.NewEncoder(w)
		if err := drainStats(os.Stderr, src, enc.Encode); err != nil {
			return err
		}
		return enc.Flush()
	case *statsPath != "":
		f, err := os.Open(*statsPath)
		if err != nil {
			return err
		}
		defer f.Close()
		jobs, err := trace.Read(f)
		if err != nil {
			return err
		}
		var last time.Duration
		for _, j := range jobs {
			if j.Arrival > last {
				last = j.Arrival
			}
		}
		printStats(os.Stdout, trace.Summarize(jobs),
			trace.HourlyArrivals(jobs, last, isCPU))
		return nil
	default:
		return fmt.Errorf("pass -gen, -count-only or -stats <file>")
	}
}

func isCPU(j *job.Job) bool { return !j.IsGPU() }

// drainStats pulls every job out of src exactly once, feeding the summary
// and histogram accumulators (and, when sink is non-nil, the trace writer)
// from the same pass, then prints the summary. Memory stays flat in the job
// count: nothing downstream of the source holds more than one job.
func drainStats(w *os.File, src *trace.Source, sink func(*job.Job) error) error {
	var acc trace.StatsAccum
	bins := trace.NewHourlyBins(src.Config().Duration)
	n := 0
	for {
		j, err := src.Next()
		if err != nil {
			return err
		}
		if j == nil {
			break
		}
		acc.Observe(j)
		bins.Observe(j, isCPU)
		if sink != nil {
			if err := sink(j); err != nil {
				return err
			}
		}
		n++
	}
	if sink != nil {
		fmt.Fprintf(w, "wrote %d jobs\n", n)
	}
	printStats(w, acc.Stats(), bins.Bins())
	return nil
}

func printStats(w *os.File, s trace.Stats, bins []int) {
	fmt.Fprintf(w, "jobs            %d (%d cpu, %d gpu, %d bandwidth hogs)\n",
		s.Jobs, s.CPUJobs, s.GPUJobs, s.HogJobs)
	fmt.Fprintf(w, "gpu job cores   1-2: %.1f%%  3-10: %.1f%%  >10: %.1f%%  (paper: 76.1 / 8.6 / 15.3)\n",
		s.ReqCores12*100, s.ReqCores310*100, s.ReqCoresOver10*100)
	fmt.Fprintf(w, "gpu runtimes    >1h: %.1f%%  >2h: %.1f%%  (paper: 68.5 / 39.6)\n",
		s.GPUJobsOverHour*100, s.GPUJobsOverTwoHours*100)
	fmt.Fprintf(w, "multi-node      %.1f%% of gpu jobs\n", s.MultiNodeFraction*100)

	// Hour-of-day histogram of CPU arrivals (Fig. 1's diurnal pattern).
	var byHour [24]int
	for i, n := range bins {
		byHour[i%24] += n
	}
	max := 0
	for _, n := range byHour {
		if n > max {
			max = n
		}
	}
	fmt.Fprintln(w, "cpu arrivals by hour of day:")
	for h, n := range byHour {
		bar := ""
		if max > 0 {
			bar = fmt.Sprintf("%-*s", 40, stars(40*n/max))
		}
		fmt.Fprintf(w, "  %02d:00 %s %d\n", h, bar, n)
	}
}

func stars(n int) string {
	out := make([]byte, n)
	for i := range out {
		out[i] = '*'
	}
	return string(out)
}
