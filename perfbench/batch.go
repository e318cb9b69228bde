package main

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	"github.com/coda-repro/coda/internal/checkpoint"
	"github.com/coda-repro/coda/internal/experiments"
	"github.com/coda-repro/coda/internal/sim"
	"github.com/coda-repro/coda/internal/trace"
)

// Batch slices. The month slice is four days of the paper's month at its
// rate and mix (2,500 CPU and 833 GPU jobs a day, 0.5% bandwidth hogs) on
// its 80 nodes; the warehouse slice is six hours of the warehouse preset's
// rate (about 107k CPU and 36k GPU jobs a day) on 5,000 nodes. Both run
// until every job has completed.
func monthScale(seed int64) experiments.Scale {
	return experiments.Scale{Seed: seed, Days: 4, CPUJobs: 10_000, GPUJobs: 3_333, Nodes: 80}
}

func warehouseScale(seed int64) experiments.Scale {
	return experiments.Scale{Seed: seed, Days: 0.25, CPUJobs: 26_786, GPUJobs: 8_929, Nodes: 5000}
}

// boundedJobStats is the per-job history cap experiments.BenchSpec applies
// to runs above 200k jobs; the warehouse slice runs with it and with
// sketched CDFs so its result stays flat in the job count.
const boundedJobStats = 10_000

// sliceCount is how many slices of the same shape a batch run replays:
// the seed's own slice and sliceCount-1 more derived from the seed. Every
// timed round replays all of them, so a seed is always measured on the same
// inputs however fast the code is. setupsPerRun is how many constructions
// setup_s samples after each timed run.
const (
	sliceCount   = 4
	setupsPerRun = 7
)

func runMonthCODA(cfg runConfig) (report, error) {
	return runBatch(cfg, "month-coda", func(seed int64) (sim.RunSpec, error) {
		return experiments.BenchSpec(monthScale(seed), "coda", false)
	})
}

func runWarehouseFIFO(cfg runConfig) (report, error) {
	return runBatch(cfg, "warehouse-fifo", func(seed int64) (sim.RunSpec, error) {
		spec, err := experiments.BenchSpec(warehouseScale(seed), "fifo", false)
		spec.Options.MaxJobStats = boundedJobStats
		spec.Options.CompactCDFs = true
		return spec, err
	})
}

// buildSim constructs the trace source, scheduler and simulator of one
// slice run; a non-nil rec wraps the scheduler in the tracing decorators.
func buildSim(spec sim.RunSpec, rec *recorder) (*sim.Simulator, error) {
	s, err := spec.NewScheduler()
	if err != nil {
		return nil, err
	}
	if rec != nil {
		s = traceScheduler(s, rec)
	}
	src, err := trace.NewSource(*spec.Trace)
	if err != nil {
		return nil, err
	}
	return sim.NewStreaming(spec.Options, s, src)
}

// sliceRun is one measured run of the slice.
type sliceRun struct {
	res     *sim.Result
	wall    time.Duration // Run only, after construction
	dump    time.Duration // reading the result back as a DumpResult
	digest  string
	queries int64
	heapMiB float64 // peak live heap during the run, when watched
}

// runSlice builds and runs one slice; a non-nil rec traces it, and a
// non-nil heap measures its peak live heap.
func runSlice(spec sim.RunSpec, rec *recorder, heap *heapWatch) (sliceRun, error) {
	// Start every run from a collected heap, so no run pays for collecting
	// its predecessor's garbage.
	runtime.GC()
	if heap != nil {
		heap.Arm()
	}
	s, err := buildSim(spec, rec)
	if err != nil {
		return sliceRun{}, err
	}
	t0 := time.Now()
	res, err := s.Run()
	wall := time.Since(t0)
	if err != nil {
		return sliceRun{}, err
	}
	peak := 0.0
	if heap != nil {
		peak = heap.Peak()
	}
	t1 := time.Now()
	dump := sim.DumpResult(res)
	read := time.Since(t1)
	sum := sha256.Sum256([]byte(dump))
	return sliceRun{
		heapMiB: peak,
		res:     res,
		wall:    wall,
		dump:    read,
		digest:  hex.EncodeToString(sum[:]),
		queries: s.Cluster().PlacementQueries(),
	}, nil
}

// checkSlice verifies one run's outputs: every job completed, none
// terminally failed, the fault counters are consistent, and the dump is
// byte-identical to the slice's golden run's.
func checkSlice(r sliceRun, jobs int, want string) error {
	done := r.res.GPUJobsDone + r.res.CPUJobsDone
	if done != jobs {
		return fmt.Errorf("%w: %d of %d jobs completed", errIncorrect, done, jobs)
	}
	if t := r.res.Faults.TerminalFailures; t != 0 {
		return fmt.Errorf("%w: %d jobs terminally failed", errIncorrect, t)
	}
	if err := r.res.Faults.Sane(); err != nil {
		return fmt.Errorf("%w: %v", errIncorrect, err)
	}
	if r.digest != want {
		return fmt.Errorf("%w: result dump %s differs from the golden run's %s", errIncorrect, r.digest, want)
	}
	return nil
}

// repSeed derives the trace seed of slice k from the run's seed. Slice 0
// is the seed's own slice.
func repSeed(seed int64, k int) int64 {
	if k == 0 {
		return seed
	}
	return seed*1_000_003 + int64(k)
}

func runBatch(cfg runConfig, name string, specFor func(seed int64) (sim.RunSpec, error)) (report, error) {
	// The engine is single-threaded. One P keeps the collector and the
	// heap sampler on the engine's processor instead of competing for the
	// second core with whatever else the machine runs, which steadies the
	// timings; the parallel server workload keeps every P.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	// A first, untimed run of each slice is the golden run its timed runs
	// must reproduce byte for byte; it also warms the heap and caches.
	specs := make([]sim.RunSpec, sliceCount)
	golden := make([]sliceRun, sliceCount)
	jobs := 0
	for k := range specs {
		spec, err := batchSpec(specFor, repSeed(cfg.seed, k))
		if err != nil {
			return report{}, err
		}
		ref, err := runSlice(spec, nil, nil)
		if err != nil {
			return report{}, err
		}
		if err := checkSlice(ref, spec.JobCount(), ref.digest); err != nil {
			return report{}, err
		}
		fmt.Fprintf(cfg.log, "%s seed=%d slice %d: jobs=%d sim.events=%d cluster.placement_queries=%d dump.sha256=%s\n",
			name, cfg.seed, k, spec.JobCount(), ref.res.Events, ref.queries, ref.digest)
		specs[k], golden[k] = spec, ref
		jobs += spec.JobCount()
	}
	if cfg.traced {
		return traceBatch(cfg, name, specs[0], golden[0])
	}

	points, err := capturePoints(specs, golden)
	if err != nil {
		return report{}, err
	}

	// Every time is divided by the machine's slowdown during its round: the
	// reference computation's time after each replay over refNominal (see
	// reference.go).
	var roundTimes, peaks, setups, recovers []float64
	heap := startHeapWatch()
	defer heap.Stop()
	deadline := time.Now().Add(cfg.measure)
	for r := 0; r < minRounds || time.Now().Before(deadline); r++ {
		var wall time.Duration
		var slow float64
		var rSetups, rRecovers []float64
		for k, spec := range specs {
			run, err := runSlice(spec, nil, heap)
			if err != nil {
				return report{}, err
			}
			if err := checkSlice(run, spec.JobCount(), golden[k].digest); err != nil {
				return report{}, err
			}
			wall += run.wall
			peaks = append(peaks, run.heapMiB)
			refSlow := machineSlowdown()
			slow += refSlow / sliceCount
			fmt.Fprintf(cfg.log, "%s round %d slice %d: run_ms=%.1f slowdown=%.3f dump_ms=%.1f peak_heap_mib=%.2f\n",
				name, r, k, ms(run.wall), refSlow, ms(run.dump), run.heapMiB)

			// Set-up and recovery are sampled between the timed runs, so their
			// medians spread over the whole measuring time instead of resting
			// on one burst of whatever else the machine was doing.
			for j := 0; j < setupsPerRun; j++ {
				runtime.GC()
				t0 := time.Now()
				if _, err := buildSim(spec, nil); err != nil {
					return report{}, err
				}
				rSetups = append(rSetups, time.Since(t0).Seconds())
			}
			_, d, err := points[k].restore()
			if err != nil {
				return report{}, err
			}
			rRecovers = append(rRecovers, d.Seconds())
		}
		roundTimes = append(roundTimes, wall.Seconds()/slow)
		setups = appendNormalized(setups, rSetups, slow)
		recovers = appendNormalized(recovers, rRecovers, slow)
		fmt.Fprintf(cfg.log, "%s round %d: run_s=%.3f machine_slowdown=%.3f normalized_s=%.3f\n",
			name, r, wall.Seconds(), slow, roundTimes[r])
	}

	// A round replays every slice once.
	round := median(roundTimes)
	var events int64
	for _, g := range golden {
		events += g.res.Events
	}
	m := map[string]metric{}
	set(m, "setup_s", median(setups))
	set(m, "events_per_s", float64(events)/round)
	set(m, "peak_heap_mib", median(peaks))
	set(m, "recover_s", median(recovers))
	// ack_p50_ms, ack_p99_ms and max_rps measure serving and do not apply to
	// a batch run. The result line must carry every end-to-end metric, so
	// they carry the round's time and job rate: the same measurement as
	// events_per_s, not a second one.
	set(m, "ack_p50_ms", round*1000)
	set(m, "ack_p99_ms", round*1000)
	set(m, "max_rps", float64(jobs)/round)
	return report{Correct: true, Attempted: int64(jobs * len(roundTimes)), Metrics: m}, nil
}

// minRounds is the fewest timed rounds a batch measurement makes.
const minRounds = 2

// batchSpec builds the slice spec for one trace seed, without a
// virtual-time cap: every run drains until each job has completed.
func batchSpec(specFor func(int64) (sim.RunSpec, error), seed int64) (sim.RunSpec, error) {
	spec, err := specFor(seed)
	spec.Options.MaxVirtualTime = 0
	return spec, err
}

// errCaptured stops a run once its checkpoint has been captured.
var errCaptured = errors.New("checkpoint captured")

// captureCheckpoint runs spec until it has processed atEvents events and
// returns the encoded checkpoint taken there.
func captureCheckpoint(spec sim.RunSpec, atEvents int64) ([]byte, error) {
	var data []byte
	spec = spec.Clone()
	spec.Options.CheckpointEveryEvents = int(atEvents)
	spec.Options.CheckpointSink = func(ck *sim.Checkpoint) error {
		var err error
		if data, err = checkpoint.Encode(ck); err != nil {
			return err
		}
		return errCaptured
	}
	s, err := buildSim(spec, nil)
	if err != nil {
		return nil, err
	}
	if _, err := s.Run(); !errors.Is(err, errCaptured) {
		return nil, fmt.Errorf("%w: the slice took no checkpoint (run ended with %v)", errIncorrect, err)
	}
	return data, nil
}

// restorePoint is a checkpoint taken halfway through one slice.
type restorePoint struct {
	spec sim.RunSpec
	data []byte
}

// restore decodes the checkpoint and resumes a fresh scheduler and
// simulator from it, returning the simulator and the time that took.
func (p restorePoint) restore() (*sim.Simulator, time.Duration, error) {
	runtime.GC()
	t0 := time.Now()
	var ck sim.Checkpoint
	if err := checkpoint.Decode(p.data, &ck); err != nil {
		return nil, 0, err
	}
	scheduler, err := p.spec.NewScheduler()
	if err != nil {
		return nil, 0, err
	}
	s, err := sim.Resume(&ck, scheduler, nil)
	return s, time.Since(t0), err
}

// capturePoints takes a checkpoint halfway through each slice (by its
// golden run's event count), so recover_s does not rest on one trace's
// state size. A run resumed from the seed's own slice must finish
// byte-identical to the uninterrupted one.
func capturePoints(specs []sim.RunSpec, golden []sliceRun) ([]restorePoint, error) {
	var points []restorePoint
	for k, spec := range specs {
		data, err := captureCheckpoint(spec, golden[k].res.Events/2)
		if err != nil {
			return nil, err
		}
		points = append(points, restorePoint{spec: spec, data: data})
	}
	s, _, err := points[0].restore()
	if err != nil {
		return nil, err
	}
	res, err := s.Run()
	if err != nil {
		return nil, err
	}
	sum := sha256.Sum256([]byte(sim.DumpResult(res)))
	if got := hex.EncodeToString(sum[:]); got != golden[0].digest {
		return nil, fmt.Errorf("%w: resumed run's dump %s differs from the uninterrupted run's %s", errIncorrect, got, golden[0].digest)
	}
	return points, nil
}

// traceBatch alternates untraced and traced runs of the slice for the
// measuring time, requires every traced dump to equal the untraced one,
// and reports the per-layer metrics of the last traced run. The tracing
// overhead compares the median run times of the two kinds, each divided by
// the machine's slowdown measured after it.
func traceBatch(cfg runConfig, name string, spec sim.RunSpec, ref sliceRun) (report, error) {
	jobs := spec.JobCount()
	var plain, traced, dumps []float64
	var last sliceRun
	var rec *recorder
	deadline := time.Now().Add(cfg.measure)
	for len(traced) < 1 || time.Now().Before(deadline) {
		r, err := runSlice(spec, nil, nil)
		if err != nil {
			return report{}, err
		}
		if err := checkSlice(r, jobs, ref.digest); err != nil {
			return report{}, err
		}
		plain = append(plain, ns(r.wall)/machineSlowdown())
		dumps = append(dumps, ms(r.dump))

		rec = newRecorder()
		if last, err = runSlice(spec, rec, nil); err != nil {
			return report{}, err
		}
		if err := checkSlice(last, jobs, ref.digest); err != nil {
			return report{}, fmt.Errorf("traced run: %w", err)
		}
		traced = append(traced, ns(last.wall)/machineSlowdown())
	}
	fmt.Fprintf(cfg.log, "%s seed=%d: traced dump.sha256=%s equals the untraced run's\n", name, cfg.seed, last.digest)

	next, err := drainSource(*spec.Trace)
	if err != nil {
		return report{}, err
	}
	m := perLayer(layerInputs{
		rec:         rec,
		engine:      last.wall,
		overhead:    median(traced)/median(plain) - 1,
		events:      last.res.Events,
		throttles:   int64(last.res.Throttles),
		preemptions: int64(last.res.Preemptions),
		traceNext:   next,
		statusMs:    dumps,
	})
	spans := filepath.Join(cfg.workDir, "spans", fmt.Sprintf("%s-seed%d.csv", name, cfg.seed))
	if err := rec.write(spans); err != nil {
		return report{}, err
	}
	return report{Correct: true, Attempted: int64(jobs * (len(plain) + len(traced))), Metrics: m}, nil
}

// drainSource times a standalone drain of the workload's trace source and
// returns the mean time per generated job.
func drainSource(cfg trace.Config) (time.Duration, error) {
	src, err := trace.NewSource(cfg)
	if err != nil {
		return 0, err
	}
	n := 0
	t0 := time.Now()
	for {
		j, err := src.Next()
		if err != nil {
			return 0, err
		}
		if j == nil {
			break
		}
		n++
	}
	if n == 0 {
		return 0, nil
	}
	return time.Since(t0) / time.Duration(n), nil
}
