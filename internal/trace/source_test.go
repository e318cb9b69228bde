package trace

import (
	"encoding/json"
	"reflect"
	"testing"
	"time"

	"github.com/coda-repro/coda/internal/job"
	"github.com/coda-repro/coda/internal/perfmodel"
)

func TestSourceMatchesGenerate(t *testing.T) {
	cfg := smallConfig()
	jobs, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	src, err := NewSource(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := src.Total(), cfg.CPUJobs+cfg.GPUJobs; got != want {
		t.Fatalf("Total() = %d, want %d", got, want)
	}
	for i := 0; ; i++ {
		j, err := src.Next()
		if err != nil {
			t.Fatal(err)
		}
		if j == nil {
			if i != len(jobs) {
				t.Fatalf("source drained after %d jobs, Generate returned %d", i, len(jobs))
			}
			break
		}
		if i >= len(jobs) {
			t.Fatalf("source yielded more than Generate's %d jobs", len(jobs))
		}
		if !reflect.DeepEqual(j, jobs[i]) {
			t.Fatalf("job %d differs:\nsource:   %+v\ngenerate: %+v", i, j, jobs[i])
		}
	}
	if src.Remaining() != 0 {
		t.Errorf("Remaining() = %d after drain, want 0", src.Remaining())
	}
}

func TestSourceCursorResumeMidStream(t *testing.T) {
	cfg := smallConfig()
	cfg.CPUJobs, cfg.GPUJobs = 400, 150
	src, err := NewSource(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Emit part of the stream, checkpoint, then verify the resumed source
	// yields the identical remainder.
	for i := 0; i < 137; i++ {
		if _, err := src.Next(); err != nil {
			t.Fatal(err)
		}
	}
	cur := src.CheckpointState()
	resumed, err := Resume(cur)
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Remaining() != src.Remaining() {
		t.Fatalf("resumed Remaining() = %d, original %d", resumed.Remaining(), src.Remaining())
	}
	for i := 0; ; i++ {
		want, err := src.Next()
		if err != nil {
			t.Fatal(err)
		}
		got, err := resumed.Next()
		if err != nil {
			t.Fatal(err)
		}
		if (want == nil) != (got == nil) {
			t.Fatalf("streams drained at different positions (job %d)", i)
		}
		if want == nil {
			break
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("resumed job %d differs:\nresumed:  %+v\noriginal: %+v", i, got, want)
		}
	}
}

func TestSourceCursorJSONRoundTrip(t *testing.T) {
	cfg := smallConfig()
	cfg.CPUJobs, cfg.GPUJobs = 50, 20
	src, err := NewSource(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 13; i++ {
		if _, err := src.Next(); err != nil {
			t.Fatal(err)
		}
	}
	cur := src.CheckpointState()
	data, err := json.Marshal(cur)
	if err != nil {
		t.Fatal(err)
	}
	var back Cursor
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, cur) {
		t.Fatalf("cursor JSON round trip changed state:\nbefore: %+v\nafter:  %+v", cur, back)
	}
	resumed, err := Resume(back)
	if err != nil {
		t.Fatal(err)
	}
	want, err := src.Next()
	if err != nil {
		t.Fatal(err)
	}
	got, err := resumed.Next()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("post-round-trip job differs: %+v vs %+v", got, want)
	}
}

func TestResumeRejectsBadCursors(t *testing.T) {
	cfg := smallConfig()
	cfg.CPUJobs, cfg.GPUJobs = 30, 10
	fresh := func() Cursor {
		src, err := NewSource(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 5; i++ {
			if _, err := src.Next(); err != nil {
				t.Fatal(err)
			}
		}
		return src.CheckpointState()
	}
	tests := []struct {
		name   string
		mutate func(*Cursor)
	}{
		{"bad config", func(c *Cursor) { c.Config.Duration = 0 }},
		{"negative gpu left", func(c *Cursor) { c.GPULeft = -1 }},
		{"gpu left over total", func(c *Cursor) { c.GPULeft = cfg.GPUJobs + 1 }},
		{"inconsistent next id", func(c *Cursor) { c.NextID += 3 }},
		{"draws below fresh", func(c *Cursor) { c.GPUDraws = 0 }},
		{"fraction out of range", func(c *Cursor) { c.CPUFrac = 1.5 }},
		{"arrival past duration", func(c *Cursor) { c.GPUNext = cfg.Duration + time.Hour }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cur := fresh()
			tt.mutate(&cur)
			if _, err := Resume(cur); err == nil {
				t.Error("Resume accepted a corrupt cursor")
			}
		})
	}
}

func TestNewSourceRejectsBadConfig(t *testing.T) {
	cfg := smallConfig()
	cfg.Duration = 0
	if _, err := NewSource(cfg); err == nil {
		t.Error("NewSource accepted a zero-duration config")
	}
}

// drainSource feeds every job of a fresh Source for cfg to observe, the
// one-pass drain coda-trace -count-only runs.
func drainSource(t *testing.T, cfg Config, observe func(*job.Job)) {
	t.Helper()
	src, err := NewSource(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for {
		j, err := src.Next()
		if err != nil {
			t.Fatal(err)
		}
		if j == nil {
			return
		}
		observe(j)
	}
}

// TestSummarizeSourceMatchesSlice: a StatsAccum fed from a Source summarizes
// the same trace exactly as Summarize does over the materialized slice.
func TestSummarizeSourceMatchesSlice(t *testing.T) {
	cfg := smallConfig()
	jobs, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var acc StatsAccum
	drainSource(t, cfg, acc.Observe)
	if got, want := acc.Stats(), Summarize(jobs); !reflect.DeepEqual(got, want) {
		t.Fatalf("StatsAccum over source = %+v\nSummarize            = %+v", got, want)
	}
}

// TestHourlyArrivalsSourceMatchesSlice: HourlyBins fed from a Source bin
// arrivals exactly as HourlyArrivals does over the slice, with and without
// a filter, both from one drain.
func TestHourlyArrivalsSourceMatchesSlice(t *testing.T) {
	cfg := smallConfig()
	jobs, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	gpuOnly := func(j *job.Job) bool { return j.IsGPU() }
	all, gpu := NewHourlyBins(cfg.Duration), NewHourlyBins(cfg.Duration)
	drainSource(t, cfg, func(j *job.Job) {
		all.Observe(j, nil)
		gpu.Observe(j, gpuOnly)
	})
	if got, want := all.Bins(), HourlyArrivals(jobs, cfg.Duration, nil); !reflect.DeepEqual(got, want) {
		t.Fatalf("hourly bins differ:\nsource: %v\nslice:  %v", got, want)
	}
	if got, want := gpu.Bins(), HourlyArrivals(jobs, cfg.Duration, gpuOnly); !reflect.DeepEqual(got, want) {
		t.Fatalf("filtered hourly bins differ:\nsource: %v\nslice:  %v", got, want)
	}
}

// TestSourceModelsAreCopies mutates the models a source resolved and checks
// that the catalog's next lookup is unchanged.
func TestSourceModelsAreCopies(t *testing.T) {
	src, err := NewSource(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	m := src.models[0]
	want, err := perfmodel.Lookup(m.Name)
	if err != nil {
		t.Fatal(err)
	}
	m.DefaultBatch, m.MaxBatch = -1, -1
	got, err := perfmodel.Lookup(m.Name)
	if err != nil {
		t.Fatal(err)
	}
	if *got != *want {
		t.Errorf("lookup after mutating the source's copy = %+v, want %+v", *got, *want)
	}
}
