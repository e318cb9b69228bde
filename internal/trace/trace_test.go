package trace

import (
	"bytes"
	"io"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/coda-repro/coda/internal/job"
)

// smallConfig keeps test generation fast while preserving the shape.
func smallConfig() Config {
	cfg := DefaultConfig()
	cfg.CPUJobs = 3000
	cfg.GPUJobs = 1000
	cfg.Duration = 7 * 24 * time.Hour
	return cfg
}

func TestConfigValidate(t *testing.T) {
	tests := []struct {
		name    string
		mutate  func(*Config)
		wantErr bool
	}{
		{"default ok", func(c *Config) {}, false},
		{"zero duration", func(c *Config) { c.Duration = 0 }, true},
		{"negative cpu jobs", func(c *Config) { c.CPUJobs = -1 }, true},
		{"no jobs", func(c *Config) { c.CPUJobs, c.GPUJobs = 0, 0 }, true},
		{"bad hog fraction", func(c *Config) { c.HogFraction = 1.5 }, true},
		{"bad amplitude", func(c *Config) { c.DiurnalAmplitude = 1 }, true},
		{"fractions do not sum", func(c *Config) { c.OverRequestFraction = 0.5 }, true},
		{"bad batch fraction", func(c *Config) { c.MaxBatchFraction = -0.1 }, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := DefaultConfig()
			tt.mutate(&cfg)
			err := cfg.Validate()
			if (err != nil) != tt.wantErr {
				t.Errorf("error = %v, wantErr %v", err, tt.wantErr)
			}
		})
	}
}

func TestGenerateDeterministic(t *testing.T) {
	cfg := smallConfig()
	a, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if !reflect.DeepEqual(a[i], b[i]) {
			t.Fatalf("job %d differs between runs:\n%+v\n%+v", i, a[i], b[i])
		}
	}
	cfg.Seed = 2
	c, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range a {
		if !reflect.DeepEqual(a[i], c[i]) {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical traces")
	}
}

func TestGenerateRejectsBadConfig(t *testing.T) {
	if _, err := Generate(Config{}); err == nil {
		t.Error("Generate(zero config) should fail")
	}
}

func TestGenerateShape(t *testing.T) {
	jobs, err := Generate(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	s := Summarize(jobs)

	if s.Jobs != 4000 || s.GPUJobs != 1000 || s.CPUJobs != 3000 {
		t.Fatalf("counts = %+v", s)
	}
	// Fig. 2d fractions within sampling tolerance.
	if math.Abs(s.ReqCores12-0.761) > 0.05 {
		t.Errorf("ReqCores12 = %g, want ~0.761", s.ReqCores12)
	}
	if math.Abs(s.ReqCoresOver10-0.153) > 0.04 {
		t.Errorf("ReqCoresOver10 = %g, want ~0.153", s.ReqCoresOver10)
	}
	// §VI-F runtime fractions.
	if math.Abs(s.GPUJobsOverHour-0.685) > 0.05 {
		t.Errorf("GPUJobsOverHour = %g, want ~0.685", s.GPUJobsOverHour)
	}
	if math.Abs(s.GPUJobsOverTwoHours-0.396) > 0.05 {
		t.Errorf("GPUJobsOverTwoHours = %g, want ~0.396", s.GPUJobsOverTwoHours)
	}
	// ~0.5% bandwidth hogs.
	hogFrac := float64(s.HogJobs) / float64(s.CPUJobs)
	if hogFrac < 0.001 || hogFrac > 0.012 {
		t.Errorf("hog fraction = %g, want ~0.005", hogFrac)
	}
}

func TestGenerateJobsSortedAndValid(t *testing.T) {
	jobs, err := Generate(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	for i, j := range jobs {
		if j.ID != job.ID(i+1) {
			t.Fatalf("job %d has ID %d", i, j.ID)
		}
		if err := j.Validate(); err != nil {
			t.Fatalf("job %d invalid: %v", i, err)
		}
		if i > 0 && jobs[i-1].Arrival > j.Arrival {
			t.Fatalf("jobs not sorted at %d", i)
		}
	}
}

func TestTenantRoles(t *testing.T) {
	jobs, err := Generate(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	s := Summarize(jobs)
	for tenant := FirstCPUOnlyTenant; tenant <= NumTenants; tenant++ {
		if s.GPUJobsPerTenant[tenant] != 0 {
			t.Errorf("tenant %d submitted %d GPU jobs, want 0", tenant, s.GPUJobsPerTenant[tenant])
		}
		if s.CPUJobsPerTenant[tenant] == 0 {
			t.Errorf("tenant %d submitted no CPU jobs", tenant)
		}
	}
	// Tenant 1 (the research lab) must dominate GPU submissions.
	for tenant := 2; tenant < FirstCPUOnlyTenant; tenant++ {
		if s.GPUJobsPerTenant[tenant] > s.GPUJobsPerTenant[1] {
			t.Errorf("tenant %d out-submitted the research lab", tenant)
		}
	}
}

func TestModelMixFavorsNLPAndSpeech(t *testing.T) {
	jobs, err := Generate(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	byCat := map[job.Category]int{}
	total := 0
	for _, j := range jobs {
		if j.Kind != job.KindGPUTraining {
			continue
		}
		// Category may be withheld; classify by model instead.
		switch j.Model {
		case "bat", "transformer":
			byCat[job.CategoryNLP]++
		case "wavenet", "deepspeech":
			byCat[job.CategorySpeech]++
		default:
			byCat[job.CategoryCV]++
		}
		total++
	}
	nlpSpeech := float64(byCat[job.CategoryNLP]+byCat[job.CategorySpeech]) / float64(total)
	if nlpSpeech < 0.6 {
		t.Errorf("NLP+Speech fraction = %g, want most of the GPU jobs", nlpSpeech)
	}
}

func TestDiurnalPattern(t *testing.T) {
	cfg := smallConfig()
	cfg.CPUJobs = 20000
	cfg.GPUJobs = 0
	jobs, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	bins := HourlyArrivals(jobs, cfg.Duration, nil)
	// Aggregate by hour of day: midday hours must clearly beat nighttime.
	var byHour [24]float64
	for i, n := range bins {
		byHour[i%24] += float64(n)
	}
	day := (byHour[10] + byHour[11] + byHour[12] + byHour[13]) / 4
	night := (byHour[22] + byHour[23] + byHour[0] + byHour[1]) / 4
	if day < night*1.5 {
		t.Errorf("diurnal pattern too weak: day=%g night=%g", day, night)
	}
}

func TestDiurnalDisabled(t *testing.T) {
	cfg := smallConfig()
	cfg.DiurnalAmplitude = 0
	if _, err := Generate(cfg); err != nil {
		t.Fatalf("flat-rate generation failed: %v", err)
	}
}

func TestHourlyArrivalsFilter(t *testing.T) {
	jobs := []*job.Job{
		{Kind: job.KindCPU, Arrival: 30 * time.Minute},
		{Kind: job.KindGPUTraining, Arrival: 90 * time.Minute},
	}
	bins := HourlyArrivals(jobs, 2*time.Hour, func(j *job.Job) bool {
		return j.Kind == job.KindGPUTraining
	})
	if len(bins) != 2 || bins[0] != 0 || bins[1] != 1 {
		t.Errorf("bins = %v, want [0 1]", bins)
	}
	// Ragged duration rounds the bin count up.
	bins = HourlyArrivals(jobs, 90*time.Minute, nil)
	if len(bins) != 2 {
		t.Errorf("ragged bins = %d, want 2", len(bins))
	}
}

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(nil)
	if s.Jobs != 0 || s.ReqCores12 != 0 {
		t.Errorf("empty Summarize = %+v", s)
	}
}

func TestRoundTripCodec(t *testing.T) {
	cfg := smallConfig()
	cfg.CPUJobs, cfg.GPUJobs = 200, 100
	jobs, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := writeJobs(&buf, jobs); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(jobs) {
		t.Fatalf("round trip length %d, want %d", len(got), len(jobs))
	}
	for i := range jobs {
		// Durations survive at millisecond resolution.
		want := *jobs[i]
		want.Arrival = want.Arrival.Truncate(time.Millisecond)
		want.Work = want.Work.Truncate(time.Millisecond)
		if !reflect.DeepEqual(&want, got[i]) {
			t.Fatalf("job %d mismatch:\nwant %+v\ngot  %+v", i, &want, got[i])
		}
	}
}

func TestReadRejectsBadInput(t *testing.T) {
	tests := []struct {
		name  string
		input string
	}{
		{"garbage", "not json"},
		{"unknown kind", `{"id":"1","kind":"quantum","tenant":1,"cpuCores":1,"nodes":1,"workMillis":1000}`},
		{"unknown category", `{"id":"1","kind":"cpu","tenant":1,"category":"bio","cpuCores":1,"nodes":1,"workMillis":1000}`},
		{"invalid job", `{"id":"1","kind":"cpu","tenant":1,"cpuCores":0,"nodes":1,"workMillis":1000}`},
		{"bad id", `{"id":"xyz","kind":"cpu","tenant":1,"cpuCores":1,"nodes":1,"workMillis":1000}`},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := Read(strings.NewReader(tt.input)); err == nil {
				t.Error("expected error")
			}
		})
	}
}

func TestReadEmpty(t *testing.T) {
	jobs, err := Read(strings.NewReader(""))
	if err != nil || jobs != nil {
		t.Errorf("Read(empty) = %v, %v", jobs, err)
	}
}

func TestWriteRejectsUnknownKind(t *testing.T) {
	j := &job.Job{ID: 1, Kind: job.Kind(99)}
	var buf bytes.Buffer
	if err := NewEncoder(&buf).Encode(j); err == nil {
		t.Error("Encode(unknown kind) should fail")
	}
}

// writeJobs serializes jobs as JSON lines.
func writeJobs(w io.Writer, jobs []*job.Job) error {
	enc := NewEncoder(w)
	for _, j := range jobs {
		if err := enc.Encode(j); err != nil {
			return err
		}
	}
	return enc.Flush()
}
