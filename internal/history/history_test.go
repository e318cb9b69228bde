package history

import (
	"sync"
	"testing"
	"testing/quick"

	"github.com/coda-repro/coda/internal/job"
)

func gpuRecord(id job.ID, tenant job.TenantID, cat job.Category, cores, gpus int) Record {
	return Record{
		JobID:    id,
		Tenant:   tenant,
		Kind:     job.KindGPUTraining,
		Category: cat,
		CPUCores: cores,
		GPUs:     gpus,
	}
}

func TestAddValidation(t *testing.T) {
	l := NewLog()
	if err := l.Add(Record{JobID: 1, CPUCores: 0}); err == nil {
		t.Error("zero cores should fail")
	}
	if err := l.Add(gpuRecord(1, 1, job.CategoryCV, 4, 1)); err != nil {
		t.Errorf("valid record: %v", err)
	}
}

// TestLargestCores: the records hold one GPU each, so each job's per-GPU
// demand is its core count.
func TestLargestCores(t *testing.T) {
	l := NewLog()
	if _, ok := l.LargestCoresPerGPU(1, job.CategoryCV); ok {
		t.Error("empty log should report !ok")
	}
	must := func(rec Record) {
		t.Helper()
		if err := l.Add(rec); err != nil {
			t.Fatal(err)
		}
	}
	must(gpuRecord(1, 1, job.CategoryCV, 3, 1))
	must(gpuRecord(2, 1, job.CategoryCV, 6, 1))
	must(gpuRecord(3, 1, job.CategoryNLP, 9, 1))
	must(gpuRecord(4, 2, job.CategoryCV, 12, 1))

	got, ok := l.LargestCoresPerGPU(1, job.CategoryCV)
	if !ok || got != 6 {
		t.Errorf("LargestCoresPerGPU(1, CV) = %g, %v; want 6, true", got, ok)
	}
	got, ok = l.LargestCoresPerGPU(1, job.CategoryNLP)
	if !ok || got != 9 {
		t.Errorf("LargestCoresPerGPU(1, NLP) = %g, %v; want 9, true", got, ok)
	}
	if _, ok := l.LargestCoresPerGPU(1, job.CategorySpeech); ok {
		t.Error("LargestCoresPerGPU(1, Speech) should report !ok")
	}
	if _, ok := l.LargestCoresPerGPU(3, job.CategoryCV); ok {
		t.Error("LargestCoresPerGPU(unknown tenant) should report !ok")
	}
}

func TestLargestCoresAnyCategory(t *testing.T) {
	l := NewLog()
	if _, ok := l.LargestCoresPerGPUAnyCategory(1); ok {
		t.Error("empty log should report !ok")
	}
	if err := l.Add(gpuRecord(1, 1, job.CategoryCV, 3, 1)); err != nil {
		t.Fatal(err)
	}
	if err := l.Add(gpuRecord(2, 1, job.CategorySpeech, 8, 1)); err != nil {
		t.Fatal(err)
	}
	got, ok := l.LargestCoresPerGPUAnyCategory(1)
	if !ok || got != 8 {
		t.Errorf("LargestCoresPerGPUAnyCategory = %g, %v; want 8, true", got, ok)
	}
}

func TestCPUJobsDoNotSeedNstart(t *testing.T) {
	l := NewLog()
	if err := l.Add(Record{JobID: 1, Tenant: 1, Kind: job.KindCPU, CPUCores: 16}); err != nil {
		t.Fatal(err)
	}
	if _, ok := l.LargestCoresPerGPUAnyCategory(1); ok {
		t.Error("CPU job should not contribute to training-job history")
	}
	s := l.Stats()
	if s != (Stats{}) {
		t.Errorf("Stats = %+v", s)
	}
}

func TestStats(t *testing.T) {
	l := NewLog()
	records := []Record{
		gpuRecord(1, 1, job.CategoryCV, 2, 1),
		gpuRecord(2, 1, job.CategoryCV, 4, 4),
		gpuRecord(3, 2, job.CategoryNLP, 6, 8),
		{JobID: 4, Tenant: 3, Kind: job.KindCPU, CPUCores: 2},
		{JobID: 5, Tenant: 3, Kind: job.KindBandwidthHog, CPUCores: 8},
	}
	for _, r := range records {
		if err := l.Add(r); err != nil {
			t.Fatal(err)
		}
	}
	s := l.Stats()
	if s.GPUJobs != 3 {
		t.Errorf("GPUJobs = %d, want 3", s.GPUJobs)
	}
	// 12 tuned cores over 13 GPUs, 12 of them held by >= 4-GPU jobs.
	if want := 12.0 / 13; s.MeanCoresPerGPU != want {
		t.Errorf("MeanCoresPerGPU = %g, want %g", s.MeanCoresPerGPU, want)
	}
	if want := 12.0 / 13; s.LargeGPUShare != want {
		t.Errorf("LargeGPUShare = %g, want %g", s.LargeGPUShare, want)
	}
}

func TestStatsEmptyLog(t *testing.T) {
	s := NewLog().Stats()
	if s != (Stats{}) {
		t.Errorf("empty Stats = %+v", s)
	}
}

func TestConcurrentAccess(t *testing.T) {
	l := NewLog()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				rec := gpuRecord(job.ID(w*1000+i+1), job.TenantID(w), job.CategoryCV, 1+i%10, 1)
				if err := l.Add(rec); err != nil {
					t.Errorf("Add: %v", err)
					return
				}
				l.LargestCoresPerGPU(job.TenantID(w), job.CategoryCV)
				l.Stats()
			}
		}()
	}
	wg.Wait()
	s := l.Stats()
	if s.GPUJobs != 800 {
		t.Errorf("GPUJobs = %d, want 800", s.GPUJobs)
	}
}

// TestLargestCoresProperty: LargestCoresPerGPU always returns the max of
// the cores added for that (tenant, category) on one GPU.
func TestLargestCoresProperty(t *testing.T) {
	f := func(cores []uint8) bool {
		l := NewLog()
		max := 0
		for i, c := range cores {
			n := int(c)%16 + 1
			if err := l.Add(gpuRecord(job.ID(i+1), 1, job.CategoryCV, n, 1)); err != nil {
				return false
			}
			if n > max {
				max = n
			}
		}
		got, ok := l.LargestCoresPerGPU(1, job.CategoryCV)
		if len(cores) == 0 {
			return !ok
		}
		return ok && got == float64(max)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
