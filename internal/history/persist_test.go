package history

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/coda-repro/coda/internal/job"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	l := NewLog()
	records := []Record{
		gpuRecord(1, 1, job.CategoryCV, 3, 1),
		gpuRecord(2, 1, job.CategoryCV, 6, 4),
		gpuRecord(3, 2, job.CategoryNLP, 5, 8),
		{JobID: 4, Tenant: 3, Kind: job.KindCPU, CPUCores: 2},
	}
	for _, r := range records {
		if err := l.Add(r); err != nil {
			t.Fatal(err)
		}
	}

	var buf bytes.Buffer
	if err := l.Save(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}

	if got, want := restored.Stats(), l.Stats(); got != want {
		t.Errorf("Stats after load = %+v, want %+v", got, want)
	}
	perGPU, ok := restored.LargestCoresPerGPU(1, job.CategoryCV)
	if !ok || perGPU != 3 {
		t.Errorf("LargestCoresPerGPU = %g, %v; want 3, true", perGPU, ok)
	}
	perGPU, ok = restored.LargestCoresPerGPUAnyCategory(2)
	if !ok || perGPU != 5.0/8 {
		t.Errorf("LargestCoresPerGPUAnyCategory = %g, %v; want 0.625, true", perGPU, ok)
	}
	// The restored log keeps accepting records.
	if err := restored.Add(gpuRecord(5, 1, job.CategoryCV, 9, 1)); err != nil {
		t.Fatal(err)
	}
	if perGPU, _ := restored.LargestCoresPerGPU(1, job.CategoryCV); perGPU != 9 {
		t.Errorf("post-load LargestCoresPerGPU = %g, want 9", perGPU)
	}
}

func TestSaveLoadEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := NewLog().Save(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if restored.Stats() != (Stats{}) {
		t.Errorf("empty round trip = %+v", restored.Stats())
	}
}

func TestSaveFileAtomic(t *testing.T) {
	l := NewLog()
	if err := l.Add(gpuRecord(1, 1, job.CategoryCV, 4, 2)); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "history.json")
	if err := l.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	restored, err := Load(f)
	if err != nil {
		t.Fatal(err)
	}
	if restored.Stats() != l.Stats() {
		t.Errorf("Stats after SaveFile/Load = %+v, want %+v", restored.Stats(), l.Stats())
	}
}

func TestLoadRejectsCorruptInput(t *testing.T) {
	tests := []struct {
		name, input string
	}{
		{"garbage", "not json"},
		{"negative counter", `{"gpuJobCount":-1}`},
		{"corrupt owner entry", `{"byOwner":[{"tenant":1,"maxCores":0,"count":1}]}`},
		{"corrupt category entry", `{"byOwnerCategory":[{"tenant":1,"category":1,"maxCores":3,"count":0}]}`},
		{"negative maxPerGPU owner", `{"byOwner":[{"tenant":1,"maxCores":4,"maxPerGPU":-2,"count":1}]}`},
		{"negative maxPerGPU category", `{"byOwnerCategory":[{"tenant":1,"category":1,"maxCores":4,"maxPerGPU":-0.5,"count":1}]}`},
		{"inf maxPerGPU", `{"byOwner":[{"tenant":1,"maxCores":4,"maxPerGPU":1e999,"count":1}]}`},
		{"nan maxPerGPU", `{"byOwner":[{"tenant":1,"maxCores":4,"maxPerGPU":"NaN","count":1}]}`},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := Load(strings.NewReader(tt.input)); err == nil {
				t.Error("expected error")
			}
		})
	}
}

// TestLoadLegacyMaxCoresSnapshot loads a snapshot saved while entries still
// carried the raw largest core count ("maxCores") and the log still kept
// CPU-job and largest-request counters. Those keys are ignored, and every
// Nstart and Stats answer matches a log built from the records that
// snapshot was saved from.
func TestLoadLegacyMaxCoresSnapshot(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "legacy-maxcores.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"maxCores":`, `"cpuJobCount":`, `"maxJobGPUs":`, `"largeJobGPUs":`} {
		if !bytes.Contains(data, []byte(key)) {
			t.Fatalf("fixture no longer carries %s; it must stay as the older build wrote it", key)
		}
	}
	got, err := Load(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	want := NewLog()
	for _, r := range []Record{
		{JobID: 1, Tenant: 1, Kind: job.KindGPUTraining, Category: job.CategoryCV, CPUCores: 6, GPUs: 2, Nodes: 1},
		{JobID: 2, Tenant: 1, Kind: job.KindGPUTraining, Category: job.CategoryNLP, CPUCores: 9, GPUs: 4, Nodes: 1},
		{JobID: 3, Tenant: 2, Kind: job.KindGPUTraining, Category: job.CategoryCV, CPUCores: 5, GPUs: 1, Nodes: 1},
		{JobID: 4, Tenant: 2, Kind: job.KindGPUTraining, Category: job.CategorySpeech, CPUCores: 2, GPUs: 8, Nodes: 2},
		{JobID: 5, Tenant: 3, Kind: job.KindCPU, CPUCores: 4},
	} {
		if err := want.Add(r); err != nil {
			t.Fatal(err)
		}
	}
	if got.Stats() != want.Stats() {
		t.Errorf("Stats = %+v, want %+v", got.Stats(), want.Stats())
	}
	for tenant := job.TenantID(1); tenant <= 3; tenant++ {
		for _, cat := range []job.Category{job.CategoryCV, job.CategoryNLP, job.CategorySpeech} {
			g, gok := got.LargestCoresPerGPU(tenant, cat)
			w, wok := want.LargestCoresPerGPU(tenant, cat)
			if g != w || gok != wok {
				t.Errorf("LargestCoresPerGPU(%d, %v) = %g, %v; want %g, %v", tenant, cat, g, gok, w, wok)
			}
		}
		g, gok := got.LargestCoresPerGPUAnyCategory(tenant)
		w, wok := want.LargestCoresPerGPUAnyCategory(tenant)
		if g != w || gok != wok {
			t.Errorf("LargestCoresPerGPUAnyCategory(%d) = %g, %v; want %g, %v", tenant, g, gok, w, wok)
		}
	}
	var saved bytes.Buffer
	if err := got.Save(&saved); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(saved.String(), "maxCores") {
		t.Errorf("re-saved snapshot still carries maxCores: %s", saved.String())
	}
}
