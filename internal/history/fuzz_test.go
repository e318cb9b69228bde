package history

import (
	"bytes"
	"testing"

	"github.com/coda-repro/coda/internal/job"
)

// FuzzLoad hammers the snapshot decoder with arbitrary bytes. Load must
// never panic, and any snapshot it accepts must save and re-load to the same
// aggregate statistics (round-trip stability).
func FuzzLoad(f *testing.F) {
	l := NewLog()
	for i, rec := range []Record{
		{JobID: 1, Tenant: 1, Kind: job.KindGPUTraining, Category: job.CategoryCV, CPUCores: 6, GPUs: 2, Nodes: 1},
		{JobID: 2, Tenant: 2, Kind: job.KindGPUTraining, Category: job.CategoryNLP, CPUCores: 10, GPUs: 4, Nodes: 1},
		{JobID: 3, Tenant: 1, Kind: job.KindCPU, CPUCores: 4},
	} {
		if err := l.Add(rec); err != nil {
			f.Fatalf("seed record %d: %v", i, err)
		}
	}
	var buf bytes.Buffer
	if err := l.Save(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"gpuJobCount":-1}`))
	f.Add([]byte(`{"byOwner":[{"tenant":1,"maxCores":4,"maxPerGPU":2,"count":1}]}`))
	f.Add([]byte(`{"byOwner":[{"tenant":1,"maxCores":4,"maxPerGPU":-3,"count":1}]}`))
	f.Add([]byte(`not json`))

	f.Fuzz(func(t *testing.T, data []byte) {
		loaded, err := Load(bytes.NewReader(data))
		if err != nil {
			return
		}
		var first bytes.Buffer
		if err := loaded.Save(&first); err != nil {
			t.Fatalf("accepted snapshot failed to save: %v", err)
		}
		firstBytes := append([]byte(nil), first.Bytes()...)
		again, err := Load(&first)
		if err != nil {
			t.Fatalf("saved snapshot rejected on re-load: %v", err)
		}
		var second bytes.Buffer
		if err := again.Save(&second); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(firstBytes, second.Bytes()) {
			t.Fatalf("save/load/save not stable:\nfirst:  %s\nsecond: %s", firstBytes, second.Bytes())
		}
	})
}
