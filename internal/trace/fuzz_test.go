package trace

import (
	"bytes"
	"testing"
)

// FuzzRead drives the JSON-lines trace parser with arbitrary input. Two
// properties must hold for every input:
//
//  1. Read never panics — malformed traces fail with an error.
//  2. Anything Read accepts survives a Write/Read round trip unchanged in
//     count and validity (the codec is self-consistent).
func FuzzRead(f *testing.F) {
	seeds := [][]byte{
		[]byte(`{"id":1,"kind":"cpu","tenant":2,"cpuCores":8,"nodes":1,"arrivalMillis":0,"workMillis":3600000,"bandwidthGBs":2.4}`),
		[]byte(`{"id":2,"kind":"gpu-training","tenant":1,"category":"cv","model":"resnet50","batchSize":64,"cpuCores":6,"gpus":2,"nodes":1,"arrivalMillis":60000,"workMillis":7200000}`),
		[]byte(`{"id":3,"kind":"bandwidth-hog","tenant":3,"cpuCores":16,"nodes":1,"arrivalMillis":0,"workMillis":1000,"bandwidthGBs":120}`),
		[]byte("{\"id\":1,\"kind\":\"cpu\",\"tenant\":1,\"cpuCores\":1,\"nodes\":1,\"arrivalMillis\":0,\"workMillis\":1}\n{\"id\":2,\"kind\":\"cpu\",\"tenant\":1,\"cpuCores\":1,\"nodes\":1,\"arrivalMillis\":5,\"workMillis\":1}"),
		[]byte(`{"id":"not-a-number","kind":"cpu"}`),
		[]byte(`{"id":4,"kind":"quantum","tenant":1,"cpuCores":1,"nodes":1}`),
		[]byte(`{"id":5,"kind":"cpu","tenant":1,"category":"astrology","cpuCores":1,"nodes":1}`),
		[]byte(`{"id":6,"kind":"cpu","tenant":1,"cpuCores":-3,"nodes":1,"arrivalMillis":0,"workMillis":1}`),
		[]byte(`{"id":7,"kind":"cpu","tenant":1,"cpuCores":1,"nodes":1,"arrivalMillis":-9223372036854775808,"workMillis":9223372036854775807}`),
		[]byte(`not json at all`),
		[]byte(`[]`),
		[]byte(`{}`),
		[]byte(``),
		[]byte("\x00\xff\xfe"),
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		jobs, err := Read(bytes.NewReader(data))
		if err != nil {
			return // rejected input: the only requirement is "no panic"
		}
		var buf bytes.Buffer
		if err := writeJobs(&buf, jobs); err != nil {
			t.Fatalf("the encoder rejected jobs Read accepted: %v", err)
		}
		again, err := Read(&buf)
		if err != nil {
			t.Fatalf("round trip failed: %v", err)
		}
		if len(again) != len(jobs) {
			t.Fatalf("round trip changed job count: %d -> %d", len(jobs), len(again))
		}
		for i := range jobs {
			if *again[i] != *jobs[i] {
				t.Fatalf("round trip changed job %d: %+v -> %+v", jobs[i].ID, *jobs[i], *again[i])
			}
		}
	})
}
