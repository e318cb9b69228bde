package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"time"

	"github.com/coda-repro/coda/internal/job"
)

// record is the JSON-lines wire form of one job. Durations are serialized
// in milliseconds because encoding/json has no native time.Duration form.
type record struct {
	ID                json.Number `json:"id"`
	Kind              string      `json:"kind"`
	Tenant            int         `json:"tenant"`
	Category          string      `json:"category,omitempty"`
	Model             string      `json:"model,omitempty"`
	BatchSize         int         `json:"batchSize,omitempty"`
	HasPipeline       bool        `json:"hasPipeline,omitempty"`
	LargeWeights      bool        `json:"largeWeights,omitempty"`
	ComplexPreprocess bool        `json:"complexPreprocess,omitempty"`
	CPUCores          int         `json:"cpuCores"`
	GPUs              int         `json:"gpus,omitempty"`
	Nodes             int         `json:"nodes"`
	ArrivalMillis     int64       `json:"arrivalMillis"`
	WorkMillis        int64       `json:"workMillis"`
	BandwidthGBs      float64     `json:"bandwidthGBs,omitempty"`
}

var kindNames = map[job.Kind]string{
	job.KindCPU:          "cpu",
	job.KindGPUTraining:  "gpu-training",
	job.KindBandwidthHog: "bandwidth-hog",
}

var kindValues = reverseKinds()

func reverseKinds() map[string]job.Kind {
	m := make(map[string]job.Kind, len(kindNames))
	for k, v := range kindNames {
		m[v] = k
	}
	return m
}

var categoryNames = map[job.Category]string{
	job.CategoryNone:   "",
	job.CategoryCV:     "cv",
	job.CategoryNLP:    "nlp",
	job.CategorySpeech: "speech",
}

var categoryValues = reverseCategories()

func reverseCategories() map[string]job.Category {
	m := make(map[string]job.Category, len(categoryNames))
	for k, v := range categoryNames {
		m[v] = k
	}
	return m
}

// An Encoder writes jobs to a JSON-lines trace one at a time, so a
// Source can be spooled to disk without ever materializing the slice.
type Encoder struct {
	bw  *bufio.Writer
	enc *json.Encoder
}

// NewEncoder returns an Encoder writing to w. Call Flush when done.
func NewEncoder(w io.Writer) *Encoder {
	bw := bufio.NewWriter(w)
	return &Encoder{bw: bw, enc: json.NewEncoder(bw)}
}

// Encode appends one job to the trace.
func (e *Encoder) Encode(j *job.Job) error {
	kind, ok := kindNames[j.Kind]
	if !ok {
		return fmt.Errorf("trace: job %d has unknown kind %v", j.ID, j.Kind)
	}
	rec := record{
		ID:                json.Number(fmt.Sprintf("%d", j.ID)),
		Kind:              kind,
		Tenant:            int(j.Tenant),
		Category:          categoryNames[j.Category],
		Model:             j.Model,
		BatchSize:         j.BatchSize,
		HasPipeline:       j.Hints.HasPipeline,
		LargeWeights:      j.Hints.LargeWeights,
		ComplexPreprocess: j.Hints.ComplexPreprocess,
		CPUCores:          j.Request.CPUCores,
		GPUs:              j.Request.GPUs,
		Nodes:             j.Request.Nodes,
		ArrivalMillis:     j.Arrival.Milliseconds(),
		WorkMillis:        j.Work.Milliseconds(),
		BandwidthGBs:      j.Bandwidth,
	}
	if err := e.enc.Encode(rec); err != nil {
		return fmt.Errorf("trace: encode job %d: %w", j.ID, err)
	}
	return nil
}

// Flush writes any buffered output to the underlying writer.
func (e *Encoder) Flush() error { return e.bw.Flush() }

// Read parses a JSON-lines trace and validates every job.
func Read(r io.Reader) ([]*job.Job, error) {
	dec := json.NewDecoder(r)
	var jobs []*job.Job
	for {
		var rec record
		if err := dec.Decode(&rec); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("trace: decode: %w", err)
		}
		kind, ok := kindValues[rec.Kind]
		if !ok {
			return nil, fmt.Errorf("trace: unknown kind %q", rec.Kind)
		}
		category, ok := categoryValues[rec.Category]
		if !ok {
			return nil, fmt.Errorf("trace: unknown category %q", rec.Category)
		}
		id, err := rec.ID.Int64()
		if err != nil {
			return nil, fmt.Errorf("trace: bad id %q: %w", rec.ID, err)
		}
		j := &job.Job{
			ID:        job.ID(id),
			Kind:      kind,
			Tenant:    job.TenantID(rec.Tenant),
			Category:  category,
			Model:     rec.Model,
			BatchSize: rec.BatchSize,
			Hints: job.Hints{
				HasPipeline:       rec.HasPipeline,
				LargeWeights:      rec.LargeWeights,
				ComplexPreprocess: rec.ComplexPreprocess,
			},
			Request: job.Request{
				CPUCores: rec.CPUCores,
				GPUs:     rec.GPUs,
				Nodes:    rec.Nodes,
			},
			Arrival:   time.Duration(rec.ArrivalMillis) * time.Millisecond,
			Work:      time.Duration(rec.WorkMillis) * time.Millisecond,
			Bandwidth: rec.BandwidthGBs,
		}
		if err := j.Validate(); err != nil {
			return nil, fmt.Errorf("trace: %w", err)
		}
		jobs = append(jobs, j)
	}
	return jobs, nil
}
