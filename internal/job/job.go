// Package job defines the job model shared by every component of the CODA
// reproduction: CPU jobs, DNN training (GPU) jobs, their resource requests,
// tenant ownership, lifecycle states, and the optional tenant-provided hints
// the paper's adaptive CPU allocator consumes (§V-B1).
package job

import (
	"fmt"
	"time"
)

// Kind distinguishes the broad job classes the cluster hosts.
type Kind int

const (
	// KindCPU is a traditional CPU-only job (inference, ETL, auxiliary work).
	KindCPU Kind = iota + 1
	// KindGPUTraining is a DNN training job that holds GPUs and CPU cores.
	KindGPUTraining
	// KindBandwidthHog is a memory-bandwidth-intensive CPU job, standing in
	// for the paper's HEAT benchmark (§IV-C2, §VI-E).
	KindBandwidthHog
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindCPU:
		return "cpu"
	case KindGPUTraining:
		return "gpu-training"
	case KindBandwidthHog:
		return "bandwidth-hog"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// IsCPUOnly reports whether the kind runs without GPUs.
func (k Kind) IsCPUOnly() bool {
	return k == KindCPU || k == KindBandwidthHog
}

// Category is the DNN model domain. The paper's allocator seeds its search
// differently per category (3 cores for CV, 5 for NLP, 5 for Speech).
type Category int

const (
	// CategoryNone marks jobs that are not DNN training jobs, or training
	// jobs whose owner declined to disclose the category (§V-B1 worst case).
	CategoryNone Category = iota
	// CategoryCV is computer vision (Alexnet, VGG16, InceptionV3, Resnet-50).
	CategoryCV
	// CategoryNLP is natural-language processing (BAT, Transformer).
	CategoryNLP
	// CategorySpeech is speech recognition/synthesis (Wavenet, DeepSpeech).
	CategorySpeech
)

// String implements fmt.Stringer.
func (c Category) String() string {
	switch c {
	case CategoryNone:
		return "none"
	case CategoryCV:
		return "cv"
	case CategoryNLP:
		return "nlp"
	case CategorySpeech:
		return "speech"
	default:
		return fmt.Sprintf("category(%d)", int(c))
	}
}

// ID identifies a job uniquely within one trace.
type ID int64

// TenantID identifies a tenant (user/party) sharing the cluster.
type TenantID int

// Hints carries the optional information a tenant may provide about a DNN
// training job (§V-B1). Each present hint adjusts the allocator's Nstart.
type Hints struct {
	// HasPipeline reports that the training script pipelines data
	// preparation with GPU compute; such jobs need one core fewer.
	HasPipeline bool
	// LargeWeights reports that the model has a large number of weights;
	// such jobs need one core fewer (more GPU time per batch).
	LargeWeights bool
	// ComplexPreprocess reports heavy per-iteration CPU preprocessing;
	// such jobs need one core more.
	ComplexPreprocess bool
}

// Request is the resource request a job arrives with. For GPU jobs the CPU
// core count is what the owner asked for; CODA's allocator may override it.
type Request struct {
	// CPUCores is the number of CPU cores requested.
	CPUCores int
	// GPUs is the number of GPUs requested (0 for CPU-only jobs).
	GPUs int
	// Nodes is the number of nodes the job spans (1 unless multi-node).
	Nodes int
}

// Validate checks internal consistency of the request.
func (r Request) Validate(kind Kind) error {
	if r.CPUCores <= 0 {
		return fmt.Errorf("request: cpu cores must be positive, got %d", r.CPUCores)
	}
	if r.Nodes <= 0 {
		return fmt.Errorf("request: nodes must be positive, got %d", r.Nodes)
	}
	if kind.IsCPUOnly() {
		if r.GPUs != 0 {
			return fmt.Errorf("request: cpu-only job cannot request %d gpus", r.GPUs)
		}
		return nil
	}
	if r.GPUs <= 0 {
		return fmt.Errorf("request: gpu job must request gpus, got %d", r.GPUs)
	}
	if r.GPUs < r.Nodes {
		return fmt.Errorf("request: %d gpus cannot span %d nodes", r.GPUs, r.Nodes)
	}
	if r.GPUs%r.Nodes != 0 {
		return fmt.Errorf("request: %d gpus not divisible across %d nodes", r.GPUs, r.Nodes)
	}
	return nil
}

// GPUsPerNode returns the per-node GPU count of the request.
func (r Request) GPUsPerNode() int {
	if r.Nodes == 0 {
		return 0
	}
	return r.GPUs / r.Nodes
}

// Job is a single unit of work submitted to the cluster.
type Job struct {
	// ID uniquely identifies the job.
	ID ID
	// Kind is the job class.
	Kind Kind
	// Tenant owns the job.
	Tenant TenantID
	// Category is the DNN domain for training jobs.
	Category Category
	// Model is the DNN model name for training jobs (must match a model
	// known to the perfmodel package), empty otherwise.
	Model string
	// BatchSize is the training batch size (0 means the model default).
	BatchSize int
	// Hints are the optional tenant-provided allocator hints.
	Hints Hints
	// Request is the arrival-time resource request.
	Request Request
	// Arrival is the submission time, as an offset from trace start.
	Arrival time.Duration
	// Work is the amount of work in seconds-at-full-speed. A GPU job running
	// at speed 0.5 needs 2*Work wall-clock seconds to finish.
	Work time.Duration
	// Bandwidth is the peak memory bandwidth in GB/s the job drives when it
	// is a CPU job; for GPU jobs the perfmodel supplies demand instead.
	Bandwidth float64
}

// Clone returns a deep copy of the job.
func (j *Job) Clone() *Job {
	cp := *j
	return &cp
}

// Validate checks the job for internal consistency.
func (j *Job) Validate() error {
	if j.ID <= 0 {
		return fmt.Errorf("job %d: id must be positive", j.ID)
	}
	if err := j.Request.Validate(j.Kind); err != nil {
		return fmt.Errorf("job %d: %w", j.ID, err)
	}
	if j.Work <= 0 {
		return fmt.Errorf("job %d: work must be positive, got %v", j.ID, j.Work)
	}
	if j.Arrival < 0 {
		return fmt.Errorf("job %d: arrival must be non-negative, got %v", j.ID, j.Arrival)
	}
	if j.Kind == KindGPUTraining {
		if j.Model == "" {
			return fmt.Errorf("job %d: training job needs a model name", j.ID)
		}
	} else {
		if j.Model != "" {
			return fmt.Errorf("job %d: cpu job cannot carry model %q", j.ID, j.Model)
		}
		if j.Category != CategoryNone {
			return fmt.Errorf("job %d: cpu job cannot carry category %v", j.ID, j.Category)
		}
	}
	if j.Kind == KindBandwidthHog && j.Bandwidth <= 0 {
		return fmt.Errorf("job %d: bandwidth hog needs positive bandwidth", j.ID)
	}
	return nil
}

// IsGPU reports whether the job holds GPUs.
func (j *Job) IsGPU() bool { return j.Kind == KindGPUTraining }

// Allocation records the resources a running job actually holds. CPUCores
// may differ from the request once CODA's allocator slims or widens it.
type Allocation struct {
	// NodeIDs are the nodes hosting the job, one entry per node spanned.
	NodeIDs []int
	// CPUCores is the per-node core count actually held.
	CPUCores int
	// GPUs is the per-node GPU count actually held.
	GPUs int
}

// Clone returns a deep copy of the allocation.
func (a Allocation) Clone() Allocation {
	cp := a
	cp.NodeIDs = append([]int(nil), a.NodeIDs...)
	return cp
}

// TotalCPUCores returns the cluster-wide core count held.
func (a Allocation) TotalCPUCores() int { return a.CPUCores * len(a.NodeIDs) }

// TotalGPUs returns the cluster-wide GPU count held.
func (a Allocation) TotalGPUs() int { return a.GPUs * len(a.NodeIDs) }
