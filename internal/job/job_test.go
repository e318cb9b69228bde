package job

import (
	"testing"
	"testing/quick"
	"time"
)

func validGPUJob() *Job {
	return &Job{
		ID:       1,
		Kind:     KindGPUTraining,
		Tenant:   3,
		Category: CategoryCV,
		Model:    "resnet50",
		Request:  Request{CPUCores: 4, GPUs: 1, Nodes: 1},
		Arrival:  time.Minute,
		Work:     2 * time.Hour,
	}
}

func validCPUJob() *Job {
	return &Job{
		ID:      2,
		Kind:    KindCPU,
		Tenant:  5,
		Request: Request{CPUCores: 2, Nodes: 1},
		Work:    10 * time.Minute,
	}
}

func TestKindString(t *testing.T) {
	tests := []struct {
		kind Kind
		want string
	}{
		{KindCPU, "cpu"},
		{KindGPUTraining, "gpu-training"},
		{KindBandwidthHog, "bandwidth-hog"},
		{Kind(99), "kind(99)"},
	}
	for _, tt := range tests {
		if got := tt.kind.String(); got != tt.want {
			t.Errorf("Kind(%d).String() = %q, want %q", int(tt.kind), got, tt.want)
		}
	}
}

func TestKindIsCPUOnly(t *testing.T) {
	if !KindCPU.IsCPUOnly() {
		t.Error("KindCPU should be CPU-only")
	}
	if !KindBandwidthHog.IsCPUOnly() {
		t.Error("KindBandwidthHog should be CPU-only")
	}
	if KindGPUTraining.IsCPUOnly() {
		t.Error("KindGPUTraining should not be CPU-only")
	}
}

func TestCategoryString(t *testing.T) {
	tests := []struct {
		cat  Category
		want string
	}{
		{CategoryNone, "none"},
		{CategoryCV, "cv"},
		{CategoryNLP, "nlp"},
		{CategorySpeech, "speech"},
		{Category(42), "category(42)"},
	}
	for _, tt := range tests {
		if got := tt.cat.String(); got != tt.want {
			t.Errorf("Category(%d).String() = %q, want %q", int(tt.cat), got, tt.want)
		}
	}
}

func TestRequestValidate(t *testing.T) {
	tests := []struct {
		name    string
		req     Request
		kind    Kind
		wantErr bool
	}{
		{"valid cpu", Request{CPUCores: 2, Nodes: 1}, KindCPU, false},
		{"valid 1N1G", Request{CPUCores: 4, GPUs: 1, Nodes: 1}, KindGPUTraining, false},
		{"valid 2N8G", Request{CPUCores: 2, GPUs: 8, Nodes: 2}, KindGPUTraining, false},
		{"zero cores", Request{CPUCores: 0, Nodes: 1}, KindCPU, true},
		{"negative cores", Request{CPUCores: -1, Nodes: 1}, KindCPU, true},
		{"zero nodes", Request{CPUCores: 1, Nodes: 0}, KindCPU, true},
		{"cpu job with gpus", Request{CPUCores: 1, GPUs: 1, Nodes: 1}, KindCPU, true},
		{"hog with gpus", Request{CPUCores: 1, GPUs: 2, Nodes: 1}, KindBandwidthHog, true},
		{"gpu job without gpus", Request{CPUCores: 1, Nodes: 1}, KindGPUTraining, true},
		{"more nodes than gpus", Request{CPUCores: 1, GPUs: 1, Nodes: 2}, KindGPUTraining, true},
		{"gpus not divisible", Request{CPUCores: 1, GPUs: 3, Nodes: 2}, KindGPUTraining, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := tt.req.Validate(tt.kind)
			if (err != nil) != tt.wantErr {
				t.Errorf("Validate() error = %v, wantErr %v", err, tt.wantErr)
			}
		})
	}
}

func TestRequestGPUsPerNode(t *testing.T) {
	tests := []struct {
		req  Request
		want int
	}{
		{Request{GPUs: 8, Nodes: 2}, 4},
		{Request{GPUs: 1, Nodes: 1}, 1},
		{Request{GPUs: 0, Nodes: 1}, 0},
		{Request{}, 0},
	}
	for _, tt := range tests {
		if got := tt.req.GPUsPerNode(); got != tt.want {
			t.Errorf("%+v.GPUsPerNode() = %d, want %d", tt.req, got, tt.want)
		}
	}
}

func TestJobValidate(t *testing.T) {
	t.Run("valid gpu job", func(t *testing.T) {
		if err := validGPUJob().Validate(); err != nil {
			t.Errorf("unexpected error: %v", err)
		}
	})
	t.Run("valid cpu job", func(t *testing.T) {
		if err := validCPUJob().Validate(); err != nil {
			t.Errorf("unexpected error: %v", err)
		}
	})

	mutations := []struct {
		name   string
		mutate func(*Job)
	}{
		{"zero id", func(j *Job) { j.ID = 0 }},
		{"negative id", func(j *Job) { j.ID = -4 }},
		{"zero work", func(j *Job) { j.Work = 0 }},
		{"negative arrival", func(j *Job) { j.Arrival = -time.Second }},
		{"missing model", func(j *Job) { j.Model = "" }},
		{"bad request", func(j *Job) { j.Request.GPUs = 0 }},
	}
	for _, tt := range mutations {
		t.Run(tt.name, func(t *testing.T) {
			j := validGPUJob()
			tt.mutate(j)
			if err := j.Validate(); err == nil {
				t.Error("expected validation error, got nil")
			}
		})
	}

	cpuMutations := []struct {
		name   string
		mutate func(*Job)
	}{
		{"cpu job with model", func(j *Job) { j.Model = "resnet50" }},
		{"cpu job with category", func(j *Job) { j.Category = CategoryNLP }},
	}
	for _, tt := range cpuMutations {
		t.Run(tt.name, func(t *testing.T) {
			j := validCPUJob()
			tt.mutate(j)
			if err := j.Validate(); err == nil {
				t.Error("expected validation error, got nil")
			}
		})
	}

	t.Run("hog needs bandwidth", func(t *testing.T) {
		j := validCPUJob()
		j.Kind = KindBandwidthHog
		if err := j.Validate(); err == nil {
			t.Error("expected error for hog without bandwidth")
		}
		j.Bandwidth = 20
		if err := j.Validate(); err != nil {
			t.Errorf("unexpected error: %v", err)
		}
	})
}

func TestJobClone(t *testing.T) {
	j := validGPUJob()
	cp := j.Clone()
	if cp == j {
		t.Fatal("Clone returned the same pointer")
	}
	cp.Model = "vgg16"
	if j.Model == "vgg16" {
		t.Error("mutating clone affected original")
	}
}

func TestAllocationClone(t *testing.T) {
	a := Allocation{NodeIDs: []int{1, 2}, CPUCores: 3, GPUs: 4}
	cp := a.Clone()
	cp.NodeIDs[0] = 99
	if a.NodeIDs[0] == 99 {
		t.Error("Clone shares NodeIDs backing array")
	}
}

func TestAllocationTotals(t *testing.T) {
	a := Allocation{NodeIDs: []int{1, 2}, CPUCores: 3, GPUs: 4}
	if got := a.TotalCPUCores(); got != 6 {
		t.Errorf("TotalCPUCores() = %d, want 6", got)
	}
	if got := a.TotalGPUs(); got != 8 {
		t.Errorf("TotalGPUs() = %d, want 8", got)
	}
	var empty Allocation
	if got := empty.TotalCPUCores(); got != 0 {
		t.Errorf("empty TotalCPUCores() = %d, want 0", got)
	}
}

// TestRequestValidatePropertyGPUDivisibility checks with testing/quick that
// any request Validate accepts for a GPU job satisfies divisibility and
// positivity invariants.
func TestRequestValidatePropertyGPUDivisibility(t *testing.T) {
	f := func(cores, gpus, nodes int8) bool {
		req := Request{CPUCores: int(cores), GPUs: int(gpus), Nodes: int(nodes)}
		if err := req.Validate(KindGPUTraining); err != nil {
			return true // rejected requests carry no obligation
		}
		return req.CPUCores > 0 && req.GPUs > 0 && req.Nodes > 0 &&
			req.GPUs%req.Nodes == 0 && req.GPUsPerNode() >= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestAllocationTotalsProperty checks totals always equal per-node value
// times node count.
func TestAllocationTotalsProperty(t *testing.T) {
	f := func(nodes uint8, cores, gpus uint8) bool {
		ids := make([]int, int(nodes)%16)
		for i := range ids {
			ids[i] = i
		}
		a := Allocation{NodeIDs: ids, CPUCores: int(cores), GPUs: int(gpus)}
		return a.TotalCPUCores() == int(cores)*len(ids) &&
			a.TotalGPUs() == int(gpus)*len(ids)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
