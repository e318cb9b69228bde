package cluster

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/coda-repro/coda/internal/job"
)

func smallConfig() Config {
	return Config{Nodes: 4, CoresPerNode: 8, GPUsPerNode: 2, BandwidthGBs: 100, PCIeGBs: 16}
}

func TestConfigValidate(t *testing.T) {
	tests := []struct {
		name    string
		mutate  func(*Config)
		wantErr bool
	}{
		{"default ok", func(c *Config) {}, false},
		{"zero nodes", func(c *Config) { c.Nodes = 0 }, true},
		{"zero cores", func(c *Config) { c.CoresPerNode = 0 }, true},
		{"negative gpus", func(c *Config) { c.GPUsPerNode = -1 }, true},
		{"zero gpus ok (cpu-only cluster)", func(c *Config) { c.GPUsPerNode = 0 }, false},
		{"zero bandwidth", func(c *Config) { c.BandwidthGBs = 0 }, true},
		{"zero pcie", func(c *Config) { c.PCIeGBs = 0 }, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := DefaultConfig()
			tt.mutate(&cfg)
			err := cfg.Validate()
			if (err != nil) != tt.wantErr {
				t.Errorf("Validate() error = %v, wantErr %v", err, tt.wantErr)
			}
		})
	}
}

func TestNewDefault(t *testing.T) {
	c, err := New(DefaultConfig())
	if err != nil {
		t.Fatalf("New() error: %v", err)
	}
	if got := c.Size(); got != DefaultNodes {
		t.Errorf("Size() = %d, want %d", got, DefaultNodes)
	}
	if got := c.TotalGPUs(); got != DefaultNodes*DefaultGPUsPerNode {
		t.Errorf("TotalGPUs() = %d, want %d", got, DefaultNodes*DefaultGPUsPerNode)
	}
	if got := c.Snapshot().TotalCores; got != DefaultNodes*DefaultCoresPerNode {
		t.Errorf("Snapshot().TotalCores = %d, want %d", got, DefaultNodes*DefaultCoresPerNode)
	}
}

func TestNewRejectsBadConfig(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("New(zero config) should fail")
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustNew(bad config) should panic")
		}
	}()
	MustNew(Config{})
}

func TestAllocateRelease(t *testing.T) {
	c := MustNew(smallConfig())
	alloc := job.Allocation{NodeIDs: []int{0}, CPUCores: 4, GPUs: 1}
	if err := c.Allocate(1, alloc); err != nil {
		t.Fatalf("Allocate: %v", err)
	}
	n, _ := c.Node(0)
	if n.FreeCores() != 4 || n.FreeGPUs() != 1 {
		t.Errorf("after alloc: free = %d cores %d gpus, want 4, 1", n.FreeCores(), n.FreeGPUs())
	}
	if got := n.jobs[1].cores; got != 4 {
		t.Errorf("job 1 holds %d cores on node 0, want 4", got)
	}
	nodes, ok := c.Placement(1)
	if !ok || len(nodes) != 1 || nodes[0] != 0 {
		t.Errorf("Placement = %v, %v", nodes, ok)
	}
	if err := c.Release(1); err != nil {
		t.Fatalf("Release: %v", err)
	}
	if n.FreeCores() != 8 || n.FreeGPUs() != 2 {
		t.Errorf("after release: free = %d cores %d gpus, want 8, 2", n.FreeCores(), n.FreeGPUs())
	}
	if err := c.CheckInvariants(); err != nil {
		t.Errorf("invariants: %v", err)
	}
}

func TestAllocateMultiNode(t *testing.T) {
	c := MustNew(smallConfig())
	alloc := job.Allocation{NodeIDs: []int{1, 2}, CPUCores: 2, GPUs: 2}
	if err := c.Allocate(7, alloc); err != nil {
		t.Fatalf("Allocate: %v", err)
	}
	for _, nid := range []int{1, 2} {
		n, _ := c.Node(nid)
		if n.UsedCores() != 2 || n.UsedGPUs() != 2 {
			t.Errorf("node %d: used = %d cores %d gpus, want 2, 2", nid, n.UsedCores(), n.UsedGPUs())
		}
	}
	if got := c.Snapshot().UsedGPUs; got != 4 {
		t.Errorf("Snapshot().UsedGPUs = %d, want 4", got)
	}
}

func TestAllocateErrors(t *testing.T) {
	c := MustNew(smallConfig())
	tests := []struct {
		name  string
		id    job.ID
		alloc job.Allocation
		want  error
	}{
		{"no nodes", 1, job.Allocation{CPUCores: 1}, nil},
		{"bad node", 1, job.Allocation{NodeIDs: []int{99}, CPUCores: 1}, ErrUnknownNode},
		{"negative node", 1, job.Allocation{NodeIDs: []int{-1}, CPUCores: 1}, ErrUnknownNode},
		{"zero cores", 1, job.Allocation{NodeIDs: []int{0}, CPUCores: 0}, nil},
		{"negative gpus", 1, job.Allocation{NodeIDs: []int{0}, CPUCores: 1, GPUs: -1}, nil},
		{"too many cores", 1, job.Allocation{NodeIDs: []int{0}, CPUCores: 9}, ErrInsufficient},
		{"too many gpus", 1, job.Allocation{NodeIDs: []int{0}, CPUCores: 1, GPUs: 3}, ErrInsufficient},
		{"duplicate node", 1, job.Allocation{NodeIDs: []int{0, 0}, CPUCores: 1}, nil},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := c.Allocate(tt.id, tt.alloc)
			if err == nil {
				t.Fatal("expected error")
			}
			if tt.want != nil && !errors.Is(err, tt.want) {
				t.Errorf("error = %v, want %v", err, tt.want)
			}
		})
	}
	// Atomicity: failing multi-node allocation must leave nothing behind.
	if err := c.Allocate(2, job.Allocation{NodeIDs: []int{0, 99}, CPUCores: 1}); err == nil {
		t.Fatal("expected failure")
	}
	if used := c.Snapshot().UsedCores; used != 0 {
		t.Errorf("failed allocation leaked %d cores", used)
	}
}

func TestAllocateDuplicateJob(t *testing.T) {
	c := MustNew(smallConfig())
	alloc := job.Allocation{NodeIDs: []int{0}, CPUCores: 1}
	if err := c.Allocate(1, alloc); err != nil {
		t.Fatal(err)
	}
	if err := c.Allocate(1, alloc); !errors.Is(err, ErrDuplicateJob) {
		t.Errorf("error = %v, want ErrDuplicateJob", err)
	}
}

func TestReleaseUnknown(t *testing.T) {
	c := MustNew(smallConfig())
	if err := c.Release(5); !errors.Is(err, ErrUnknownJob) {
		t.Errorf("error = %v, want ErrUnknownJob", err)
	}
}

func TestResize(t *testing.T) {
	c := MustNew(smallConfig())
	if err := c.Allocate(1, job.Allocation{NodeIDs: []int{0}, CPUCores: 2, GPUs: 1}); err != nil {
		t.Fatal(err)
	}
	if err := c.Resize(1, 6); err != nil {
		t.Fatalf("Resize grow: %v", err)
	}
	n, _ := c.Node(0)
	if got := n.jobs[1].cores; got != 6 {
		t.Errorf("job 1 holds %d cores after growing, want 6", got)
	}
	if err := c.Resize(1, 1); err != nil {
		t.Fatalf("Resize shrink: %v", err)
	}
	if n.FreeCores() != 7 {
		t.Errorf("FreeCores = %d, want 7", n.FreeCores())
	}
	if err := c.Resize(1, 9); !errors.Is(err, ErrInsufficient) {
		t.Errorf("oversize resize error = %v, want ErrInsufficient", err)
	}
	if err := c.Resize(1, 0); err == nil {
		t.Error("Resize to 0 should fail")
	}
	if err := c.Resize(42, 2); !errors.Is(err, ErrUnknownJob) {
		t.Errorf("unknown job resize error = %v, want ErrUnknownJob", err)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Errorf("invariants: %v", err)
	}
}

func TestResizeMultiNodeAtomic(t *testing.T) {
	c := MustNew(smallConfig())
	// Job 1 spans nodes 0,1 with 2 cores each; job 2 fills node 1.
	if err := c.Allocate(1, job.Allocation{NodeIDs: []int{0, 1}, CPUCores: 2}); err != nil {
		t.Fatal(err)
	}
	if err := c.Allocate(2, job.Allocation{NodeIDs: []int{1}, CPUCores: 6}); err != nil {
		t.Fatal(err)
	}
	// Growing job 1 to 4 would fit node 0 but not node 1: must fail atomically.
	if err := c.Resize(1, 4); !errors.Is(err, ErrInsufficient) {
		t.Fatalf("error = %v, want ErrInsufficient", err)
	}
	n0, _ := c.Node(0)
	if n0.UsedCores() != 2 {
		t.Errorf("node 0 used %d cores after failed resize, want 2", n0.UsedCores())
	}
}

func TestSnapshot(t *testing.T) {
	c := MustNew(smallConfig())
	if err := c.Allocate(1, job.Allocation{NodeIDs: []int{0, 1}, CPUCores: 3, GPUs: 1}); err != nil {
		t.Fatal(err)
	}
	s := c.Snapshot()
	if s.UsedCores != 6 || s.UsedGPUs != 2 {
		t.Errorf("Snapshot = %+v", s)
	}
	if s.TotalCores != 32 || s.TotalGPUs != 8 {
		t.Errorf("Snapshot totals = %+v", s)
	}
	if err := c.Resize(1, 5); err != nil {
		t.Fatal(err)
	}
	if err := c.Allocate(2, job.Allocation{NodeIDs: []int{1}, CPUCores: 2}); err != nil {
		t.Fatal(err)
	}
	if err := c.Release(1); err != nil {
		t.Fatal(err)
	}
	if s := c.Snapshot(); s != (Snapshot{UsedCores: 2, TotalCores: 32, TotalGPUs: 8}) {
		t.Errorf("Snapshot after resize, allocate and release = %+v", s)
	}
}

// TestCheckInvariantsCatchesCounterDrift puts each cluster-wide counter
// one off and requires CheckInvariants to reject it against the node sum.
func TestCheckInvariantsCatchesCounterDrift(t *testing.T) {
	for _, tc := range []struct {
		name  string
		drift func(c *Cluster)
	}{
		{"used cores", func(c *Cluster) { c.usedCores++ }},
		{"used gpus", func(c *Cluster) { c.usedGPUs-- }},
		{"total cores", func(c *Cluster) { c.totalCores++ }},
		{"total gpus", func(c *Cluster) { c.totalGPUs++ }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := MustNew(smallConfig())
			if err := c.Allocate(1, job.Allocation{NodeIDs: []int{0, 1}, CPUCores: 3, GPUs: 1}); err != nil {
				t.Fatal(err)
			}
			if err := c.CheckInvariants(); err != nil {
				t.Fatalf("healthy cluster: %v", err)
			}
			tc.drift(c)
			if err := c.CheckInvariants(); err == nil {
				t.Error("CheckInvariants missed the drifted counter")
			}
		})
	}
}

func TestNodeAccessors(t *testing.T) {
	c := MustNew(smallConfig())
	if err := c.Allocate(3, job.Allocation{NodeIDs: []int{2}, CPUCores: 5, GPUs: 1}); err != nil {
		t.Fatal(err)
	}
	n, err := c.Node(2)
	if err != nil {
		t.Fatal(err)
	}
	if n.JobCount() != 1 {
		t.Errorf("JobCount = %d, want 1", n.JobCount())
	}
	jobs := n.Jobs()
	if len(jobs) != 1 || jobs[0] != 3 {
		t.Errorf("Jobs = %v, want [3]", jobs)
	}
	cores, gpus, ok := n.JobShare(3)
	if !ok || cores != 5 || gpus != 1 {
		t.Errorf("JobShare = %d, %d, %v", cores, gpus, ok)
	}
	if _, _, ok := n.JobShare(99); ok {
		t.Error("JobShare(99) should report !ok")
	}
	if _, err := c.Node(-1); !errors.Is(err, ErrUnknownNode) {
		t.Errorf("Node(-1) error = %v", err)
	}
	if _, err := c.Node(4); !errors.Is(err, ErrUnknownNode) {
		t.Errorf("Node(4) error = %v", err)
	}
}

func TestPlacementCopyIsolation(t *testing.T) {
	c := MustNew(smallConfig())
	nodeIDs := []int{0}
	if err := c.Allocate(1, job.Allocation{NodeIDs: nodeIDs, CPUCores: 1}); err != nil {
		t.Fatal(err)
	}
	nodeIDs[0] = 3 // mutating caller slice must not corrupt cluster state
	got, _ := c.Placement(1)
	if got[0] != 0 {
		t.Errorf("Placement = %v, want [0]", got)
	}
	got[0] = 9 // mutating returned slice must not corrupt either
	again, _ := c.Placement(1)
	if again[0] != 0 {
		t.Errorf("Placement after mutation = %v, want [0]", again)
	}
}

// TestRandomWorkloadInvariants drives random allocate/release/resize
// sequences and checks invariants after every step.
func TestRandomWorkloadInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	c := MustNew(Config{Nodes: 6, CoresPerNode: 12, GPUsPerNode: 4, BandwidthGBs: 100, PCIeGBs: 16})
	live := map[job.ID]bool{}
	nextID := job.ID(1)
	for step := 0; step < 2000; step++ {
		switch op := rng.Intn(3); {
		case op == 0 || len(live) == 0:
			nodes := firstFit(c, 1+rng.Intn(2), 1+rng.Intn(6), rng.Intn(3))
			if nodes == nil {
				continue
			}
			alloc := job.Allocation{NodeIDs: nodes, CPUCores: 1 + rng.Intn(6), GPUs: rng.Intn(3)}
			// Re-check fit with the possibly different core/gpu draw.
			fits := true
			for _, nid := range nodes {
				n, _ := c.Node(nid)
				if !n.Fits(alloc.CPUCores, alloc.GPUs) {
					fits = false
				}
			}
			err := c.Allocate(nextID, alloc)
			if fits && err != nil {
				t.Fatalf("step %d: Allocate fitting job: %v", step, err)
			}
			if err == nil {
				live[nextID] = true
				nextID++
			}
		case op == 1:
			for id := range live {
				if err := c.Release(id); err != nil {
					t.Fatalf("step %d: Release: %v", step, err)
				}
				delete(live, id)
				break
			}
		default:
			for id := range live {
				_ = c.Resize(id, 1+rng.Intn(8)) // may legitimately fail
				break
			}
		}
		if err := c.CheckInvariants(); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
	}
}

// TestAllocateReleaseProperty: allocating then releasing any fitting job
// restores exact free-resource counts.
func TestAllocateReleaseProperty(t *testing.T) {
	f := func(coreReq, gpuReq uint8) bool {
		c := MustNew(smallConfig())
		cores := int(coreReq)%8 + 1
		gpus := int(gpuReq) % 3
		before := c.Snapshot()
		if err := c.Allocate(1, job.Allocation{NodeIDs: []int{0}, CPUCores: cores, GPUs: gpus}); err != nil {
			return true
		}
		if err := c.Release(1); err != nil {
			return false
		}
		after := c.Snapshot()
		return before == after
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestNodeStateGatesPlacement: a node that is draining or down reports no
// free resources (so no placement path selects it), while its existing
// allocations stay releasable; coming back up restores placement.
func TestNodeStateGatesPlacement(t *testing.T) {
	c := MustNew(smallConfig())
	if err := c.Allocate(1, job.Allocation{NodeIDs: []int{0}, CPUCores: 2, GPUs: 1}); err != nil {
		t.Fatal(err)
	}

	if err := c.SetNodeState(0, NodeDraining); err != nil {
		t.Fatal(err)
	}
	n, _ := c.Node(0)
	if n.State() != NodeDraining {
		t.Fatalf("node state = %v, want draining", n.State())
	}
	if n.FreeCores() != 0 || n.FreeGPUs() != 0 {
		t.Errorf("draining node reports %d cores %d gpus free, want 0", n.FreeCores(), n.FreeGPUs())
	}
	if n.Fits(1, 0) {
		t.Error("draining node still fits new work")
	}
	if err := c.Allocate(2, job.Allocation{NodeIDs: []int{0}, CPUCores: 1}); err == nil {
		t.Error("Allocate succeeded on a draining node")
	}
	// Existing work drains normally.
	if err := c.CheckInvariants(); err != nil {
		t.Errorf("draining with resident job must be legal: %v", err)
	}
	if err := c.Release(1); err != nil {
		t.Fatalf("release on draining node: %v", err)
	}

	if err := c.SetNodeState(0, NodeDown); err != nil {
		t.Fatal(err)
	}
	for _, m := range c.Nodes() {
		if up := m.State() == NodeUp; up == (m.ID == 0) {
			t.Errorf("node %d is %v with only node 0 taken down", m.ID, m.State())
		}
	}
	if ids := firstFit(c, 4, 1, 0); ids != nil {
		t.Errorf("first-fit placed on a cluster with a down node: %v", ids)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Errorf("empty down node must be legal: %v", err)
	}

	if err := c.SetNodeState(0, NodeUp); err != nil {
		t.Fatal(err)
	}
	if err := c.Allocate(3, job.Allocation{NodeIDs: []int{0}, CPUCores: 2}); err != nil {
		t.Errorf("recovered node rejects work: %v", err)
	}
}

// TestDownNodeHostingJobsViolatesInvariants: the simulator must kill a
// crashed node's jobs before marking it down; the checker enforces it.
func TestDownNodeHostingJobsViolatesInvariants(t *testing.T) {
	c := MustNew(smallConfig())
	if err := c.Allocate(1, job.Allocation{NodeIDs: []int{1}, CPUCores: 2}); err != nil {
		t.Fatal(err)
	}
	if err := c.SetNodeState(1, NodeDown); err != nil {
		t.Fatal(err)
	}
	if err := c.CheckInvariants(); err == nil {
		t.Error("down node hosting a job passed invariants")
	}
}

func TestSetNodeStateErrors(t *testing.T) {
	c := MustNew(smallConfig())
	if err := c.SetNodeState(99, NodeDown); err == nil {
		t.Error("unknown node accepted")
	}
	if err := c.SetNodeState(0, NodeState(42)); err == nil {
		t.Error("unknown state accepted")
	}
	if NodeUp.String() == "" || NodeDraining.String() == "" || NodeDown.String() == "" || NodeState(9).String() == "" {
		t.Error("NodeState strings must be non-empty")
	}
}
