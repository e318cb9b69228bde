// Package cluster models the multi-tenant GPU cluster of the paper: a set
// of nodes with CPU cores, GPUs, memory-bandwidth capacity and PCIe
// capacity, plus pure accounting for allocating and releasing jobs. All
// placement *policy* lives in the scheduler packages; this package only
// answers "what is free where" and enforces capacity invariants.
package cluster

import (
	"errors"
	"fmt"
	"sort"

	"github.com/coda-repro/coda/internal/job"
)

// Paper cluster constants (§III-A): ~80 PCIe multi-GPU servers, two-socket
// Intel Xeon Gold 6132 (2x14 cores), GTX 1080Ti GPUs, 400 GPUs total.
const (
	// DefaultNodes is the node count of the paper's cluster.
	DefaultNodes = 80
	// DefaultCoresPerNode is two 14-core Xeon Gold 6132 sockets.
	DefaultCoresPerNode = 28
	// DefaultGPUsPerNode keeps the paper's 400 GPUs / 80 nodes ratio.
	DefaultGPUsPerNode = 5
	// DefaultBandwidthGBs approximates the two-socket DRAM bandwidth of a
	// Xeon Gold 6132 server (6 DDR4-2666 channels per socket).
	DefaultBandwidthGBs = 120.0
	// DefaultPCIeGBs is the PCIe 3.0 x16 bandwidth the paper cites (§IV-C3).
	DefaultPCIeGBs = 16.0
)

// Errors returned by allocation and release.
var (
	// ErrInsufficient means a node lacks the requested free resources.
	ErrInsufficient = errors.New("cluster: insufficient free resources")
	// ErrUnknownNode means a node ID is out of range.
	ErrUnknownNode = errors.New("cluster: unknown node")
	// ErrUnknownJob means the job has no allocation to release.
	ErrUnknownJob = errors.New("cluster: unknown job")
	// ErrDuplicateJob means the job already holds an allocation.
	ErrDuplicateJob = errors.New("cluster: job already allocated")
)

// Config describes the cluster to build.
type Config struct {
	// Nodes is the GPU node count.
	Nodes int
	// CoresPerNode is the CPU core count of each node.
	CoresPerNode int
	// GPUsPerNode is the GPU count of each GPU node.
	GPUsPerNode int
	// BandwidthGBs is each node's memory-bandwidth capacity in GB/s.
	BandwidthGBs float64
	// PCIeGBs is each node's PCIe bandwidth capacity in GB/s.
	PCIeGBs float64
	// CPUOnlyNodes adds nodes with the same core count but no GPUs,
	// modeling the larger heterogeneous private clusters of §VI-G ("Some
	// larger private clusters maybe composed of both GPU nodes and CPU
	// nodes"). They receive IDs after the GPU nodes.
	CPUOnlyNodes int
}

// TotalNodes returns the GPU-node plus CPU-only-node count.
func (c Config) TotalNodes() int { return c.Nodes + c.CPUOnlyNodes }

// DefaultConfig returns the paper's 80-node cluster configuration.
func DefaultConfig() Config {
	return Config{
		Nodes:        DefaultNodes,
		CoresPerNode: DefaultCoresPerNode,
		GPUsPerNode:  DefaultGPUsPerNode,
		BandwidthGBs: DefaultBandwidthGBs,
		PCIeGBs:      DefaultPCIeGBs,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Nodes <= 0 {
		return fmt.Errorf("cluster config: nodes must be positive, got %d", c.Nodes)
	}
	if c.CoresPerNode <= 0 {
		return fmt.Errorf("cluster config: cores per node must be positive, got %d", c.CoresPerNode)
	}
	if c.GPUsPerNode < 0 {
		return fmt.Errorf("cluster config: gpus per node must be non-negative, got %d", c.GPUsPerNode)
	}
	if c.BandwidthGBs <= 0 {
		return fmt.Errorf("cluster config: bandwidth must be positive, got %g", c.BandwidthGBs)
	}
	if c.PCIeGBs <= 0 {
		return fmt.Errorf("cluster config: pcie bandwidth must be positive, got %g", c.PCIeGBs)
	}
	if c.CPUOnlyNodes < 0 {
		return fmt.Errorf("cluster config: cpu-only nodes must be non-negative, got %d", c.CPUOnlyNodes)
	}
	return nil
}

// NodeState is a node's availability for placement.
type NodeState int

const (
	// NodeUp accepts placements; the zero value, so existing construction
	// paths start every node in service.
	NodeUp NodeState = iota
	// NodeDraining keeps its current jobs but accepts no new placements
	// (planned maintenance: let work finish, place nothing new).
	NodeDraining
	// NodeDown hosts nothing: the fault injector kills its jobs on crash
	// and the node accepts no placements until it recovers.
	NodeDown
)

// String implements fmt.Stringer.
func (s NodeState) String() string {
	switch s {
	case NodeUp:
		return "up"
	case NodeDraining:
		return "draining"
	case NodeDown:
		return "down"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// nodeShare is the per-node slice of one job's allocation.
type nodeShare struct {
	cores int
	gpus  int
}

// Node is one server of the cluster.
type Node struct {
	// ID is the node's index in the cluster.
	ID int
	// Cores is the total CPU core count.
	Cores int
	// GPUs is the total GPU count.
	GPUs int
	// BandwidthGBs is the memory-bandwidth capacity in GB/s.
	BandwidthGBs float64
	// PCIeGBs is the PCIe capacity in GB/s.
	PCIeGBs float64

	usedCores int
	usedGPUs  int
	state     NodeState
	jobs      map[job.ID]nodeShare
}

// State returns the node's availability state.
func (n *Node) State() NodeState { return n.state }

// Up reports whether the node accepts new placements.
func (n *Node) Up() bool { return n.state == NodeUp }

// FreeCores returns the unallocated core count. A node that is not up
// reports zero free cores, so every placement path — Fits, ScanPlaceable
// and the schedulers' own scans — excludes it without knowing about states.
func (n *Node) FreeCores() int {
	if n.state != NodeUp {
		return 0
	}
	return n.Cores - n.usedCores
}

// FreeGPUs returns the unallocated GPU count (zero while the node is
// draining or down, mirroring FreeCores).
func (n *Node) FreeGPUs() int {
	if n.state != NodeUp {
		return 0
	}
	return n.GPUs - n.usedGPUs
}

// UsedCores returns the allocated core count.
func (n *Node) UsedCores() int { return n.usedCores }

// UsedGPUs returns the allocated GPU count.
func (n *Node) UsedGPUs() int { return n.usedGPUs }

// JobCount returns the number of jobs with a share on this node.
func (n *Node) JobCount() int { return len(n.jobs) }

// AppendJobs appends the IDs of jobs holding resources on this node to
// buf, unsorted, and returns the extended slice. The allocation-free
// sibling of Jobs for callers that reuse a scratch buffer and sort (or
// don't care about order) themselves.
func (n *Node) AppendJobs(buf []job.ID) []job.ID {
	//coda:ordered-ok callers sort the collected IDs or are order-independent
	for id := range n.jobs {
		buf = append(buf, id)
	}
	return buf
}

// Jobs returns the IDs of jobs holding resources on this node, sorted.
func (n *Node) Jobs() []job.ID {
	ids := make([]job.ID, 0, len(n.jobs))
	//coda:ordered-ok collected IDs are fully ordered by the sort below
	for id := range n.jobs {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// JobShare returns the cores and GPUs job id holds on this node.
func (n *Node) JobShare(id job.ID) (cores, gpus int, ok bool) {
	s, ok := n.jobs[id]
	return s.cores, s.gpus, ok
}

// Fits reports whether the node can host cores and gpus more.
func (n *Node) Fits(cores, gpus int) bool {
	return cores <= n.FreeCores() && gpus <= n.FreeGPUs()
}

// Cluster is the full set of nodes plus the job→nodes index.
type Cluster struct {
	nodes []*Node
	// placements maps a job to the node IDs hosting it.
	placements map[job.ID][]int
	// placementQueries counts the schedulers' placement scans; the
	// benchmark harness reads it to report placement-queries/sec.
	placementQueries int64
	// index buckets nodes by free capacity; kept in sync by every mutator
	// so placement queries never scan or sort.
	index *capacityIndex
	// touched journals the node IDs every mutator changed since the last
	// ResetTouched — the delta invariant checker audits exactly these.
	touched []int
	// usedCores, usedGPUs and activeNodes (nodes hosting a job) are kept by
	// Allocate, Release and Resize, and totalCores and totalGPUs are fixed
	// at construction, so Snapshot is O(1); CheckInvariants compares them
	// with a node sum.
	usedCores, usedGPUs   int
	totalCores, totalGPUs int
	activeNodes           int
}

// TouchedNodes returns the IDs of nodes mutated since the last
// ResetTouched, in mutation order, possibly with duplicates. Callers must
// not retain the slice across a ResetTouched.
func (c *Cluster) TouchedNodes() []int { return c.touched }

// ResetTouched clears the touched-node journal, keeping its capacity.
func (c *Cluster) ResetTouched() { c.touched = c.touched[:0] }

// Touch journals node id for a change no Cluster mutator made, such as to
// the node's bandwidth meter or its jobs' speeds, so the delta invariant
// checker audits it too.
func (c *Cluster) Touch(id int) { c.touched = append(c.touched, id) }

// NotePlacementQuery counts one placement scan. The scheduler-side query
// helpers call it so benchmarks can report placement-queries/sec.
func (c *Cluster) NotePlacementQuery() { c.placementQueries++ }

// PlacementQueries returns the number of placement scans answered.
func (c *Cluster) PlacementQueries() int64 { return c.placementQueries }

// New builds a cluster from cfg.
func New(cfg Config) (*Cluster, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	c := &Cluster{
		nodes:      make([]*Node, cfg.TotalNodes()),
		placements: make(map[job.ID][]int),
	}
	for i := range c.nodes {
		gpus := cfg.GPUsPerNode
		if i >= cfg.Nodes {
			gpus = 0 // CPU-only node
		}
		c.nodes[i] = &Node{
			ID:           i,
			Cores:        cfg.CoresPerNode,
			GPUs:         gpus,
			BandwidthGBs: cfg.BandwidthGBs,
			PCIeGBs:      cfg.PCIeGBs,
			jobs:         make(map[job.ID]nodeShare),
		}
		c.totalCores += cfg.CoresPerNode
		c.totalGPUs += gpus
	}
	c.index = newCapacityIndex(c.nodes)
	return c, nil
}

// MustNew builds a cluster and panics on config errors. For tests and
// examples with known-good configs.
func MustNew(cfg Config) *Cluster {
	c, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// Size returns the node count.
func (c *Cluster) Size() int { return len(c.nodes) }

// Node returns node id, or an error if out of range.
func (c *Cluster) Node(id int) (*Node, error) {
	if id < 0 || id >= len(c.nodes) {
		return nil, fmt.Errorf("%w: %d", ErrUnknownNode, id)
	}
	return c.nodes[id], nil
}

// Nodes returns all nodes in ID order. The slice is a copy; the node
// pointers are shared (mutate only through Cluster methods).
func (c *Cluster) Nodes() []*Node {
	out := make([]*Node, len(c.nodes))
	copy(out, c.nodes)
	return out
}

// TotalCores returns the cluster-wide core count.
func (c *Cluster) TotalCores() int { return c.totalCores }

// TotalGPUs returns the cluster-wide GPU count.
func (c *Cluster) TotalGPUs() int { return c.totalGPUs }

// UsedCores returns the cluster-wide allocated core count.
func (c *Cluster) UsedCores() int { return c.usedCores }

// UsedGPUs returns the cluster-wide allocated GPU count.
func (c *Cluster) UsedGPUs() int { return c.usedGPUs }

// Allocate grants alloc to job id. Every node in alloc.NodeIDs receives
// alloc.CPUCores cores and alloc.GPUs GPUs. The call is atomic: on any
// failure nothing is allocated.
func (c *Cluster) Allocate(id job.ID, alloc job.Allocation) error {
	if _, ok := c.placements[id]; ok {
		return fmt.Errorf("%w: %d", ErrDuplicateJob, id)
	}
	if len(alloc.NodeIDs) == 0 {
		return errors.New("cluster: allocation names no nodes")
	}
	if alloc.CPUCores <= 0 || alloc.GPUs < 0 {
		return fmt.Errorf("cluster: invalid allocation %d cores %d gpus", alloc.CPUCores, alloc.GPUs)
	}
	seen := make(map[int]bool, len(alloc.NodeIDs))
	for _, nid := range alloc.NodeIDs {
		if nid < 0 || nid >= len(c.nodes) {
			return fmt.Errorf("%w: %d", ErrUnknownNode, nid)
		}
		if seen[nid] {
			return fmt.Errorf("cluster: node %d listed twice for job %d", nid, id)
		}
		seen[nid] = true
		if !c.nodes[nid].Fits(alloc.CPUCores, alloc.GPUs) {
			return fmt.Errorf("%w: node %d for job %d (%d cores, %d gpus free; need %d, %d)",
				ErrInsufficient, nid, id,
				c.nodes[nid].FreeCores(), c.nodes[nid].FreeGPUs(),
				alloc.CPUCores, alloc.GPUs)
		}
	}
	for _, nid := range alloc.NodeIDs {
		n := c.nodes[nid]
		oldGPUs, oldCores := n.FreeGPUs(), n.FreeCores()
		if len(n.jobs) == 0 {
			c.activeNodes++
		}
		n.usedCores += alloc.CPUCores
		n.usedGPUs += alloc.GPUs
		n.jobs[id] = nodeShare{cores: alloc.CPUCores, gpus: alloc.GPUs}
		c.usedCores += alloc.CPUCores
		c.usedGPUs += alloc.GPUs
		c.reindexFrom(n, oldGPUs, oldCores)
		c.touched = append(c.touched, nid)
	}
	c.placements[id] = append([]int(nil), alloc.NodeIDs...)
	return nil
}

// Release frees everything job id holds.
func (c *Cluster) Release(id job.ID) error {
	nodeIDs, ok := c.placements[id]
	if !ok {
		return fmt.Errorf("%w: %d", ErrUnknownJob, id)
	}
	for _, nid := range nodeIDs {
		n := c.nodes[nid]
		share := n.jobs[id]
		oldGPUs, oldCores := n.FreeGPUs(), n.FreeCores()
		n.usedCores -= share.cores
		n.usedGPUs -= share.gpus
		delete(n.jobs, id)
		c.usedCores -= share.cores
		c.usedGPUs -= share.gpus
		if len(n.jobs) == 0 {
			c.activeNodes--
		}
		c.reindexFrom(n, oldGPUs, oldCores)
		c.touched = append(c.touched, nid)
	}
	delete(c.placements, id)
	return nil
}

// Resize changes the per-node core count held by job id to newCores on
// every node it spans (the adaptive allocator grows/shrinks allocations,
// and the eliminator halves CPU-job cores on nodes without MBA).
func (c *Cluster) Resize(id job.ID, newCores int) error {
	nodeIDs, ok := c.placements[id]
	if !ok {
		return fmt.Errorf("%w: %d", ErrUnknownJob, id)
	}
	if newCores <= 0 {
		return fmt.Errorf("cluster: resize to %d cores for job %d", newCores, id)
	}
	// Validate first: growth must fit on every node.
	for _, nid := range nodeIDs {
		n := c.nodes[nid]
		share := n.jobs[id]
		if delta := newCores - share.cores; delta > n.FreeCores() {
			return fmt.Errorf("%w: node %d cannot grow job %d by %d cores",
				ErrInsufficient, nid, id, delta)
		}
	}
	for _, nid := range nodeIDs {
		n := c.nodes[nid]
		share := n.jobs[id]
		oldGPUs, oldCores := n.FreeGPUs(), n.FreeCores()
		n.usedCores += newCores - share.cores
		c.usedCores += newCores - share.cores
		share.cores = newCores
		n.jobs[id] = share
		c.reindexFrom(n, oldGPUs, oldCores)
		c.touched = append(c.touched, nid)
	}
	return nil
}

// SetNodeState transitions node id to st. The cluster only does the
// accounting: it does not kill or migrate jobs. The fault injector in
// internal/sim kills the jobs of a crashed node before marking it down;
// draining keeps jobs in place. Allocations held on a non-up node remain
// valid and releasable so completions and kills always settle cleanly.
func (c *Cluster) SetNodeState(id int, st NodeState) error {
	n, err := c.Node(id)
	if err != nil {
		return err
	}
	switch st {
	case NodeUp, NodeDraining, NodeDown:
		oldGPUs, oldCores := n.FreeGPUs(), n.FreeCores()
		n.state = st
		c.reindexFrom(n, oldGPUs, oldCores)
		c.touched = append(c.touched, id)
		return nil
	default:
		return fmt.Errorf("cluster: unknown node state %v", st)
	}
}

// UnavailableNodes returns the IDs of nodes not currently up, sorted.
func (c *Cluster) UnavailableNodes() []int {
	var out []int
	for _, n := range c.nodes {
		if n.state != NodeUp {
			out = append(out, n.ID)
		}
	}
	return out
}

// Placement returns the node IDs hosting job id.
func (c *Cluster) Placement(id job.ID) ([]int, bool) {
	nodeIDs, ok := c.placements[id]
	if !ok {
		return nil, false
	}
	return append([]int(nil), nodeIDs...), true
}

// PlacementSize returns how many nodes host job id without copying the
// placement (the allocation-free sibling of Placement for consistency
// checks).
func (c *Cluster) PlacementSize(id job.ID) (int, bool) {
	nodeIDs, ok := c.placements[id]
	return len(nodeIDs), ok
}

// JobCores returns the per-node core count job id holds (0 if not placed).
func (c *Cluster) JobCores(id job.ID) int {
	nodeIDs, ok := c.placements[id]
	if !ok || len(nodeIDs) == 0 {
		return 0
	}
	share := c.nodes[nodeIDs[0]].jobs[id]
	return share.cores
}

// Snapshot summarizes cluster occupancy.
type Snapshot struct {
	// UsedCores / TotalCores and UsedGPUs / TotalGPUs are occupancy counts.
	UsedCores, TotalCores int
	UsedGPUs, TotalGPUs   int
	// ActiveNodes counts nodes hosting at least one job.
	ActiveNodes int
}

// Snapshot returns current occupancy.
func (c *Cluster) Snapshot() Snapshot {
	return Snapshot{
		UsedCores: c.usedCores, TotalCores: c.totalCores,
		UsedGPUs: c.usedGPUs, TotalGPUs: c.totalGPUs,
		ActiveNodes: c.activeNodes,
	}
}

// CheckNodeInvariants verifies one node's accounting consistency and its
// capacity-index position — the O(1)-per-node audit the simulator's delta
// invariant checker runs on nodes an event touched.
func (c *Cluster) CheckNodeInvariants(nid int) error {
	n, err := c.Node(nid)
	if err != nil {
		return err
	}
	cores, gpus := 0, 0
	for _, s := range n.jobs {
		cores += s.cores
		gpus += s.gpus
	}
	if cores != n.usedCores {
		return fmt.Errorf("node %d: job shares sum to %d cores, counter says %d", n.ID, cores, n.usedCores)
	}
	if gpus != n.usedGPUs {
		return fmt.Errorf("node %d: job shares sum to %d gpus, counter says %d", n.ID, gpus, n.usedGPUs)
	}
	if n.usedCores < 0 || n.usedCores > n.Cores {
		return fmt.Errorf("node %d: used cores %d out of [0,%d]", n.ID, n.usedCores, n.Cores)
	}
	if n.usedGPUs < 0 || n.usedGPUs > n.GPUs {
		return fmt.Errorf("node %d: used gpus %d out of [0,%d]", n.ID, n.usedGPUs, n.GPUs)
	}
	if n.state == NodeDown && len(n.jobs) > 0 {
		return fmt.Errorf("node %d: down but still hosts %d job(s)", n.ID, len(n.jobs))
	}
	if !c.index.contains(n.FreeGPUs(), n.FreeCores(), n.ID) {
		return fmt.Errorf("node %d: missing from capacity-index cell (%d free gpus, %d free cores)",
			n.ID, n.FreeGPUs(), n.FreeCores())
	}
	return c.index.auditNode(n.FreeGPUs(), n.FreeCores(), n.ID)
}

// CheckInvariants verifies internal accounting consistency; it returns an
// error describing the first violation found. Used by tests and the
// simulator's self-checks.
func (c *Cluster) CheckInvariants() error {
	var sum Snapshot
	for _, n := range c.nodes {
		if err := c.CheckNodeInvariants(n.ID); err != nil {
			return err
		}
		sum.UsedCores += n.usedCores
		sum.UsedGPUs += n.usedGPUs
		sum.TotalCores += n.Cores
		sum.TotalGPUs += n.GPUs
		if len(n.jobs) > 0 {
			sum.ActiveNodes++
		}
	}
	if got := c.Snapshot(); got != sum {
		return fmt.Errorf("cluster counters %+v disagree with the node sum %+v", got, sum)
	}
	// Per-node checks prove every node appears in its correct index cell;
	// a matching total rules out stale leftover entries anywhere else.
	if got := c.index.size(); got != len(c.nodes) {
		return fmt.Errorf("capacity index holds %d entries for %d nodes", got, len(c.nodes))
	}
	// Structural audit of the hierarchical layers: Fenwick counts and
	// occupancy bits against the cells, segment trees internally (leaf
	// values were just proven per node above).
	if err := c.index.audit(); err != nil {
		return err
	}
	//coda:ordered-ok error reporting on already-broken invariants; any witness will do
	for id, nodeIDs := range c.placements {
		for _, nid := range nodeIDs {
			if _, ok := c.nodes[nid].jobs[id]; !ok {
				return fmt.Errorf("job %d placed on node %d but node has no share", id, nid)
			}
		}
	}
	return nil
}
