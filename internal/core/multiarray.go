package core

import (
	"errors"
	"fmt"

	"github.com/coda-repro/coda/internal/cluster"
	"github.com/coda-repro/coda/internal/fair"
	"github.com/coda-repro/coda/internal/history"
	"github.com/coda-repro/coda/internal/job"
	"github.com/coda-repro/coda/internal/sched"
)

// ArrayConfig sizes the multi-array resource split (§V-C).
type ArrayConfig struct {
	// ReserveCores is the per-node core count reserved for the GPU resource
	// array ("The GPU resource array reserves some CPU resources for GPU
	// jobs in this array").
	ReserveCores int
	// FourGNodeFraction is the fraction of nodes assigned to the 4-GPU
	// sub-array.
	FourGNodeFraction float64
}

// DefaultArrayConfig returns the initial split used before historical
// statistics accumulate.
func DefaultArrayConfig() ArrayConfig {
	return ArrayConfig{ReserveCores: 14, FourGNodeFraction: 0.3}
}

// Validate checks the configuration against a node shape.
func (c ArrayConfig) Validate(coresPerNode int) error {
	if c.ReserveCores < 0 || c.ReserveCores > coresPerNode {
		return fmt.Errorf("core: reserve %d out of [0,%d]", c.ReserveCores, coresPerNode)
	}
	if c.FourGNodeFraction < 0 || c.FourGNodeFraction > 1 {
		return fmt.Errorf("core: 4-GPU node fraction %g out of [0,1]", c.FourGNodeFraction)
	}
	return nil
}

// LargeJobGPUs mirrors history.LargeJobGPUs: jobs requesting this many
// GPUs or more belong to the 4-GPU sub-array.
const LargeJobGPUs = history.LargeJobGPUs

// runInfo tracks a job the multi-array scheduler started.
type runInfo struct {
	j     *job.Job
	alloc job.Allocation
}

// MultiArray is the paper's multi-array job scheduler: a CPU resource
// array and a GPU resource array (split into 1-GPU and 4-GPU sub-arrays),
// each running DRF internally, with cross-array borrowing and preemption.
type MultiArray struct {
	env     sched.Env
	cfg     ArrayConfig
	budgets []*nodeBudget
	// gpuNodes is the count of GPU nodes: budgets[0:gpuNodes] have GPUs,
	// the rest are CPU-only nodes (§VI-G heterogeneous clusters).
	gpuNodes int
	// fourG and oneG are the node IDs of the 4-GPU and 1-GPU sub-arrays,
	// always the ID ranges [0, len(fourG)) and [len(fourG), gpuNodes):
	// pickNodes tells a node's sub-array by its ID alone.
	fourG     []int
	oneG      []int
	cpuAcc    *fair.Accountant
	gpuAcc    *fair.Accountant
	cpuQueues sched.TenantQueues
	gpuQueues sched.TenantQueues
	// desired is the allocator-chosen core count for pending GPU jobs.
	desired map[job.ID]int
	running map[job.ID]*runInfo
	// DisablePreemption stops reserve reclaims (ablation knob).
	DisablePreemption bool
	// preemptions counts cross-array reclaims (for reports).
	preemptions int
	// startLog lists, in start order, the jobs the last Drain started:
	// startGPUAt and startCPU append on the line that writes running, the
	// only inserts into running besides restore.
	startLog []job.ID

	// cands is pickNodes' scratch, reused across drains (a scheduler is
	// single-threaded).
	cands []gpuCandidate
	// pickVisits counts the nodes pickNodes' walks have visited, a
	// deterministic work counter.
	pickVisits int64
}

// gpuCandidate is a feasible node for a GPU placement pass; own marks a
// node of the job's own sub-array.
type gpuCandidate struct {
	nid, freeGPUs int
	own           bool
}

// NewMultiArray builds the scheduler for a cluster of nodes × coresPerNode
// × gpusPerNode.
func NewMultiArray(cfg ArrayConfig, nodes, coresPerNode, gpusPerNode int) (*MultiArray, error) {
	return NewMultiArrayForCluster(cfg, cluster.Config{
		Nodes:        nodes,
		CoresPerNode: coresPerNode,
		GPUsPerNode:  gpusPerNode,
	})
}

// NewMultiArrayForCluster builds the scheduler for a possibly
// heterogeneous cluster (§VI-G: "Some larger private clusters maybe
// composed of both GPU nodes and CPU nodes"). CPU-only nodes carry no
// reserve — their cores all belong to the CPU array — and stay out of the
// GPU sub-arrays.
func NewMultiArrayForCluster(cfg ArrayConfig, cc cluster.Config) (*MultiArray, error) {
	if cc.Nodes <= 0 || cc.CoresPerNode <= 0 || cc.GPUsPerNode < 0 || cc.CPUOnlyNodes < 0 {
		return nil, fmt.Errorf("core: bad cluster shape %d+%d nodes, %d cores, %d gpus",
			cc.Nodes, cc.CPUOnlyNodes, cc.CoresPerNode, cc.GPUsPerNode)
	}
	if err := cfg.Validate(cc.CoresPerNode); err != nil {
		return nil, err
	}
	total := cc.TotalNodes()
	m := &MultiArray{
		cfg:      cfg,
		budgets:  make([]*nodeBudget, total),
		gpuNodes: cc.Nodes,
		desired:  make(map[job.ID]int),
		running:  make(map[job.ID]*runInfo),
	}
	for i := range m.budgets {
		reserve := cfg.ReserveCores
		if i >= cc.Nodes {
			reserve = 0 // CPU-only node: the whole node is CPU-array budget
		}
		b, err := newNodeBudget(cc.CoresPerNode, reserve)
		if err != nil {
			return nil, err
		}
		m.budgets[i] = b
	}
	fourGCount := int(float64(cc.Nodes)*cfg.FourGNodeFraction + 0.5)
	if cc.GPUsPerNode < LargeJobGPUs {
		fourGCount = 0 // nodes cannot host 4-GPU-per-node jobs anyway
	}
	for i := 0; i < cc.Nodes; i++ {
		if i < fourGCount {
			m.fourG = append(m.fourG, i)
		} else {
			m.oneG = append(m.oneG, i)
		}
	}
	sharedTotal := float64(cc.Nodes*(cc.CoresPerNode-cfg.ReserveCores) + cc.CPUOnlyNodes*cc.CoresPerNode)
	if sharedTotal <= 0 {
		sharedTotal = float64(total) // degenerate all-reserved split
	}
	var err error
	m.cpuAcc, err = fair.NewAccountant(fair.Resources{CPU: sharedTotal, GPU: 0}, fair.DominantCPU)
	if err != nil {
		return nil, err
	}
	gpuTotal := float64(cc.Nodes * cc.GPUsPerNode)
	if cc.Nodes*cc.GPUsPerNode == 0 {
		gpuTotal = 1
	}
	m.gpuAcc, err = fair.NewAccountant(
		fair.Resources{CPU: float64(total * cc.CoresPerNode), GPU: gpuTotal},
		fair.DominantGPU,
	)
	if err != nil {
		return nil, err
	}
	return m, nil
}

// Bind attaches the environment.
func (m *MultiArray) Bind(env sched.Env) { m.env = env }

// Preemptions returns the cross-array reclaim count.
func (m *MultiArray) Preemptions() int { return m.preemptions }

// EnqueueGPU adds a training job with the allocator's chosen core count.
func (m *MultiArray) EnqueueGPU(j *job.Job, desiredCores int) {
	if desiredCores < 1 {
		desiredCores = 1
	}
	m.desired[j.ID] = desiredCores
	m.gpuQueues.PushBack(j)
}

// EnqueueCPU adds a CPU job to the CPU array.
func (m *MultiArray) EnqueueCPU(j *job.Job) { m.cpuQueues.PushBack(j) }

// RequeueCPUFront puts a preempted CPU job back at its array head (§V-C).
func (m *MultiArray) RequeueCPUFront(j *job.Job) { m.cpuQueues.PushFront(j) }

// RequeueGPUFront puts a fault-killed training job back at its array head
// with the given desired core count: a job that already waited once does
// not queue behind later arrivals after a crash that was not its fault.
func (m *MultiArray) RequeueGPUFront(j *job.Job, desiredCores int) {
	if desiredCores < 1 {
		desiredCores = 1
	}
	m.desired[j.ID] = desiredCores
	m.gpuQueues.PushFront(j)
}

// OnKilled releases a fault-killed job's bookkeeping. The cleanup is the
// completion cleanup: budgets, run info, desired cores and fair-share
// charges all go; the caller decides whether a retry clone is requeued.
func (m *MultiArray) OnKilled(j *job.Job) { m.OnCompleted(j) }

// RemoveQueued removes a still-queued job from its array, reporting whether
// it was found. Queued jobs hold no budgets or fair-share charges yet, so
// only the queue entry and the desired-core seed go. Running jobs are not
// touched — cancel those through the OnKilled path.
func (m *MultiArray) RemoveQueued(j *job.Job) bool {
	queues := &m.cpuQueues
	if j.IsGPU() {
		queues = &m.gpuQueues
	}
	if !queues.Remove(j) {
		return false
	}
	delete(m.desired, j.ID)
	return true
}

// OnCompleted releases a finished job's bookkeeping.
func (m *MultiArray) OnCompleted(j *job.Job) {
	info, ok := m.running[j.ID]
	if !ok {
		return
	}
	for _, nid := range info.alloc.NodeIDs {
		m.budgets[nid].release(j.ID)
	}
	delete(m.running, j.ID)
	delete(m.desired, j.ID)
	if j.IsGPU() {
		_ = m.gpuAcc.Refund(j.ID)
	} else {
		_ = m.cpuAcc.Refund(j.ID)
	}
}

// RunningAlloc reports a running job's allocation.
func (m *MultiArray) RunningAlloc(id job.ID) (job.Allocation, bool) {
	info, ok := m.running[id]
	if !ok {
		return job.Allocation{}, false
	}
	return info.alloc.Clone(), true
}

// errPoolsFull refuses a resize some node's pools cannot fund. The
// allocator's probes hit it routinely, so it is one preformatted value.
var errPoolsFull = errors.New("core: node pools cannot host the resized job")

// ResizeRunning changes a running job's per-node cores, keeping pool
// bookkeeping, cluster state and fair-share accounting consistent. A
// refusal allocates nothing.
func (m *MultiArray) ResizeRunning(id job.ID, newCores int) error {
	info, ok := m.running[id]
	if !ok {
		return fmt.Errorf("core: job %d is not running", id)
	}
	old := info.alloc.CPUCores
	if newCores == old {
		return nil
	}
	// Book pools first (pool headroom implies cluster headroom); on a
	// refusal, roll back the nodes already booked.
	nodes := info.alloc.NodeIDs
	for i, nid := range nodes {
		if !m.budgets[nid].resize(id, newCores) {
			m.resizeBudgets(id, nodes[:i], old)
			return errPoolsFull
		}
	}
	if err := m.env.ResizeJob(id, newCores); err != nil {
		m.resizeBudgets(id, nodes, old)
		return err
	}
	info.alloc.CPUCores = newCores
	acc := m.cpuAcc
	if info.j.IsGPU() {
		acc = m.gpuAcc
	}
	_ = acc.Adjust(id, fair.Resources{
		CPU: float64(info.alloc.TotalCPUCores()),
		GPU: float64(info.alloc.TotalGPUs()),
	})
	return nil
}

// resizeBudgets books cores for job id on each of nodes' budgets.
func (m *MultiArray) resizeBudgets(id job.ID, nodes []int, cores int) {
	for _, nid := range nodes {
		m.budgets[nid].resize(id, cores)
	}
}

// GPUJobsPending reports whether any training job waits.
func (m *MultiArray) GPUJobsPending() bool { return m.gpuQueues.Len() > 0 }

// Drain runs both arrays' scheduling passes: GPU jobs first (they hold the
// scarce resource and may preempt borrowed cores), then CPU jobs. Each
// array fills its tenants in DRF order, and a tenant tries its queue's
// head only. CPU jobs may always borrow idle reserve cores; arriving GPU
// jobs reclaim them by preemption ("If CPU jobs burst and the GPU resource
// array is relatively idle, the multi-array scheduler allows CPU jobs to
// preempt the reserved cores... When a GPU job arrives and needs the
// preempted CPU cores, CODA aborts the running CPU job", §V-C). The jobs
// it starts are in m.startLog until the next Drain.
func (m *MultiArray) Drain() {
	m.startLog = m.startLog[:0]
	m.gpuQueues.Fill(m.gpuAcc, m.tryGPUHead)
	m.cpuQueues.Fill(m.cpuAcc, m.tryCPUHead)
}

// tryGPUHead starts the training job at q's head, reporting whether it
// did. A start may requeue preempted CPU jobs into the CPU array.
func (m *MultiArray) tryGPUHead(q *sched.JobQueue) bool {
	if !m.startGPU(q.At(0)) {
		return false
	}
	q.Remove(0)
	return true
}

// tryCPUHead starts the CPU job at q's head, reporting whether it did.
func (m *MultiArray) tryCPUHead(q *sched.JobQueue) bool {
	if !m.startCPU(q.At(0), true) {
		return false
	}
	q.Remove(0)
	return true
}

// startGPU attempts to place and start a training job with its
// allocator-chosen core count, preempting borrowed reserve cores if that
// is what stands in the way. When even preemption cannot fund the desired
// cores, the job starts slimmer — an idle GPU contributes zero utilization
// while a core-starved training job still makes progress, and the adaptive
// allocator grows the job back once cores free up (§V-B2).
func (m *MultiArray) startGPU(j *job.Job) bool {
	desired := m.desired[j.ID]
	if desired < 1 {
		desired = j.Request.CPUCores
	}
	for cores := desired; cores >= 1; cores = nextSlimmer(cores) {
		if m.startGPUAt(j, cores) {
			return true
		}
	}
	return false
}

// nextSlimmer steps the fallback core ladder: halve, then floor at 1.
func nextSlimmer(cores int) int {
	if cores <= 1 {
		return 0
	}
	next := cores / 2
	if next < 1 {
		next = 1
	}
	return next
}

// startGPUAt tries one specific core count.
func (m *MultiArray) startGPUAt(j *job.Job, cores int) bool {
	gpus := j.Request.GPUsPerNode()
	large := j.Request.GPUs >= LargeJobGPUs

	nodes := m.pickNodes(large, j.Request.Nodes, gpus, cores, false)
	if nodes == nil {
		if m.DisablePreemption {
			return false
		}
		nodes = m.pickNodes(large, j.Request.Nodes, gpus, cores, true)
		if nodes == nil {
			return false
		}
		// Reclaim borrowed cores: "When a GPU job arrives and needs the
		// preempted CPU cores, CODA aborts the running CPU job" (§V-C).
		for _, nid := range nodes {
			if !m.reclaimNode(nid, cores) {
				return false
			}
		}
	}

	alloc := job.Allocation{NodeIDs: nodes, CPUCores: cores, GPUs: gpus}
	for _, nid := range nodes {
		if !m.budgets[nid].chargeGPU(j.ID, cores) {
			for _, done := range nodes {
				m.budgets[done].release(j.ID)
			}
			return false
		}
	}
	if err := m.env.StartJob(j.ID, alloc); err != nil {
		for _, nid := range nodes {
			m.budgets[nid].release(j.ID)
		}
		return false
	}
	m.running[j.ID] = &runInfo{j: j, alloc: alloc}
	m.startLog = append(m.startLog, j.ID)
	_ = m.gpuAcc.Charge(j.ID, j.Tenant, fair.Resources{
		CPU: float64(alloc.TotalCPUCores()),
		GPU: float64(alloc.TotalGPUs()),
	})
	return true
}

// pickNodes selects the k nodes a GPU job of gpus GPUs and cores cores per
// node would start on, preferring its own sub-array (the 4-GPU one when
// large, §V-C), and counts one placement query. withPreempt counts
// borrowed reserve cores as headroom. It returns nil when fewer than k
// nodes are feasible.
//
// Feasible nodes are packed best-fit (fewest free GPUs first) so large GPU
// holes survive for 4-GPU jobs — the multi-array design's
// anti-fragmentation goal. The cluster's first-fit index yields only the
// nodes with at least gpus free GPUs, in ID order, so GPU-full and down
// nodes cost nothing. Only the first k in compareGPUCandidates order are
// kept, in a k-slot insertion buffer; that order is total, and for k = 1
// the buffer is a min-scan. The walk stops once the buffer is full and
// its worst entry is unbeatable: later nodes have higher IDs and at least
// gpus free GPUs, so none of them can rank before it.
func (m *MultiArray) pickNodes(large bool, k, gpus, cores int, withPreempt bool) []int {
	c := m.env.Cluster()
	c.NotePlacementQuery()
	best := m.cands[:0]
	feasible := 0
	fourGLen := len(m.fourG)
	c.ScanPlaceable(0, gpus, func(n *cluster.Node) bool {
		nid := n.ID
		if nid >= m.gpuNodes {
			return false // CPU-only nodes follow the GPU nodes
		}
		m.pickVisits++
		b := m.budgets[nid]
		headroom := b.reserveFree() + b.sharedFree()
		if withPreempt {
			headroom += b.borrowedCores()
		}
		if headroom < cores {
			return true
		}
		feasible++
		cand := gpuCandidate{nid: nid, freeGPUs: n.FreeGPUs(), own: (nid < fourGLen) == large}
		if len(best) == k {
			if k == 0 || compareGPUCandidates(cand, best[k-1], gpus) >= 0 {
				return true
			}
			best = best[:k-1]
		}
		i := len(best)
		best = append(best, cand)
		for ; i > 0 && compareGPUCandidates(cand, best[i-1], gpus) < 0; i-- {
			best[i] = best[i-1]
		}
		best[i] = cand
		return len(best) < k || !unbeatable(best[k-1], gpus)
	})
	m.cands = best
	if feasible < k {
		return nil
	}
	nodes := make([]int, 0, k)
	for _, cand := range best {
		nodes = append(nodes, cand.nid)
	}
	return nodes
}

// compareGPUCandidates is the total order pickNodes ranks feasible nodes
// by: stay within the job's own sub-array first, avoid breaking an intact
// >= 4-GPU hole second, then pack best-fit. The nid tie-break makes it
// total, so the first k are unique.
func compareGPUCandidates(a, b gpuCandidate, gpus int) int {
	if a.own != b.own {
		if a.own {
			return -1
		}
		return 1
	}
	aBreak, bBreak := breaksHole(a, gpus), breaksHole(b, gpus)
	if aBreak != bBreak {
		if bBreak {
			return -1
		}
		return 1
	}
	if a.freeGPUs != b.freeGPUs {
		return a.freeGPUs - b.freeGPUs
	}
	return a.nid - b.nid
}

// unbeatable reports whether no node visited after c can rank before it in
// compareGPUCandidates order: c is in the job's own sub-array, breaks no
// hole and has exactly gpus free GPUs, the fewest a placeable node has, so
// only a lower node ID could still win the tie.
func unbeatable(c gpuCandidate, gpus int) bool {
	return c.own && !breaksHole(c, gpus) && c.freeGPUs == gpus
}

// breaksHole marks placements of gpus GPUs that would split an intact
// >= 4-GPU hole, the resource large jobs need; pickNodes keeps such holes
// whole unless nothing else fits.
func breaksHole(c gpuCandidate, gpus int) bool {
	return gpus < LargeJobGPUs &&
		c.freeGPUs >= LargeJobGPUs && c.freeGPUs-gpus < LargeJobGPUs
}

// reclaimNode preempts borrowers on a node until the pools can cover
// `cores` more. Preempted jobs re-enter the CPU array head.
func (m *MultiArray) reclaimNode(nid int, cores int) bool {
	b := m.budgets[nid]
	for _, victim := range b.borrowers() {
		if b.reserveFree()+b.sharedFree() >= cores {
			break
		}
		info, ok := m.running[victim]
		if !ok {
			continue
		}
		clone, err := m.env.PreemptJob(victim)
		if err != nil {
			continue
		}
		for _, vn := range info.alloc.NodeIDs {
			m.budgets[vn].release(victim)
		}
		delete(m.running, victim)
		_ = m.cpuAcc.Refund(victim)
		m.preemptions++
		m.RequeueCPUFront(clone)
	}
	return b.reserveFree()+b.sharedFree() >= cores
}

// startCPU attempts to place and start a CPU job. Nodes are scanned from
// the highest ID (the 1-GPU sub-array's tail) so the 4-GPU sub-array's
// shared pools stay emptier, keeping large-job placements cheap.
func (m *MultiArray) startCPU(j *job.Job, allowBorrow bool) bool {
	m.env.Cluster().NotePlacementQuery()
	cores := j.Request.CPUCores
	for nid := len(m.budgets) - 1; nid >= 0; nid-- {
		n, err := m.env.Cluster().Node(nid)
		if err != nil || n.FreeCores() < cores {
			continue
		}
		b := m.budgets[nid]
		if b.sharedFree() < cores && !(allowBorrow && b.sharedFree()+b.reserveFree() >= cores) {
			continue
		}
		if !b.chargeCPU(j.ID, cores, allowBorrow) {
			continue
		}
		alloc := job.Allocation{NodeIDs: []int{nid}, CPUCores: cores}
		if err := m.env.StartJob(j.ID, alloc); err != nil {
			b.release(j.ID)
			continue
		}
		m.running[j.ID] = &runInfo{j: j, alloc: alloc}
		m.startLog = append(m.startLog, j.ID)
		_ = m.cpuAcc.Charge(j.ID, j.Tenant, fair.Resources{CPU: float64(cores)})
		return true
	}
	return false
}

// QueueLens reports pending counts (gpu, cpu) for tests and metrics.
func (m *MultiArray) QueueLens() (gpu, cpu int) { return m.gpuQueues.Len(), m.cpuQueues.Len() }

// Rebalance adapts the per-node reserve to historical statistics: the GPU
// array reserves roughly the mean tuned core demand per GPU times the node
// GPU count ("This part of the computing resources is derived from
// historical statistical information", §V-C). The reserve only moves
// within what current occupancy allows.
func (m *MultiArray) Rebalance(stats history.Stats, gpusPerNode int) {
	if stats.GPUJobs == 0 || stats.MeanCoresPerGPU <= 0 {
		return
	}
	// Reserve enough cores to feed a node full of GPUs at the historical
	// per-GPU CPU demand, plus one spare for headroom.
	target := int(stats.MeanCoresPerGPU*float64(gpusPerNode)+0.5) + 1
	for nid, b := range m.budgets {
		if nid >= m.gpuNodes {
			continue // CPU-only nodes never reserve cores for GPU jobs
		}
		want := target
		if want < 2 {
			want = 2
		}
		if max := b.cores - 2; want > max {
			want = max
		}
		// Never cut below what GPU jobs + borrowers already use, and never
		// grow beyond what the shared pool's occupancy allows.
		if used := b.reserveUsed(); want < used {
			want = used
		}
		if maxGrow := b.cores - b.sharedUsed(); want > maxGrow {
			want = maxGrow
		}
		b.reserve = want
	}
	// Re-split the GPU sub-arrays: assign the 4-GPU sub-array the share of
	// nodes matching the historical share of GPU demand from large jobs
	// ("The division of the corresponding array is also determined by the
	// statistical information of the historical jobs", §V-C).
	if gpusPerNode >= LargeJobGPUs && stats.LargeGPUShare > 0 {
		fourGCount := int(float64(m.gpuNodes)*stats.LargeGPUShare + 0.5)
		if fourGCount > m.gpuNodes {
			fourGCount = m.gpuNodes
		}
		m.fourG = m.fourG[:0]
		m.oneG = m.oneG[:0]
		for i := 0; i < m.gpuNodes; i++ {
			if i < fourGCount {
				m.fourG = append(m.fourG, i)
			} else {
				m.oneG = append(m.oneG, i)
			}
		}
	}
}

// CheckInvariants validates all node budgets and accountants, the
// sub-array split, that each array's tenant queues are in strictly
// ascending tenant order, and that no job sits in a queue while also
// running — the double-booking a buggy requeue path would produce.
func (m *MultiArray) CheckInvariants() error {
	for nid, b := range m.budgets {
		if err := b.checkInvariants(); err != nil {
			return fmt.Errorf("node %d: %w", nid, err)
		}
	}
	if err := m.cpuAcc.CheckInvariants(); err != nil {
		return err
	}
	if err := m.gpuAcc.CheckInvariants(); err != nil {
		return err
	}
	if err := checkSplit(m.fourG, m.oneG, m.gpuNodes); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	notRunning := func(j *job.Job) error {
		if _, isRunning := m.running[j.ID]; isRunning {
			return fmt.Errorf("job %d is running and queued simultaneously", j.ID)
		}
		return nil
	}
	for _, queues := range [...]*sched.TenantQueues{&m.cpuQueues, &m.gpuQueues} {
		if err := queues.CheckInvariants(notRunning); err != nil {
			return fmt.Errorf("core: %w", err)
		}
	}
	return nil
}

// checkSplit verifies that the sub-arrays are the ID ranges the
// constructor and Rebalance build, [0, len(fourG)) for the 4-GPU sub-array
// and [len(fourG), gpuNodes) for the 1-GPU one: no overlap, no gap, no
// other order.
func checkSplit(fourG, oneG []int, gpuNodes int) error {
	want := 0
	for _, part := range [...][]int{fourG, oneG} {
		for _, nid := range part {
			if nid < 0 || nid >= gpuNodes {
				return fmt.Errorf("sub-array node %d out of range [0,%d)", nid, gpuNodes)
			}
			if nid != want {
				return fmt.Errorf("sub-arrays list node %d where node %d belongs; want 4-GPU nodes [0,%d) and 1-GPU nodes [%d,%d)",
					nid, want, len(fourG), len(fourG), gpuNodes)
			}
			want++
		}
	}
	if want != gpuNodes {
		return fmt.Errorf("GPU node %d is in neither sub-array", want)
	}
	return nil
}
