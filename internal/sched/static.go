package sched

import "github.com/coda-repro/coda/internal/job"

// Static is the static-partition policy the paper's introduction
// criticizes (§I, citing Jeon et al.'s production setup): every GPU is
// statically granted an equal slice of its node's cores — "The work
// directly splits all the CPUs and memory to all GPUs, and lead[s] to
// underutilization of CPU resources." GPU jobs always run with
// coresPerNode/gpusPerNode cores per GPU regardless of what the model
// needs; CPU jobs only use cores on nodes whose GPUs are idle (their
// slices are bound to the GPUs).
type Static struct {
	env         Env
	coresPerGPU int
	queue       JobQueue // arrival order
	// failed is per-pass scratch reused across drains.
	failed failedSet
}

var _ Scheduler = (*Static)(nil)

// NewStatic builds the static-partition baseline for a node shape.
func NewStatic(coresPerNode, gpusPerNode int) *Static {
	coresPerGPU := 1
	if gpusPerNode > 0 {
		coresPerGPU = coresPerNode / gpusPerNode
		if coresPerGPU < 1 {
			coresPerGPU = 1
		}
	}
	return &Static{coresPerGPU: coresPerGPU}
}

// Name implements Scheduler.
func (s *Static) Name() string { return "static" }

// Bind implements Scheduler.
func (s *Static) Bind(env Env) { s.env = env }

// Submit implements Scheduler.
func (s *Static) Submit(j *job.Job) {
	s.queue.PushBack(j)
	s.drain()
}

// OnJobCompleted implements Scheduler.
func (s *Static) OnJobCompleted(*job.Job) { s.drain() }

// OnJobKilled implements Scheduler. The static split keeps no
// per-running-job state; freed partition slices may start queued work.
func (s *Static) OnJobKilled(*job.Job) { s.drain() }

// Tick implements Scheduler.
func (s *Static) Tick() { s.drain() }

// effectiveRequest rewrites a job's request under the static split: GPU
// jobs get exactly coresPerGPU cores per GPU; CPU jobs keep their request
// (they live off whatever slices idle GPUs leave behind).
func (s *Static) effectiveRequest(j *job.Job) job.Request {
	req := j.Request
	if j.IsGPU() {
		req.CPUCores = s.coresPerGPU * req.GPUsPerNode()
	}
	return req
}

// drain starts jobs first-fit in arrival order under the static split.
func (s *Static) drain() {
	s.failed.reset()
	for i := 0; i < s.queue.Len(); i++ {
		j := s.queue.At(i)
		req := s.effectiveRequest(j)
		if s.failed.covered(req) {
			continue
		}
		if alloc, found := PlaceRequest(s.env.Cluster(), req, nil); found {
			if err := s.env.StartJob(j.ID, alloc); err == nil {
				s.queue.Remove(i)
				i-- // the next job moved into slot i
			}
		} else {
			s.failed.add(req)
		}
	}
}
