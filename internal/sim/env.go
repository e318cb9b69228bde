package sim

import (
	"errors"
	"fmt"
	"time"

	"github.com/coda-repro/coda/internal/cluster"
	"github.com/coda-repro/coda/internal/job"
	"github.com/coda-repro/coda/internal/membw"
	"github.com/coda-repro/coda/internal/sched"
)

// The simulator is the environment schedulers act through.
var _ sched.Env = (*Simulator)(nil)

// Now implements sched.Env.
func (s *Simulator) Now() time.Duration { return s.now }

// Cluster implements sched.Env.
func (s *Simulator) Cluster() *cluster.Cluster { return s.cluster }

// ErrTelemetryDark marks a node whose memory-bandwidth telemetry is
// currently unavailable (a fault-injected dropout). The underlying physics
// keep running — only the scheduler's view goes dark.
var ErrTelemetryDark = errors.New("sim: membw telemetry unavailable")

// Meter implements sched.Env. During an injected telemetry dropout the
// node's meter readings fail with ErrTelemetryDark; consumers like the
// contention eliminator must degrade gracefully (hold their last decision)
// rather than act on stale data.
func (s *Simulator) Meter(nodeID int) (*membw.Meter, error) {
	if s.chaosOn && nodeID >= 0 && nodeID < len(s.darkDepth) && s.darkDepth[nodeID] > 0 {
		return nil, fmt.Errorf("%w: node %d", ErrTelemetryDark, nodeID)
	}
	return s.monitor.Node(nodeID)
}

// StartJob implements sched.Env: it places a pending job, registers its
// bandwidth and PCIe demand, computes its speed, and queues its completion.
func (s *Simulator) StartJob(id job.ID, alloc job.Allocation) error {
	j, ok := s.pending[id]
	if !ok {
		return fmt.Errorf("sim: job %d is not pending", id)
	}
	if len(alloc.NodeIDs) != j.Request.Nodes {
		return fmt.Errorf("sim: job %d wants %d nodes, allocation has %d",
			id, j.Request.Nodes, len(alloc.NodeIDs))
	}
	if j.IsGPU() && alloc.GPUs != j.Request.GPUsPerNode() {
		return fmt.Errorf("sim: job %d wants %d gpus per node, allocation has %d",
			id, j.Request.GPUsPerNode(), alloc.GPUs)
	}
	if !j.IsGPU() && alloc.GPUs != 0 {
		return fmt.Errorf("sim: cpu job %d cannot hold gpus", id)
	}
	if err := s.cluster.Allocate(id, alloc); err != nil {
		return err
	}

	s.attempts++
	r := &runningJob{
		job:        j,
		alloc:      alloc.Clone(),
		remaining:  j.Work,
		lastUpdate: s.now,
		startedAt:  s.now,
		attempt:    s.attempts,
	}
	var bwDemand float64
	if j.IsGPU() {
		model, err := s.model(j.Model)
		if err != nil {
			_ = s.cluster.Release(id)
			return fmt.Errorf("sim: job %d: %w", id, err)
		}
		r.model = model
		bwDemand, err = model.BandwidthDemand(r.cfg(), j.BatchSize, alloc.CPUCores)
		if err != nil {
			_ = s.cluster.Release(id)
			return fmt.Errorf("sim: job %d: %w", id, err)
		}
	} else {
		bwDemand = j.Bandwidth
	}
	r.bwDemand = bwDemand

	for i, nid := range alloc.NodeIDs {
		meter, err := s.monitor.Node(nid)
		if err == nil {
			err = meter.Register(id, bwDemand, !j.IsGPU())
		}
		if err != nil {
			// Roll back everything registered so far.
			for _, prev := range alloc.NodeIDs[:i] {
				if m, merr := s.monitor.Node(prev); merr == nil {
					_ = m.Deregister(id)
				}
			}
			_ = s.cluster.Release(id)
			return fmt.Errorf("sim: job %d: %w", id, err)
		}
		if r.model != nil {
			if pcie, perr := r.model.PCIeDemand(r.cfg()); perr == nil {
				s.pcieLoad[nid] += pcie
			}
		}
	}

	delete(s.pending, id)
	s.track(r)
	s.touchJob(id)
	if !j.IsGPU() {
		for _, nid := range alloc.NodeIDs {
			s.cpuCoresOn[nid] += alloc.CPUCores
		}
	}
	first := !s.startedOnce[id]
	if first {
		s.startedOnce[id] = true
	}
	s.results.noteStart(j, s.now, first)

	// New load may slow neighbours; refresh the whole neighbourhood
	// (including this job, whose speed is set by the same pass).
	s.startSpeedCache(r)
	r.speed = s.computeSpeed(r)
	s.scheduleCompletion(r)
	s.refreshNodes(alloc.NodeIDs)
	s.armJobFailure(r)
	return nil
}

// ResizeJob implements sched.Env: it changes a running job's per-node core
// count, updating bandwidth demand and progress speed.
func (s *Simulator) ResizeJob(id job.ID, coresPerNode int) error {
	r, ok := s.running[id]
	if !ok {
		return fmt.Errorf("sim: job %d is not running", id)
	}
	if coresPerNode == r.alloc.CPUCores {
		return nil
	}
	if err := s.cluster.Resize(id, coresPerNode); err != nil {
		return err
	}
	s.advance(r)
	s.touchJob(id)
	if !r.job.IsGPU() {
		for _, nid := range r.alloc.NodeIDs {
			s.cpuCoresOn[nid] += coresPerNode - r.alloc.CPUCores
		}
	}
	r.alloc.CPUCores = coresPerNode

	var newDemand float64
	if r.model != nil {
		d, err := r.model.BandwidthDemand(r.cfg(), r.job.BatchSize, coresPerNode)
		if err != nil {
			return fmt.Errorf("sim: job %d: %w", id, err)
		}
		newDemand = d
	} else {
		// CPU-job bandwidth scales with the cores it keeps.
		req := r.job.Request.CPUCores
		newDemand = r.job.Bandwidth
		if req > 0 && coresPerNode < req {
			newDemand = r.job.Bandwidth * float64(coresPerNode) / float64(req)
		}
	}
	r.bwDemand = newDemand
	for _, nid := range r.alloc.NodeIDs {
		if meter, err := s.monitor.Node(nid); err == nil {
			_ = meter.SetDemand(id, newDemand)
		}
	}
	if r.model == nil {
		s.evalSpeed(r)
	}
	s.results.noteResize(r.job, coresPerNode)
	s.refreshNodes(r.alloc.NodeIDs)
	return nil
}

// PreemptJob implements sched.Env: it aborts a running CPU job, releasing
// its resources, and returns a clone carrying the remaining work for the
// scheduler to requeue (§V-C: "the suspended CPU job re-enters the array
// head").
func (s *Simulator) PreemptJob(id job.ID) (*job.Job, error) {
	r, ok := s.running[id]
	if !ok {
		return nil, fmt.Errorf("sim: job %d is not running", id)
	}
	if r.job.IsGPU() {
		return nil, fmt.Errorf("sim: job %d is a training job; CODA never preempts GPU jobs", id)
	}
	s.advance(r)
	s.stopJob(r)

	clone := r.job.Clone()
	clone.Work = r.remaining
	if clone.Work < time.Second {
		clone.Work = time.Second // a preempted job always re-runs briefly
	}
	s.pending[id] = clone
	s.touchJob(id)
	s.results.notePreemption(id)
	return clone, nil
}

// ThrottleJob implements sched.Env: MBA-style bandwidth capping of a CPU
// job on every node it occupies.
func (s *Simulator) ThrottleJob(id job.ID, capGBs float64) error {
	r, ok := s.running[id]
	if !ok {
		return fmt.Errorf("sim: job %d is not running", id)
	}
	for _, nid := range r.alloc.NodeIDs {
		meter, err := s.monitor.Node(nid)
		if err != nil {
			return err
		}
		if err := meter.Throttle(id, capGBs); err != nil {
			return err
		}
	}
	if r.model == nil {
		s.evalSpeed(r)
	}
	s.results.noteThrottle(id)
	s.refreshNodes(r.alloc.NodeIDs)
	return nil
}

// UnthrottleJob implements sched.Env.
func (s *Simulator) UnthrottleJob(id job.ID) error {
	r, ok := s.running[id]
	if !ok {
		return fmt.Errorf("sim: job %d is not running", id)
	}
	for _, nid := range r.alloc.NodeIDs {
		meter, err := s.monitor.Node(nid)
		if err != nil {
			return err
		}
		if err := meter.Unthrottle(id); err != nil {
			return err
		}
	}
	if r.model == nil {
		s.evalSpeed(r)
	}
	s.refreshNodes(r.alloc.NodeIDs)
	return nil
}

// GPUUtil implements sched.Env: the noisy utilization reading CODA's
// allocator profiles (§V-B2, §VI-F).
func (s *Simulator) GPUUtil(id job.ID) (float64, error) {
	r, ok := s.running[id]
	if !ok {
		return 0, fmt.Errorf("sim: job %d is not running", id)
	}
	if r.model == nil {
		return 0, fmt.Errorf("sim: job %d is not a training job", id)
	}
	// The cached raw speed is what the model gave at this operating point
	// when its inputs last changed.
	if r.rawErr != nil {
		return 0, r.rawErr
	}
	util := r.model.UtilAtSpeed(r.rawSpeed)
	if s.opts.UtilNoise > 0 {
		util *= 1 + s.opts.UtilNoise*(2*s.noise()-1)
	}
	if util < 0 {
		util = 0
	}
	if util > 1 {
		util = 1
	}
	return util, nil
}

// noise is the only gate to the measurement-noise generator: it counts every
// draw so Resume can re-seed the generator and discard exactly this many
// values, landing the resumed run on the same stream position. Drawing from
// s.rng directly would silently break bit-identical resume.
func (s *Simulator) noise() float64 {
	s.rngDraws++
	return s.rng.Float64()
}
