package ctl

import (
	"errors"
	"fmt"
	"time"

	"github.com/coda-repro/coda/internal/chaos"
	"github.com/coda-repro/coda/internal/checkpoint"
	"github.com/coda-repro/coda/internal/cluster"
	"github.com/coda-repro/coda/internal/ctl/wal"
	"github.com/coda-repro/coda/internal/job"
	"github.com/coda-repro/coda/internal/metrics"
	"github.com/coda-repro/coda/internal/sched"
	"github.com/coda-repro/coda/internal/sim"
)

// Config assembles a Machine: the engine options, the durable stores, and a
// scheduler factory (Resume needs a fresh instance to restore into, so a
// factory rather than an instance).
type Config struct {
	// Options configures the wrapped simulator. Service is forced on.
	Options sim.Options
	// NewScheduler builds a fresh scheduler of the serving policy. It must
	// construct identically every call — scheduler state is restored from
	// checkpoints, never carried over.
	NewScheduler func() (sched.Scheduler, error)
	// Log is the write-ahead request log.
	Log wal.Log
	// Store persists machine checkpoints.
	Store wal.CheckpointStore
	// CheckpointEvery takes a machine checkpoint each time this many WAL
	// records have been applied; 0 disables checkpointing.
	CheckpointEvery int
}

func (c *Config) validate() error {
	if c.NewScheduler == nil {
		return errors.New("ctl: config needs a scheduler factory")
	}
	if c.Log == nil {
		return errors.New("ctl: config needs a WAL")
	}
	if c.Store == nil {
		return errors.New("ctl: config needs a checkpoint store")
	}
	if c.CheckpointEvery < 0 {
		return fmt.Errorf("ctl: negative checkpoint cadence %d", c.CheckpointEvery)
	}
	return nil
}

// Machine is the single-threaded deterministic core of the control plane:
// WAL records in, state transitions out. It owns the service-mode simulator
// and is the only code that mutates it. Machine itself is not safe for
// concurrent use — the Server serializes access.
type Machine struct {
	cfg       Config
	sim       *sim.Simulator
	applied   uint64
	nextJobID int64
	counters  metrics.FaultCounters
}

// NewMachine builds a fresh machine (empty WAL position). The engine is
// advanced through its bootstrap events so the first checkpoint, whenever
// it comes, already contains them.
func NewMachine(cfg Config) (*Machine, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	scheduler, err := cfg.NewScheduler()
	if err != nil {
		return nil, fmt.Errorf("ctl: build scheduler: %w", err)
	}
	opts := cfg.Options
	opts.Service = true
	s, err := sim.New(opts, scheduler, nil)
	if err != nil {
		return nil, err
	}
	m := &Machine{cfg: cfg, sim: s}
	if err := s.RunUntil(0); err != nil {
		return nil, err
	}
	return m, nil
}

// Now returns the machine's virtual time.
func (m *Machine) Now() time.Duration { return m.sim.Now() }

// Applied returns how many WAL records the machine has applied.
func (m *Machine) Applied() uint64 { return m.applied }

// Counters returns the serve-side fault counters (WAL syncs, accepted and
// replayed records, recoveries), merged with the engine's own.
func (m *Machine) Counters() metrics.FaultCounters {
	c := m.counters
	// The engine counters live in the (not yet finalized) results; Stats
	// exposes the service-relevant subset, and the merged view is what
	// /metrics reports and Sane() cross-checks.
	return c
}

// Stats snapshots the engine's lifecycle counters.
func (m *Machine) Stats() sim.ServiceStats { return m.sim.Stats() }

// ApplyBatch makes one admission batch durable — a single WAL append, a
// single fsync — and then applies each record in order at virtual time at
// (clamped up to the machine's current time, and recorded in each frame, so
// a replay needs no clock). The returned responses are positional.
func (m *Machine) ApplyBatch(at time.Duration, reqs []Request) ([]Response, error) {
	if len(reqs) == 0 {
		return nil, nil
	}
	if at < m.sim.Now() {
		at = m.sim.Now()
	}
	frames := make([][]byte, len(reqs))
	for i := range reqs {
		payload, err := reqs[i].Encode()
		if err != nil {
			return nil, err
		}
		frames[i] = wal.EncodeRecord(m.applied+uint64(i)+1, at, payload)
	}
	if err := m.cfg.Log.Append(frames); err != nil {
		return nil, err
	}
	m.counters.WALFsyncs++
	resps := make([]Response, len(reqs))
	for i := range reqs {
		resp, err := m.applyRecord(reqs[i], at, false)
		if err != nil {
			return nil, err
		}
		resps[i] = resp
	}
	return resps, nil
}

// Apply is ApplyBatch for a single request.
func (m *Machine) Apply(at time.Duration, req Request) (Response, error) {
	resps, err := m.ApplyBatch(at, []Request{req})
	if err != nil {
		return Response{}, err
	}
	return resps[0], nil
}

// applyRecord applies one durable record. Semantic rejections (cancel of an
// unknown job, an impossible node transition) come back in Response.Err and
// are themselves deterministic: the record is in the WAL either way, and a
// replay reproduces the same rejection. An error return means the engine
// itself failed (invariant violation, checkpoint failure) — not replayable,
// fatal.
func (m *Machine) applyRecord(req Request, at time.Duration, replay bool) (Response, error) {
	if err := m.sim.RunUntil(at); err != nil {
		return Response{}, err
	}
	resp := Response{Seq: m.applied + 1}
	switch req.Op {
	case OpSubmit:
		id := job.ID(m.nextJobID + 1)
		j, err := req.Job.ToJob(id)
		if err == nil {
			err = m.sim.InjectArrival(j)
		}
		if err != nil {
			resp.Err = err.Error()
		} else {
			m.nextJobID = int64(id)
			resp.JobID = int64(id)
		}
	case OpCancel:
		if err := m.sim.CancelJob(job.ID(req.JobID)); err != nil {
			resp.Err = err.Error()
		}
	case OpNodeJoin, OpNodeDrain, OpNodeUndrain, OpNodeLeave:
		if err := m.applyNodeOp(req.Op, req.Node); err != nil {
			resp.Err = err.Error()
		}
	default:
		resp.Err = fmt.Sprintf("ctl: unknown op %q", req.Op)
	}
	// Drain everything the operation queued at the current instant (the
	// arrival or fault event) so queries made before the next batch see the
	// operation's effect.
	if err := m.sim.RunUntil(at); err != nil {
		return Response{}, err
	}
	m.applied++
	if replay {
		m.counters.ServeReplayed++
	} else {
		m.counters.ServeAccepted++
	}
	if !replay && m.cfg.CheckpointEvery > 0 && m.applied%uint64(m.cfg.CheckpointEvery) == 0 {
		data, err := m.Checkpoint()
		if err != nil {
			return Response{}, err
		}
		if err := m.cfg.Store.Save(data, m.applied); err != nil {
			return Response{}, err
		}
	}
	return resp, nil
}

// applyNodeOp validates a node lifecycle transition against the node's
// current state and routes it through the engine's fault machinery. The
// validation is what keeps the engine's crash/recovery depth accounting
// (and FaultCounters.Sane) consistent: a join of an up node or a drain of a
// down node is a client error, not a fault.
func (m *Machine) applyNodeOp(op Op, nid int) error {
	n, err := m.sim.Cluster().Node(nid)
	if err != nil {
		return err
	}
	var kind chaos.Kind
	switch op {
	case OpNodeDrain:
		if n.State() != cluster.NodeUp {
			return fmt.Errorf("ctl: node %d is %v, not up: cannot drain", nid, n.State())
		}
		kind = chaos.KindNodeDrain
	case OpNodeUndrain:
		if n.State() != cluster.NodeDraining {
			return fmt.Errorf("ctl: node %d is %v, not draining: cannot undrain", nid, n.State())
		}
		kind = chaos.KindNodeUndrain
	case OpNodeLeave:
		if n.State() == cluster.NodeDown {
			return fmt.Errorf("ctl: node %d is already down: cannot leave", nid)
		}
		kind = chaos.KindNodeCrash
	case OpNodeJoin:
		if n.State() != cluster.NodeDown {
			return fmt.Errorf("ctl: node %d is %v, not down: cannot join", nid, n.State())
		}
		kind = chaos.KindNodeRecover
	default:
		return fmt.Errorf("ctl: %q is not a node op", op)
	}
	return m.sim.InjectFault(chaos.Fault{Kind: kind, Node: nid})
}

// JobStatus is the API view of one job.
type JobStatus struct {
	ID int64 `json:"id"`
	// Phase is one of sim's lifecycle phases; empty for unknown IDs.
	Phase string `json:"phase"`
	// Nodes is the current placement (running jobs only).
	Nodes []int `json:"nodes,omitempty"`
}

// JobStatus reports one job's phase and placement.
func (m *Machine) JobStatus(id int64) JobStatus {
	return JobStatus{
		ID:    id,
		Phase: m.sim.JobPhase(job.ID(id)),
		Nodes: m.sim.JobPlacement(job.ID(id)),
	}
}

// NodeStatus is the API view of one node.
type NodeStatus struct {
	ID        int    `json:"id"`
	State     string `json:"state"`
	UsedCores int    `json:"usedCores"`
	UsedGPUs  int    `json:"usedGpus"`
	Jobs      int    `json:"jobs"`
}

// NodeStatuses reports every node in ID order.
func (m *Machine) NodeStatuses() []NodeStatus {
	c := m.sim.Cluster()
	out := make([]NodeStatus, 0, c.Size())
	for id := 0; id < c.Size(); id++ {
		n, err := c.Node(id)
		if err != nil {
			continue
		}
		out = append(out, NodeStatus{
			ID:        id,
			State:     n.State().String(),
			UsedCores: n.UsedCores(),
			UsedGPUs:  n.UsedGPUs(),
			Jobs:      n.JobCount(),
		})
	}
	return out
}

// AdvanceTo moves virtual time forward, delivering every due engine event
// (ticks, completions, retries). The server calls this once per tick with
// no batch to keep the cluster making progress between requests.
func (m *Machine) AdvanceTo(t time.Duration) error { return m.sim.RunUntil(t) }

// Finish finalizes the wrapped run and returns its results, folding the
// machine's serve-side counters into the result's fault counters so
// Sane() sees one coherent set.
func (m *Machine) Finish() (*sim.Result, error) {
	res, err := m.sim.Finish()
	if err != nil {
		return nil, err
	}
	res.Faults.ServeAccepted += m.counters.ServeAccepted
	res.Faults.ServeShed += m.counters.ServeShed
	res.Faults.ServeReplayed += m.counters.ServeReplayed
	res.Faults.WALFsyncs += m.counters.WALFsyncs
	res.Faults.ServeRecoveries += m.counters.ServeRecoveries
	return res, nil
}

// NoteShed records one request bounced with backpressure before touching
// the WAL.
func (m *Machine) NoteShed() { m.counters.ServeShed++ }

// MachineCheckpoint is the durable machine state: the WAL position, the ID
// allocator, the serve counters, and the full engine checkpoint.
type MachineCheckpoint struct {
	Applied   uint64
	NextJobID int64
	Counters  metrics.FaultCounters
	Sim       *sim.Checkpoint
}

// Checkpoint serializes the machine into a CODACKPT envelope.
func (m *Machine) Checkpoint() ([]byte, error) {
	simCk, err := m.sim.Checkpoint()
	if err != nil {
		return nil, err
	}
	ck := &MachineCheckpoint{
		Applied:   m.applied,
		NextJobID: m.nextJobID,
		Counters:  m.counters,
		Sim:       simCk,
	}
	return checkpoint.Encode(ck)
}

// Resume rebuilds a machine from cfg's durable state: the latest
// checkpoint in cfg.Store (or a fresh machine when the store is empty)
// plus a strict replay of the WAL suffix past it. The WAL must decode
// cleanly and cover at least the checkpoint's position — a log shorter
// than the checkpoint means durability was violated and recovery refuses.
// The second return reports whether any prior state was actually
// recovered (false for a cold start with empty store and WAL).
func Resume(cfg Config) (*Machine, bool, error) {
	if err := cfg.validate(); err != nil {
		return nil, false, err
	}
	image, err := cfg.Log.Bytes()
	if err != nil {
		return nil, false, err
	}
	recs, err := wal.DecodeAll(image)
	if err != nil {
		return nil, false, err
	}
	data, err := cfg.Store.Latest()
	if err != nil {
		return nil, false, err
	}

	var m *Machine
	if data == nil {
		m, err = NewMachine(cfg)
		if err != nil {
			return nil, false, err
		}
	} else {
		var ck MachineCheckpoint
		if err := checkpoint.Decode(data, &ck); err != nil {
			return nil, false, err
		}
		if ck.Sim == nil {
			return nil, false, errors.New("ctl: checkpoint carries no engine state")
		}
		scheduler, err := cfg.NewScheduler()
		if err != nil {
			return nil, false, fmt.Errorf("ctl: build scheduler: %w", err)
		}
		s, err := sim.Resume(ck.Sim, scheduler, nil)
		if err != nil {
			return nil, false, err
		}
		m = &Machine{
			cfg:       cfg,
			sim:       s,
			applied:   ck.Applied,
			nextJobID: ck.NextJobID,
			counters:  ck.Counters,
		}
	}

	if uint64(len(recs)) < m.applied {
		return nil, false, fmt.Errorf("ctl: WAL holds %d records but the checkpoint was taken at %d (log truncated?)",
			len(recs), m.applied)
	}
	recovered := data != nil || len(recs) > 0
	if recovered {
		m.counters.ServeRecoveries++
	}
	for _, rec := range recs[m.applied:] {
		req, err := ParseRequest(rec.Payload)
		if err != nil {
			return nil, false, fmt.Errorf("ctl: WAL record %d: %w", rec.Seq, err)
		}
		if _, err := m.applyRecord(req, rec.At, true); err != nil {
			return nil, false, fmt.Errorf("ctl: replay record %d: %w", rec.Seq, err)
		}
	}
	return m, recovered, nil
}
