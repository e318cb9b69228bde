package ctl

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"
)

// ServerConfig tunes the HTTP facade.
type ServerConfig struct {
	// QueueDepth bounds the admission queue; a full queue sheds requests
	// with 429 + Retry-After instead of letting latency grow without bound.
	// 0 means DefaultQueueDepth.
	QueueDepth int
	// retryAfter is the backoff hint attached to shed requests; 0 means
	// DefaultRetryAfter. Only this package's tests set it.
	retryAfter time.Duration
	// maxWait caps how long a handler waits for its batch to be applied
	// before giving up with 503 (the request may still apply — it is queued
	// and, once ticked, durable). 0 means DefaultMaxWait. Only this
	// package's tests set it.
	maxWait time.Duration
}

// Defaults for ServerConfig zero fields.
const (
	DefaultQueueDepth = 256
	DefaultRetryAfter = time.Second
	DefaultMaxWait    = 5 * time.Second
)

// pending is one queued mutating request awaiting the next tick.
type pending struct {
	req   Request
	reply chan outcome
}

// outcome is what Tick delivers back to a waiting handler.
type outcome struct {
	resp Response
	err  error
}

// Server is the HTTP facade over a Machine. Handlers never touch the
// machine's engine directly: mutating requests go into a bounded queue and
// are drained as one WAL batch by Tick — so parallel clients still yield
// one canonical event order. Server itself starts no goroutines; the
// owning process drives Tick (and tests drive it manually).
type Server struct {
	cfg ServerConfig

	mu      sync.Mutex // guards machine access and stopped/failed below
	machine *Machine
	stopped bool
	failed  error

	queue chan pending
	done  chan struct{} // closed by Stop: wakes waiting handlers

	mux *http.ServeMux
}

// NewServer wraps a machine.
func NewServer(m *Machine, cfg ServerConfig) *Server {
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = DefaultQueueDepth
	}
	if cfg.retryAfter <= 0 {
		cfg.retryAfter = DefaultRetryAfter
	}
	if cfg.maxWait <= 0 {
		cfg.maxWait = DefaultMaxWait
	}
	s := &Server{
		cfg:     cfg,
		machine: m,
		queue:   make(chan pending, cfg.QueueDepth),
		done:    make(chan struct{}),
		mux:     http.NewServeMux(),
	}
	s.mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleJobStatus)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	s.mux.HandleFunc("POST /v1/nodes/{id}/{action}", s.handleNodeOp)
	s.mux.HandleFunc("GET /v1/nodes", s.handleNodes)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Tick advances the machine to virtual time at and serves everything
// queued since the last tick as one batch: it drains the queue, appends
// the batch to the WAL with one fsync, applies it, sends every reply, and
// only then takes the machine checkpoint the batch made due, if any. The
// fsync precedes every reply, so an acknowledged request is durable; the
// checkpoint only shortens recovery, and a crash before it recovers from
// the older checkpoint plus a longer WAL suffix. Tick is the only path
// that mutates the machine, and it runs synchronously in the caller's
// goroutine. A machine error poisons the server: when the WAL append or
// the engine fails, every request of the batch is answered 503; when the
// checkpoint fails, the batch has already been answered 200 (its records
// are in the WAL), and Tick returns the error. Either way every later
// request is answered 503.
func (s *Server) Tick(at time.Duration) error {
	s.mu.Lock()
	defer s.mu.Unlock()

	var batch []pending
	for {
		select {
		case p := <-s.queue:
			batch = append(batch, p)
			continue
		default:
		}
		break
	}

	if s.failed != nil || s.stopped {
		err := s.failed
		if err == nil {
			err = errors.New("ctl: server stopped")
		}
		for _, p := range batch {
			p.reply <- outcome{err: err}
		}
		return err
	}

	if len(batch) == 0 {
		return s.machine.AdvanceTo(maxDuration(at, s.machine.Now()))
	}
	reqs := make([]Request, len(batch))
	for i, p := range batch {
		reqs[i] = p.req
	}
	before := s.machine.Applied()
	resps, err := s.machine.ApplyBatch(at, reqs)
	if err != nil {
		s.failed = err
		for _, p := range batch {
			p.reply <- outcome{err: err}
		}
		return err
	}
	for i, p := range batch {
		p.reply <- outcome{resp: resps[i]}
	}
	if err := s.machine.checkpointDue(before); err != nil {
		s.failed = err
		return err
	}
	return nil
}

// Stop refuses all future mutations (503) and wakes every waiting handler.
// Queries keep working — a draining server can still be inspected.
func (s *Server) Stop() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.stopped {
		return
	}
	s.stopped = true
	close(s.done)
}

// enqueue queues one mutating request and waits for its tick. Every
// rejection is typed: 429 + Retry-After when the queue is full (the client
// should back off and retry), 503 when the server is stopped or poisoned
// or the wait deadline passes (the outcome is unknown: the request may
// still be applied once queued).
func (s *Server) enqueue(w http.ResponseWriter, r *http.Request, req Request) {
	s.mu.Lock()
	stopped, failed := s.stopped, s.failed
	s.mu.Unlock()
	if failed != nil {
		httpError(w, http.StatusServiceUnavailable, failed.Error())
		return
	}
	if stopped {
		httpError(w, http.StatusServiceUnavailable, "server stopped")
		return
	}

	p := pending{req: req, reply: make(chan outcome, 1)}
	select {
	case s.queue <- p:
	default:
		s.mu.Lock()
		s.machine.NoteShed()
		s.mu.Unlock()
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds(s.cfg.retryAfter)))
		httpError(w, http.StatusTooManyRequests, "admission queue full, retry later")
		return
	}

	timer := time.NewTimer(s.cfg.maxWait)
	defer timer.Stop()
	select {
	case out := <-p.reply:
		if out.err != nil {
			httpError(w, http.StatusServiceUnavailable, out.err.Error())
			return
		}
		writeJSON(w, http.StatusOK, out.resp)
	case <-r.Context().Done():
		httpError(w, http.StatusServiceUnavailable, "request abandoned before its tick (outcome unknown)")
	case <-s.done:
		httpError(w, http.StatusServiceUnavailable, "server stopped before the request's tick (outcome unknown)")
	case <-timer.C:
		httpError(w, http.StatusServiceUnavailable, "tick deadline passed (outcome unknown)")
	}
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	spec, err := parseJobSpec(r.Body)
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	req := Request{Op: OpSubmit, Job: spec}
	if err := req.Validate(); err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	s.enqueue(w, r, req)
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.ParseInt(r.PathValue("id"), 10, 64)
	if err != nil || id <= 0 {
		httpError(w, http.StatusBadRequest, fmt.Sprintf("bad job id %q", r.PathValue("id")))
		return
	}
	s.enqueue(w, r, Request{Op: OpCancel, JobID: id})
}

func (s *Server) handleNodeOp(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.Atoi(r.PathValue("id"))
	if err != nil || id < 0 {
		httpError(w, http.StatusBadRequest, fmt.Sprintf("bad node id %q", r.PathValue("id")))
		return
	}
	var op Op
	switch action := r.PathValue("action"); action {
	case "drain":
		op = OpNodeDrain
	case "undrain":
		op = OpNodeUndrain
	case "join":
		op = OpNodeJoin
	case "leave":
		op = OpNodeLeave
	default:
		httpError(w, http.StatusNotFound, fmt.Sprintf("unknown node action %q", action))
		return
	}
	s.enqueue(w, r, Request{Op: op, Node: id})
}

func (s *Server) handleJobStatus(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.ParseInt(r.PathValue("id"), 10, 64)
	if err != nil || id <= 0 {
		httpError(w, http.StatusBadRequest, fmt.Sprintf("bad job id %q", r.PathValue("id")))
		return
	}
	s.mu.Lock()
	st := s.machine.JobStatus(id)
	s.mu.Unlock()
	if st.Phase == "" {
		httpError(w, http.StatusNotFound, fmt.Sprintf("job %d is unknown", id))
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleNodes(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	nodes := s.machine.NodeStatuses()
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, nodes)
}

// handleMetrics renders the serve counters and engine lifecycle stats in
// the text exposition format scrapers expect: one "name value" per line.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	c := s.machine.Counters()
	st := s.machine.Stats()
	queued := len(s.queue)
	s.mu.Unlock()

	var buf bytes.Buffer
	for _, m := range []struct {
		name  string
		value int64
	}{
		{"coda_serve_accepted_total", int64(c.ServeAccepted)},
		{"coda_serve_shed_total", int64(c.ServeShed)},
		{"coda_serve_replayed_total", int64(c.ServeReplayed)},
		{"coda_serve_wal_fsyncs_total", int64(c.WALFsyncs)},
		{"coda_serve_recoveries_total", int64(c.ServeRecoveries)},
		{"coda_serve_queue_depth", int64(queued)},
		{"coda_virtual_time_seconds", int64(st.Now / time.Second)},
		{"coda_jobs_pending", int64(st.Pending)},
		{"coda_jobs_running", int64(st.Running)},
		{"coda_jobs_retrying", int64(st.Retrying)},
		{"coda_jobs_completed_total", int64(st.Completed)},
		{"coda_jobs_terminal_total", int64(st.Terminal)},
		{"coda_jobs_cancelled_total", int64(st.Cancelled)},
		{"coda_engine_events_total", int64(st.Events)},
	} {
		fmt.Fprintf(&buf, "%s %d\n", m.name, m.value)
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(buf.Bytes())
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	failed := s.failed
	body := struct {
		Status  string        `json:"status"`
		Now     time.Duration `json:"now"`
		Applied uint64        `json:"applied"`
		Queued  int           `json:"queued"`
		Err     string        `json:"error,omitempty"`
	}{
		Status:  "ok",
		Now:     s.machine.Now(),
		Applied: s.machine.Applied(),
		Queued:  len(s.queue),
	}
	s.mu.Unlock()
	code := http.StatusOK
	if failed != nil {
		body.Status = "failed"
		body.Err = failed.Error()
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, body)
}

// parseJobSpec strictly decodes a submit body, mirroring ParseRequest's
// discipline: unknown fields, trailing data and oversized bodies are loud.
func parseJobSpec(body io.Reader) (*JobSpec, error) {
	data, err := io.ReadAll(io.LimitReader(body, maxRequestBytes+1))
	if err != nil {
		return nil, fmt.Errorf("ctl: read body: %w", err)
	}
	if len(data) > maxRequestBytes {
		return nil, fmt.Errorf("ctl: body exceeds cap %d", maxRequestBytes)
	}
	var spec JobSpec
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		return nil, fmt.Errorf("ctl: parse job spec: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, errors.New("ctl: trailing data after job spec")
	}
	return &spec, nil
}

func httpError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, struct {
		Err string `json:"error"`
	}{msg})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	data, err := json.Marshal(v)
	if err != nil {
		w.WriteHeader(http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_, _ = w.Write(append(data, '\n'))
}

func retryAfterSeconds(d time.Duration) int {
	secs := int((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return secs
}

func maxDuration(a, b time.Duration) time.Duration {
	if a > b {
		return a
	}
	return b
}
