package ctl

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/coda-repro/coda/internal/ctl/wal"
	"github.com/coda-repro/coda/internal/sim"
)

// reply is one HTTP answer to a client.
type reply struct {
	code int
	body string
}

// cpuSpec is a small CPU job; i varies its shape.
func cpuSpec(i int) *JobSpec {
	return &JobSpec{Kind: "cpu", Tenant: 1 + i%3, CPUCores: 1 + i%4, WorkSeconds: float64(300 + 60*i)}
}

// submits wraps specs as submit requests.
func submits(specs ...*JobSpec) []Request {
	reqs := make([]Request, len(specs))
	for i, spec := range specs {
		reqs[i] = Request{Op: OpSubmit, Job: spec}
	}
	return reqs
}

// waitQueued polls until the server's admission queue holds n requests.
func waitQueued(t *testing.T, s *Server, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for len(s.queue) < n {
		if time.Now().After(deadline) {
			t.Fatalf("admission queue holds %d requests after 5s, want %d", len(s.queue), n)
		}
		time.Sleep(time.Millisecond)
	}
}

// serveSubmits posts each spec to the server from its own client, waiting
// until each is queued before posting the next so the batch keeps their
// order, then runs one Tick at virtual time at. It returns the replies in
// order and Tick's error. When answered is not nil it is closed once every
// client has its reply.
func serveSubmits(t *testing.T, s *Server, base string, at time.Duration, specs []*JobSpec, answered chan<- struct{}) ([]reply, error) {
	t.Helper()
	replies := make([]reply, len(specs))
	var wg sync.WaitGroup
	queued := len(s.queue)
	for i, spec := range specs {
		body, err := json.Marshal(spec)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(base+"/v1/jobs", "application/json", strings.NewReader(string(body)))
			if err != nil {
				replies[i] = reply{body: err.Error()}
				return
			}
			defer resp.Body.Close()
			data, _ := io.ReadAll(resp.Body)
			replies[i] = reply{code: resp.StatusCode, body: string(data)}
		}(i)
		waitQueued(t, s, queued+i+1)
	}
	if answered != nil {
		go func() { wg.Wait(); close(answered) }()
	}
	err := s.Tick(at)
	wg.Wait()
	return replies, err
}

// gateStore is a checkpoint store whose Save waits until gate closes and
// fails if that takes 5s.
type gateStore struct {
	*wal.MemStore
	gate <-chan struct{}
}

func (s *gateStore) Save(data []byte, seq uint64) error {
	select {
	case <-s.gate:
		return s.MemStore.Save(data, seq)
	case <-time.After(5 * time.Second):
		return errors.New("checkpoint save blocked for 5s: its batch was never acknowledged")
	}
}

// TestTickAcknowledgesBeforeCheckpoint: the clients of the batch that makes
// a checkpoint due have their 200 replies before the checkpoint is saved.
// The store's Save blocks until every client is answered, so a Tick that
// saved before replying would wait out the timeout and fail the batch.
func TestTickAcknowledgesBeforeCheckpoint(t *testing.T) {
	const n = 4
	answered := make(chan struct{})
	store := &gateStore{MemStore: wal.NewMemStore(), gate: answered}
	cfg := memConfig(testOptions())
	cfg.Store = store
	cfg.CheckpointEvery = n
	s, ts := newTestServer(t, cfg, ServerConfig{})

	specs := []*JobSpec{cpuSpec(0), cpuSpec(1), cpuSpec(2), cpuSpec(3)}
	replies, err := serveSubmits(t, s, ts.URL, time.Minute, specs, answered)
	if err != nil {
		t.Fatalf("Tick: %v", err)
	}
	for i, r := range replies {
		if r.code != http.StatusOK {
			t.Fatalf("client %d: %d %s, want 200", i, r.code, r.body)
		}
	}
	data, err := store.Latest()
	if err != nil || data == nil {
		t.Fatalf("no checkpoint saved after the crossing batch (err %v)", err)
	}
	if got := s.machine.Applied(); got != n {
		t.Fatalf("applied %d, want %d", got, n)
	}
}

// seqStore records the applied count of every checkpoint saved.
type seqStore struct {
	*wal.MemStore
	seqs []uint64
}

func (s *seqStore) Save(data []byte, seq uint64) error {
	s.seqs = append(s.seqs, seq)
	return s.MemStore.Save(data, seq)
}

// tickBatch queues reqs directly and runs one Tick.
func tickBatch(t *testing.T, s *Server, at time.Duration, reqs []Request) {
	t.Helper()
	for _, req := range reqs {
		s.queue <- pending{req: req, reply: make(chan outcome, 1)}
	}
	if err := s.Tick(at); err != nil {
		t.Fatalf("Tick at %v: %v", at, err)
	}
}

// TestCheckpointPlacement: a checkpoint is taken at the end of each batch
// that reaches or crosses a multiple of CheckpointEvery, at the count the
// batch ended on, and never twice for one batch.
func TestCheckpointPlacement(t *testing.T) {
	cases := []struct {
		name  string
		sizes []int
		want  []uint64
	}{
		{"batches of 3", []int{3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3}, []uint64{9, 18, 24, 33}},
		{"one batch of 20", []int{20}, []uint64{20}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			store := &seqStore{MemStore: wal.NewMemStore()}
			cfg := memConfig(testOptions())
			cfg.Store = store
			cfg.CheckpointEvery = 8
			m, err := NewMachine(cfg)
			if err != nil {
				t.Fatal(err)
			}
			s := NewServer(m, ServerConfig{})
			for b, size := range tc.sizes {
				reqs := make([]Request, size)
				for i := range reqs {
					reqs[i] = Request{Op: OpCancel, JobID: 99}
				}
				tickBatch(t, s, time.Duration(b)*time.Minute, reqs)
			}
			if !reflect.DeepEqual(store.seqs, tc.want) {
				t.Fatalf("checkpoints at %v, want %v", store.seqs, tc.want)
			}
		})
	}

	// Apply is a batch of one: it checkpoints at each multiple.
	store := &seqStore{MemStore: wal.NewMemStore()}
	cfg := memConfig(testOptions())
	cfg.Store = store
	cfg.CheckpointEvery = 3
	m, err := NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 7; i++ {
		if _, err := apply(m, 0, Request{Op: OpCancel, JobID: 99}); err != nil {
			t.Fatal(err)
		}
	}
	if want := []uint64{3, 6}; !reflect.DeepEqual(store.seqs, want) {
		t.Fatalf("apply checkpoints at %v, want %v", store.seqs, want)
	}
}

// TestCheckpointOnlyObserves: a machine that checkpoints after every batch
// and one that never does serve the same script to byte-identical dumps.
func TestCheckpointOnlyObserves(t *testing.T) {
	opts := testOptions()
	script, err := ScriptFromJobs(testTrace(24), time.Minute, 3, RequestChaos{}, 4)
	if err != nil {
		t.Fatal(err)
	}
	batches := batchScript(script)
	horizon := batches[len(batches)-1].at + time.Hour
	var dumps []string
	for _, every := range []int{1, 0} {
		store := &seqStore{MemStore: wal.NewMemStore()}
		cfg := Config{Options: opts, NewScheduler: codaFactory(opts), Log: wal.NewMemLog(), Store: store, CheckpointEvery: every}
		m, err := NewMachine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range batches {
			before := m.Applied()
			if _, err := m.ApplyBatch(b.at, b.reqs); err != nil {
				t.Fatal(err)
			}
			if err := m.checkpointDue(before); err != nil {
				t.Fatal(err)
			}
		}
		if every == 1 && len(store.seqs) != len(batches) {
			t.Fatalf("CheckpointEvery 1 took %d checkpoints over %d batches", len(store.seqs), len(batches))
		}
		if every == 0 && len(store.seqs) != 0 {
			t.Fatalf("CheckpointEvery 0 took %d checkpoints", len(store.seqs))
		}
		dumps = append(dumps, finishDump(t, m, horizon))
	}
	if dumps[0] != dumps[1] {
		t.Fatalf("checkpointing every batch changed the run at %s", sim.FirstDiff(dumps[1], dumps[0]))
	}
}

// TestKillDrillDiesBeforeCheckpoint: with a checkpoint due after every
// batch, a kill after the checkpoint replays nothing, so any replay comes
// from the kills between a batch's acknowledgement and its checkpoint;
// recovery from the older checkpoint must still converge.
func TestKillDrillDiesBeforeCheckpoint(t *testing.T) {
	opts := testOptions()
	rep, err := RunKillDrill(opts, codaFactory(opts), testTrace(18), DrillConfig{
		Seed:            5,
		Kills:           4,
		CancelEvery:     4,
		Tick:            time.Minute,
		CheckpointEvery: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Diff != "" {
		t.Fatalf("killed run diverged at %s", rep.Diff)
	}
	if rep.Kills != 4 || rep.Replayed == 0 {
		t.Fatalf("kills=%d replayed=%d: no kill fell between an acknowledgement and its checkpoint", rep.Kills, rep.Replayed)
	}

	points := pickKillPoints(5, 4, 100)
	early := 0
	for _, beforeCheckpoint := range points {
		if beforeCheckpoint {
			early++
		}
	}
	if len(points) != 4 || early != 2 {
		t.Fatalf("kill points %v: %d of %d before the checkpoint, want half", points, early, len(points))
	}
}
