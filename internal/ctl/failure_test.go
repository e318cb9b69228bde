package ctl

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"syscall"
	"testing"
	"time"

	"github.com/coda-repro/coda/internal/ctl/wal"
	"github.com/coda-repro/coda/internal/sim"
)

// errNoSpace is the failure the wrappers below inject: a full disk.
var errNoSpace = fmt.Errorf("injected: %w", syscall.ENOSPC)

// failingLog is a MemLog whose Append fails, writing nothing, while fail
// is set.
type failingLog struct {
	*wal.MemLog
	fail bool
}

func (l *failingLog) Append(frames [][]byte) error {
	if l.fail {
		return fmt.Errorf("wal: append: %w", errNoSpace)
	}
	return l.MemLog.Append(frames)
}

// failingStore is a MemStore whose Save fails, storing nothing, while fail
// is set.
type failingStore struct {
	*wal.MemStore
	fail bool
}

func (s *failingStore) Save(data []byte, seq uint64) error {
	if s.fail {
		return fmt.Errorf("wal: save checkpoint: %w", errNoSpace)
	}
	return s.MemStore.Save(data, seq)
}

// failureConfig is memConfig over the failing wrappers.
func failureConfig(log *failingLog, store *failingStore) Config {
	cfg := memConfig(testOptions())
	cfg.Log, cfg.Store = log, store
	cfg.CheckpointEvery = 4
	return cfg
}

// requirePoisoned checks that a poisoned server answers a new submit and
// /healthz with 503 naming the injected error.
func requirePoisoned(t *testing.T, base string) {
	t.Helper()
	want := syscall.ENOSPC.Error()
	resp, err := http.Post(base+"/v1/jobs", "application/json", strings.NewReader(`{"kind":"cpu","tenant":1,"cpuCores":1,"workSeconds":60}`))
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || !strings.Contains(string(data), want) {
		t.Fatalf("submit to a poisoned server: %d %s, want 503 naming %q", resp.StatusCode, data, want)
	}
	resp, err = http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health struct {
		Status string `json:"status"`
		Err    string `json:"error"`
	}
	err = json.NewDecoder(resp.Body).Decode(&health)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusServiceUnavailable || health.Status != "failed" || !strings.Contains(health.Err, want) {
		t.Fatalf("healthz of a poisoned server: %d %+v (%v), want 503 failed naming %q", resp.StatusCode, health, err, want)
	}
}

// referenceDump applies batches to a machine on healthy stores, one batch
// per minute from the first, and dumps it at horizon.
func referenceDump(t *testing.T, batches [][]Request, horizon time.Duration) string {
	t.Helper()
	m, err := NewMachine(memConfig(testOptions()))
	if err != nil {
		t.Fatal(err)
	}
	for b, reqs := range batches {
		if _, err := m.ApplyBatch(time.Duration(b+1)*time.Minute, reqs); err != nil {
			t.Fatal(err)
		}
	}
	return finishDump(t, m, horizon)
}

// finishDump advances m to horizon, finishes it and dumps the result.
func finishDump(t *testing.T, m *Machine, horizon time.Duration) string {
	t.Helper()
	if err := m.AdvanceTo(horizon); err != nil {
		t.Fatal(err)
	}
	res, err := m.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return sim.DumpResult(res)
}

// TestTickSaveFailure: a due checkpoint whose Save fails leaves its batch
// acknowledged — every request 200 with its response, all of it in the
// WAL — and poisons the server after the replies. Recovery over the same
// log and store restores every acknowledged record.
func TestTickSaveFailure(t *testing.T) {
	log := &failingLog{MemLog: wal.NewMemLog()}
	store := &failingStore{MemStore: wal.NewMemStore(), fail: true}
	cfg := failureConfig(log, store)
	s, ts := newTestServer(t, cfg, ServerConfig{})

	batches := [][]*JobSpec{{cpuSpec(0), cpuSpec(1)}, {cpuSpec(2), cpuSpec(3), cpuSpec(4)}}
	if replies, err := serveSubmits(t, s, ts.URL, time.Minute, batches[0], nil); err != nil {
		t.Fatalf("first batch (no checkpoint due): Tick: %v, replies %v", err, replies)
	}
	replies, err := serveSubmits(t, s, ts.URL, 2*time.Minute, batches[1], nil)
	if !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("Tick of the crossing batch returned %v, want the injected ENOSPC", err)
	}
	for i, r := range replies {
		var resp Response
		if r.code != http.StatusOK || json.Unmarshal([]byte(r.body), &resp) != nil || resp.JobID != int64(3+i) {
			t.Fatalf("client %d of the crossing batch: %d %s, want 200 with job %d", i, r.code, r.body, 3+i)
		}
	}
	if data, _ := store.Latest(); data != nil {
		t.Fatal("the failed Save stored a checkpoint")
	}
	requirePoisoned(t, ts.URL)
	if err := s.Tick(3 * time.Minute); !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("Tick of a poisoned server returned %v, want the checkpoint error", err)
	}

	store.fail = false
	m, recovered, err := Resume(cfg)
	if err != nil || !recovered {
		t.Fatalf("Resume: recovered=%v err=%v", recovered, err)
	}
	if m.Applied() != 5 {
		t.Fatalf("recovered %d records, want all 5 acknowledged", m.Applied())
	}
	horizon := 2 * time.Hour
	want := referenceDump(t, [][]Request{submits(batches[0]...), submits(batches[1]...)}, horizon)
	if got := finishDump(t, m, horizon); got != want {
		t.Fatalf("recovered machine diverged at %s", sim.FirstDiff(want, got))
	}
}

// TestTickAppendFailure: a WAL append that fails answers its whole batch
// 503 naming the error, applies nothing and poisons the server; recovery
// restores only what the log holds.
func TestTickAppendFailure(t *testing.T) {
	log := &failingLog{MemLog: wal.NewMemLog()}
	store := &failingStore{MemStore: wal.NewMemStore()}
	cfg := failureConfig(log, store)
	s, ts := newTestServer(t, cfg, ServerConfig{})

	first := []*JobSpec{cpuSpec(0), cpuSpec(1)}
	if replies, err := serveSubmits(t, s, ts.URL, time.Minute, first, nil); err != nil {
		t.Fatalf("first batch: Tick: %v, replies %v", err, replies)
	}
	log.fail = true
	replies, err := serveSubmits(t, s, ts.URL, 2*time.Minute, []*JobSpec{cpuSpec(2), cpuSpec(3)}, nil)
	if !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("Tick returned %v, want the injected ENOSPC", err)
	}
	for i, r := range replies {
		if r.code != http.StatusServiceUnavailable || !strings.Contains(r.body, syscall.ENOSPC.Error()) {
			t.Fatalf("client %d of the failed batch: %d %s, want 503 naming the error", i, r.code, r.body)
		}
	}
	if got := s.machine.Applied(); got != 2 {
		t.Fatalf("applied %d after the failed append, want 2", got)
	}
	requirePoisoned(t, ts.URL)

	log.fail = false
	m, recovered, err := Resume(cfg)
	if err != nil || !recovered {
		t.Fatalf("Resume: recovered=%v err=%v", recovered, err)
	}
	if m.Applied() != 2 {
		t.Fatalf("recovered %d records, want the 2 the log holds", m.Applied())
	}
	horizon := 2 * time.Hour
	want := referenceDump(t, [][]Request{submits(first...)}, horizon)
	if got := finishDump(t, m, horizon); got != want {
		t.Fatalf("recovered machine diverged at %s", sim.FirstDiff(want, got))
	}
}
