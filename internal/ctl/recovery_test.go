package ctl

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
	"time"

	"github.com/coda-repro/coda/internal/ctl/wal"
	"github.com/coda-repro/coda/internal/sim"
)

// TestResumeTornTail cuts the last batch's bytes at every offset, as a
// crash between FileLog.Append's writes and its fsync would, and requires
// each cut to reopen, resume and finish byte-identical to a machine that
// applied exactly the complete frames. It does so for a last batch of one
// record and of three. A defect before the tail is still refused, and the
// file is left as it was.
func TestResumeTornTail(t *testing.T) {
	opts := testOptions()
	specs := []*JobSpec{cpuSpec(0), cpuSpec(1), cpuSpec(2), cpuSpec(3), cpuSpec(4), cpuSpec(5), cpuSpec(6), cpuSpec(7)}
	early := [][]Request{submits(specs[0], specs[1]), {{Op: OpCancel, JobID: 1}, {Op: OpSubmit, Job: specs[2]}}, submits(specs[3])}
	horizon := time.Hour

	for _, lastSize := range []int{1, 3} {
		last := submits(specs[4 : 4+lastSize]...)
		// Serve the early batches with their checkpoints, then append the
		// last batch; its checkpoint would come after its fsync, so a torn
		// append never has one.
		log, store := wal.NewMemLog(), wal.NewMemStore()
		cfg := Config{Options: opts, NewScheduler: fifoFactory, Log: log, Store: store, CheckpointEvery: 2}
		m, err := NewMachine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for b, reqs := range early {
			before := m.Applied()
			if _, err := m.ApplyBatch(time.Duration(b+1)*time.Minute, reqs); err != nil {
				t.Fatal(err)
			}
			if err := m.checkpointDue(before); err != nil {
				t.Fatal(err)
			}
		}
		earlyRecords := int(m.Applied())
		start, _ := log.Bytes()
		if _, err := m.ApplyBatch(time.Duration(len(early)+1)*time.Minute, last); err != nil {
			t.Fatal(err)
		}
		image, _ := log.Bytes()

		// want[k] is the dump of a machine that applied the early batches
		// and the first k records of the last one.
		want := make([]string, lastSize+1)
		for k := range want {
			ref, err := NewMachine(Config{Options: opts, NewScheduler: fifoFactory, Log: wal.NewMemLog(), Store: wal.NewMemStore()})
			if err != nil {
				t.Fatal(err)
			}
			for b, reqs := range append(append([][]Request(nil), early...), last[:k]) {
				if len(reqs) > 0 {
					if _, err := ref.ApplyBatch(time.Duration(b+1)*time.Minute, reqs); err != nil {
						t.Fatal(err)
					}
				}
			}
			want[k] = finishDump(t, ref, horizon)
		}

		path := filepath.Join(t.TempDir(), "requests.wal")
		for cut := len(start); cut < len(image); cut++ {
			if err := os.WriteFile(path, image[:cut], 0o644); err != nil {
				t.Fatal(err)
			}
			flog, err := wal.OpenFileLog(path)
			if err != nil {
				t.Fatalf("last batch of %d, cut at %d: OpenFileLog: %v", lastSize, cut, err)
			}
			tail, torn := flog.TornTail()
			onBoundary := wal.ClassifyTail(image[:cut]).Verdict == wal.Clean
			if torn == onBoundary {
				t.Fatalf("last batch of %d, cut at %d: torn=%v on a frame boundary=%v", lastSize, cut, torn, onBoundary)
			}
			if torn && tail.Offset+tail.Bytes != cut {
				t.Fatalf("last batch of %d, cut at %d: cut %+v does not end at the cut", lastSize, cut, tail)
			}
			rcfg := cfg
			rcfg.Log = flog
			r, recovered, err := Resume(rcfg)
			if err != nil || !recovered {
				t.Fatalf("last batch of %d, cut at %d: Resume: recovered=%v err=%v", lastSize, cut, recovered, err)
			}
			k := int(r.Applied()) - earlyRecords
			if k < 0 || k > lastSize {
				t.Fatalf("last batch of %d, cut at %d: resumed %d records", lastSize, cut, r.Applied())
			}
			if got := finishDump(t, r, horizon); got != want[k] {
				t.Fatalf("last batch of %d, cut at %d: diverged from a machine with %d of its records at %s",
					lastSize, cut, k, sim.FirstDiff(want[k], got))
			}
			if err := flog.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}

	// A defect before the tail: the log is refused and left as it was.
	log := wal.NewMemLog()
	cfg := Config{Options: opts, NewScheduler: fifoFactory, Log: log, Store: wal.NewMemStore()}
	m, err := NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for b, reqs := range early {
		if _, err := m.ApplyBatch(time.Duration(b+1)*time.Minute, reqs); err != nil {
			t.Fatal(err)
		}
	}
	image, _ := log.Bytes()
	image = append([]byte(nil), image[:len(image)-7]...)
	image[80] ^= 0xff
	path := filepath.Join(t.TempDir(), "requests.wal")
	if err := os.WriteFile(path, image, 0o644); err != nil {
		t.Fatal(err)
	}
	flog, err := wal.OpenFileLog(path)
	if err != nil {
		t.Fatal(err)
	}
	defer flog.Close()
	if tail, torn := flog.TornTail(); torn {
		t.Fatalf("a log corrupt before its tail was cut: %+v", tail)
	}
	cfg.Log = flog
	if _, _, err := Resume(cfg); err == nil {
		t.Fatal("Resume accepted a log corrupt before its torn tail")
	}
	if got, _ := os.ReadFile(path); !bytes.Equal(got, image) {
		t.Fatal("the corrupt log's bytes changed")
	}
}

// The serve-legacy fixture is a coda-serve data directory written by the
// code before checkpoints moved behind the acknowledgement: CODA on
// testOptions' cluster with CheckpointEvery 8, 37 records in 10 batches
// sent through Server on FileLog and FileStore (submits, a cancel, a drain
// and its undrain). That code took its checkpoints mid-batch at exact
// multiples of 8, so the newest sits at 32 and the WAL runs 5 records past
// it.
const (
	legacyApplied  = 37
	legacyReplayed = 5
)

// TestResumeLegacyServeDataDir resumes the committed legacy data directory
// and requires it to finish byte-identical to a cold replay of its WAL.
func TestResumeLegacyServeDataDir(t *testing.T) {
	dir := t.TempDir()
	copyFixture(t, filepath.Join("testdata", "serve-legacy"), dir)
	opts := testOptions()
	log, err := wal.OpenFileLog(filepath.Join(dir, "requests.wal"))
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	if tail, torn := log.TornTail(); torn {
		t.Fatalf("the fixture's WAL was cut: %+v", tail)
	}
	store, err := wal.NewFileStore(filepath.Join(dir, "checkpoints"))
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Options: opts, NewScheduler: codaFactory(opts), Log: log, Store: store, CheckpointEvery: 8}
	m, recovered, err := Resume(cfg)
	if err != nil {
		t.Fatalf("Resume: %v", err)
	}
	if !recovered || m.Applied() != legacyApplied || m.Counters().ServeReplayed != legacyReplayed {
		t.Fatalf("recovered=%v applied=%d replayed=%d, want true/%d/%d",
			recovered, m.Applied(), m.Counters().ServeReplayed, legacyApplied, legacyReplayed)
	}

	cold := cfg
	cold.Store = wal.NewMemStore()
	c, _, err := Resume(cold)
	if err != nil {
		t.Fatalf("cold replay: %v", err)
	}
	if c.Counters().ServeReplayed != legacyApplied {
		t.Fatalf("cold replay re-applied %d records, want %d", c.Counters().ServeReplayed, legacyApplied)
	}
	horizon := 2 * time.Hour
	want := finishDump(t, c, horizon)
	if got := finishDump(t, m, horizon); got != want {
		t.Fatalf("legacy data dir diverged from its cold replay at %s", sim.FirstDiff(want, got))
	}
}

// copyFixture copies the data directory src (a WAL and a checkpoints
// directory of plain files) into dst, so a test may write to it.
func copyFixture(t *testing.T, src, dst string) {
	t.Helper()
	for _, sub := range []string{".", "checkpoints"} {
		entries, err := os.ReadDir(filepath.Join(src, sub))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Join(dst, sub), 0o755); err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if e.IsDir() {
				continue
			}
			data, err := os.ReadFile(filepath.Join(src, sub, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dst, sub, e.Name()), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
}
