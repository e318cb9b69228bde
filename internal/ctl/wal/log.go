package wal

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"github.com/coda-repro/coda/internal/checkpoint/atomicio"
)

// Log is an append-only durable byte log of framed records. Append takes a
// whole admission batch and performs exactly one durability sync for it —
// the amortization that keeps batch admission cheap — and must not return
// until the batch is durable. Bytes returns the complete log image for
// replay.
type Log interface {
	// Append durably appends the frames as one batch: one sync covers them
	// all. An empty batch is a no-op and performs no sync.
	Append(frames [][]byte) error
	// Bytes returns the full log contents for replay.
	Bytes() ([]byte, error)
	// Syncs reports how many durability syncs the log has performed.
	Syncs() int
}

// MemLog is the pure in-memory Log used by drills and tests: "durability"
// is just the buffer, but sync accounting matches FileLog exactly so
// counter cross-checks hold in both.
type MemLog struct {
	buf   []byte
	syncs int
}

// NewMemLog returns an empty in-memory log.
func NewMemLog() *MemLog { return &MemLog{} }

// Append implements Log.
func (l *MemLog) Append(frames [][]byte) error {
	if len(frames) == 0 {
		return nil
	}
	for _, f := range frames {
		l.buf = append(l.buf, f...)
	}
	l.syncs++
	return nil
}

// Bytes implements Log; the returned slice is a copy.
func (l *MemLog) Bytes() ([]byte, error) { return append([]byte(nil), l.buf...), nil }

// Syncs implements Log.
func (l *MemLog) Syncs() int { return l.syncs }

// FileLog is the production Log: an O_APPEND file fsync'd once per batch.
type FileLog struct {
	f     *os.File
	path  string
	syncs int
	cut   Tail
}

// OpenFileLog opens (creating if absent) the log file at path for
// appending. A torn final frame — an append that a crash cut short before
// its fsync, so no client was acknowledged for it — is truncated away and
// the file fsynced, but only when the frames before it decode strictly
// (ClassifyTail); TornTail reports the cut. A clean or corrupt log is left
// as it is, for recovery to accept or refuse. A new or empty file costs
// one fstat more than opening it.
func OpenFileLog(path string) (*FileLog, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: open log: %w", err)
	}
	l := &FileLog{f: f, path: path}
	if err := l.repairTail(); err != nil {
		_ = f.Close()
		return nil, err
	}
	return l, nil
}

// repairTail truncates a torn final frame off the open log.
func (l *FileLog) repairTail() error {
	st, err := l.f.Stat()
	if err != nil {
		return fmt.Errorf("wal: stat log: %w", err)
	}
	if st.Size() == 0 {
		return nil
	}
	data := make([]byte, st.Size())
	if _, err := l.f.ReadAt(data, 0); err != nil {
		return fmt.Errorf("wal: read log: %w", err)
	}
	tail := ClassifyTail(data)
	if tail.Verdict != Torn {
		return nil
	}
	if err := l.f.Truncate(int64(tail.Offset)); err != nil {
		return fmt.Errorf("wal: cut torn tail: %w", err)
	}
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("wal: sync after cut: %w", err)
	}
	l.cut = tail
	return nil
}

// TornTail reports the torn final frame OpenFileLog cut off, if it cut
// one: the frame would have been record Records+1, began at Offset and
// had Bytes bytes on disk.
func (l *FileLog) TornTail() (Tail, bool) { return l.cut, l.cut.Verdict == Torn }

// Append implements Log: all frames are written, then one fsync makes the
// batch durable before any client is acknowledged.
func (l *FileLog) Append(frames [][]byte) error {
	if len(frames) == 0 {
		return nil
	}
	for _, fr := range frames {
		if _, err := l.f.Write(fr); err != nil {
			return fmt.Errorf("wal: append: %w", err)
		}
	}
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("wal: sync: %w", err)
	}
	l.syncs++
	return nil
}

// Bytes implements Log by reading the file back.
func (l *FileLog) Bytes() ([]byte, error) {
	data, err := os.ReadFile(l.path)
	if err != nil {
		return nil, fmt.Errorf("wal: read log: %w", err)
	}
	return data, nil
}

// Syncs implements Log.
func (l *FileLog) Syncs() int { return l.syncs }

// Close closes the underlying file.
func (l *FileLog) Close() error { return l.f.Close() }

// CheckpointStore persists encoded machine checkpoints keyed by the number
// of WAL records applied when each was taken.
type CheckpointStore interface {
	// Save durably stores one encoded checkpoint taken after applying seq
	// records.
	Save(data []byte, seq uint64) error
	// Latest returns the newest stored checkpoint, or (nil, nil) when the
	// store is empty.
	Latest() ([]byte, error)
}

// MemStore is the in-memory CheckpointStore for drills and tests.
type MemStore struct {
	data []byte
	has  bool
}

// NewMemStore returns an empty in-memory store.
func NewMemStore() *MemStore { return &MemStore{} }

// Save implements CheckpointStore; the data is copied.
func (s *MemStore) Save(data []byte, _ uint64) error {
	s.data = append(s.data[:0], data...)
	s.has = true
	return nil
}

// Latest implements CheckpointStore; the returned slice is a copy.
func (s *MemStore) Latest() ([]byte, error) {
	if !s.has {
		return nil, nil
	}
	return append([]byte(nil), s.data...), nil
}

// ckptPrefix/ckptExt frame FileStore file names; the zero-padded sequence
// number makes lexicographic order equal apply order, so Latest needs no
// parsing and no wall clock.
const (
	ckptPrefix = "ckpt-"
	ckptExt    = ".ckpt"
)

// FileStore is the production CheckpointStore: one crash-atomically written
// file per checkpoint in a dedicated directory.
type FileStore struct {
	dir string
}

// NewFileStore creates (if needed) and opens a checkpoint directory.
func NewFileStore(dir string) (*FileStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: checkpoint dir: %w", err)
	}
	return &FileStore{dir: dir}, nil
}

// Save implements CheckpointStore via atomicio, so a crash mid-save leaves
// the previous checkpoint intact.
func (s *FileStore) Save(data []byte, seq uint64) error {
	name := fmt.Sprintf("%s%020d%s", ckptPrefix, seq, ckptExt)
	if err := atomicio.WriteFile(filepath.Join(s.dir, name), data, 0o644); err != nil {
		return fmt.Errorf("wal: save checkpoint: %w", err)
	}
	return nil
}

// Latest implements CheckpointStore: the lexicographically-largest
// well-formed file name wins.
func (s *FileStore) Latest() ([]byte, error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("wal: checkpoint dir: %w", err)
	}
	var names []string
	for _, e := range entries {
		name := e.Name()
		if e.Type().IsRegular() && len(name) == len(ckptPrefix)+20+len(ckptExt) &&
			strings.HasPrefix(name, ckptPrefix) && strings.HasSuffix(name, ckptExt) {
			names = append(names, name)
		}
	}
	if len(names) == 0 {
		return nil, nil
	}
	sort.Strings(names)
	data, err := os.ReadFile(filepath.Join(s.dir, names[len(names)-1]))
	if err != nil {
		return nil, fmt.Errorf("wal: read checkpoint: %w", err)
	}
	return data, nil
}
