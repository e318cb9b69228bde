package wal

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func encodeLog(t *testing.T, payloads ...string) []byte {
	t.Helper()
	var buf []byte
	for i, p := range payloads {
		buf = append(buf, EncodeRecord(uint64(i+1), time.Duration(i)*time.Second, []byte(p))...)
	}
	return buf
}

func TestRoundTrip(t *testing.T) {
	data := encodeLog(t, "alpha", "", "gamma")
	recs, err := DecodeAll(data)
	if err != nil {
		t.Fatalf("DecodeAll: %v", err)
	}
	if len(recs) != 3 {
		t.Fatalf("got %d records, want 3", len(recs))
	}
	for i, want := range []string{"alpha", "", "gamma"} {
		r := recs[i]
		if r.Seq != uint64(i+1) {
			t.Errorf("record %d: seq %d, want %d", i, r.Seq, i+1)
		}
		if r.At != time.Duration(i)*time.Second {
			t.Errorf("record %d: at %v, want %v", i, r.At, time.Duration(i)*time.Second)
		}
		if string(r.Payload) != want {
			t.Errorf("record %d: payload %q, want %q", i, r.Payload, want)
		}
	}
}

func TestDecodeEmpty(t *testing.T) {
	recs, err := DecodeAll(nil)
	if err != nil || len(recs) != 0 {
		t.Fatalf("DecodeAll(nil) = %v, %v; want empty, nil", recs, err)
	}
}

// TestDecodeRejections drives every loud-rejection path: corruption must
// never decode to a shorter-but-plausible log.
func TestDecodeRejections(t *testing.T) {
	base := encodeLog(t, "alpha", "beta")
	single := encodeLog(t, "alpha")

	cases := []struct {
		name    string
		mutate  func([]byte) []byte
		wantSub string
	}{
		{"short header", func(d []byte) []byte { return d[:20] }, "need 68 for the header"},
		{"bad magic", func(d []byte) []byte { d[0] ^= 0xff; return d }, "bad magic"},
		{"future version", func(d []byte) []byte {
			binary.BigEndian.PutUint32(d[8:], Version+1)
			return d
		}, "newer than supported"},
		{"payload corrupt", func(d []byte) []byte { d[len(d)-1] ^= 0xff; return d }, "checksum mismatch"},
		{"header field corrupt", func(d []byte) []byte {
			// Flip the timestamp: the checksum covers header fields too.
			d[21] ^= 0xff
			return d
		}, "checksum mismatch"},
		{"truncated payload", func(d []byte) []byte { return d[:len(d)-2] }, "truncated payload"},
		{"oversized length", func(d []byte) []byte {
			binary.BigEndian.PutUint64(d[28:], maxPayload+1)
			// Re-seal the checksum so the cap check is what fires.
			return reseal(d)
		}, "exceeds cap"},
		{"seq gap", func(d []byte) []byte {
			binary.BigEndian.PutUint64(d[12:], 7)
			return reseal(d)
		}, "want contiguous 1"},
		{"duplicate seq", func([]byte) []byte {
			// Two copies of record 1: the second repeats sequence 1.
			return append(append([]byte(nil), single...), single...)
		}, "want contiguous 2"},
		{"backwards time", func([]byte) []byte {
			a := EncodeRecord(1, 5*time.Second, []byte("a"))
			b := EncodeRecord(2, 2*time.Second, []byte("b"))
			return append(a, b...)
		}, "runs backwards"},
		{"negative time", func([]byte) []byte {
			return EncodeRecord(1, -time.Second, []byte("a"))
		}, "negative timestamp"},
		{"trailing garbage", func(d []byte) []byte { return append(d, 0xde, 0xad) }, "truncated"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			data := tc.mutate(append([]byte(nil), base...))
			_, err := DecodeAll(data)
			if err == nil {
				t.Fatalf("DecodeAll accepted a %s log", tc.name)
			}
			if !strings.Contains(err.Error(), tc.wantSub) {
				t.Fatalf("error %q does not mention %q", err, tc.wantSub)
			}
		})
	}
}

// reseal recomputes the first record's checksum after a header mutation so
// the test exercises the intended validation, not the checksum.
func reseal(d []byte) []byte {
	length := binary.BigEndian.Uint64(d[28:36])
	end := headerSize
	if length <= maxPayload && headerSize+int(length) <= len(d) {
		end = headerSize + int(length)
	}
	payload := d[headerSize:end]
	rec := EncodeRecord(binary.BigEndian.Uint64(d[12:20]),
		time.Duration(int64(binary.BigEndian.Uint64(d[20:28]))), payload)
	copy(d[36:36+32], rec[36:36+32])
	return d
}

func TestLogsAgree(t *testing.T) {
	mem := NewMemLog()
	file, err := OpenFileLog(filepath.Join(t.TempDir(), "requests.wal"))
	if err != nil {
		t.Fatalf("OpenFileLog: %v", err)
	}
	defer file.Close()

	batches := [][][]byte{
		{EncodeRecord(1, 0, []byte("a"))},
		{}, // empty batch: no-op, no sync
		{EncodeRecord(2, time.Second, []byte("b")), EncodeRecord(3, time.Second, []byte("c"))},
	}
	for _, batch := range batches {
		if err := mem.Append(batch); err != nil {
			t.Fatalf("MemLog.Append: %v", err)
		}
		if err := file.Append(batch); err != nil {
			t.Fatalf("FileLog.Append: %v", err)
		}
	}
	if mem.Syncs() != 2 || file.Syncs() != 2 {
		t.Errorf("syncs mem=%d file=%d, want 2 each (one per non-empty batch)", mem.Syncs(), file.Syncs())
	}
	mb, _ := mem.Bytes()
	fb, err := file.Bytes()
	if err != nil {
		t.Fatalf("FileLog.Bytes: %v", err)
	}
	if !bytes.Equal(mb, fb) {
		t.Fatalf("mem and file log images differ (%d vs %d bytes)", len(mb), len(fb))
	}
	recs, err := DecodeAll(fb)
	if err != nil || len(recs) != 3 {
		t.Fatalf("DecodeAll(file image) = %d records, %v; want 3, nil", len(recs), err)
	}
}

func TestStores(t *testing.T) {
	for _, tc := range []struct {
		name  string
		store CheckpointStore
	}{
		{"mem", NewMemStore()},
		{"file", mustFileStore(t)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if data, err := tc.store.Latest(); err != nil || data != nil {
				t.Fatalf("empty store Latest = %q, %v; want nil, nil", data, err)
			}
			if err := tc.store.Save([]byte("first"), 3); err != nil {
				t.Fatalf("Save: %v", err)
			}
			if err := tc.store.Save([]byte("second"), 10); err != nil {
				t.Fatalf("Save: %v", err)
			}
			data, err := tc.store.Latest()
			if err != nil {
				t.Fatalf("Latest: %v", err)
			}
			if string(data) != "second" {
				t.Fatalf("Latest = %q, want the highest-seq save", data)
			}
		})
	}
}

func mustFileStore(t *testing.T) *FileStore {
	t.Helper()
	s, err := NewFileStore(filepath.Join(t.TempDir(), "ckpts"))
	if err != nil {
		t.Fatalf("NewFileStore: %v", err)
	}
	return s
}

// TestClassifyTail cuts a two-record log at every offset and checks the
// verdict, then drives each way a tail can fail to be a torn frame.
func TestClassifyTail(t *testing.T) {
	first := EncodeRecord(1, time.Second, []byte("alpha"))
	second := EncodeRecord(2, 2*time.Second, []byte(`{"op":"cancel","jobId":7}`))
	data := append(append([]byte(nil), first...), second...)

	if got := ClassifyTail(nil); got != (Tail{Verdict: Clean}) {
		t.Fatalf("empty log: %+v, want clean", got)
	}
	if got, want := ClassifyTail(data), (Tail{Verdict: Clean, Records: 2, Offset: len(data)}); got != want {
		t.Fatalf("whole log: %+v, want %+v", got, want)
	}
	for cut := len(first) + 1; cut < len(data); cut++ {
		want := Tail{Verdict: Torn, Records: 1, Offset: len(first), Bytes: cut - len(first)}
		if got := ClassifyTail(data[:cut]); got != want {
			t.Fatalf("cut at %d: %+v, want %+v", cut, got, want)
		}
	}
	for cut := 1; cut < len(first); cut++ {
		want := Tail{Verdict: Torn, Offset: 0, Bytes: cut}
		if got := ClassifyTail(data[:cut]); got != want {
			t.Fatalf("cut at %d: %+v, want %+v", cut, got, want)
		}
	}

	torn := data[:len(data)-3]
	rewrite := func(off int, b ...byte) []byte {
		d := append([]byte(nil), torn...)
		copy(d[len(first)+off:], b)
		return d
	}
	corrupt := []struct {
		name string
		data []byte
	}{
		{"checksum before the tail", func() []byte { d := append([]byte(nil), torn...); d[headerSize] ^= 0xff; return d }()},
		{"trailing garbage", append(append([]byte(nil), data...), 0xde, 0xad)},
		{"partial magic", append(append([]byte(nil), data...), 'C', 'O', 'X')},
		{"future version", rewrite(11, byte(Version+1))},
		{"partial version", rewrite(8, 0xff)[:len(first)+9]},
		{"sequence gap", rewrite(19, 3)},
		{"partial sequence", rewrite(12, 0x01)[:len(first)+13]},
		{"timestamp backwards", rewrite(20, 0, 0, 0, 0, 0, 0, 0, 0)},
		{"negative timestamp", rewrite(20, 0x80)[:len(first)+21]},
		{"length over the cap", rewrite(28, 0, 0, 0, 0, 0x40, 0, 0, 1)},
		{"duplicate first record", append(append([]byte(nil), first...), first[:len(first)-1]...)},
	}
	for _, tc := range corrupt {
		if got := ClassifyTail(tc.data); got != (Tail{Verdict: Corrupt}) {
			t.Errorf("%s: %+v, want corrupt", tc.name, got)
		}
		if _, err := DecodeAll(tc.data); err == nil {
			t.Errorf("%s: DecodeAll accepted the image", tc.name)
		}
	}
}

// TestOpenFileLogCutsTornTail: reopening a log whose last append was cut
// short truncates that frame, reports the cut, and appends after it; a
// clean, corrupt or empty log is left byte for byte as it was.
func TestOpenFileLogCutsTornTail(t *testing.T) {
	first := EncodeRecord(1, 0, []byte("a"))
	second := EncodeRecord(2, time.Second, []byte("bb"))
	whole := append(append([]byte(nil), first...), second...)
	path := filepath.Join(t.TempDir(), "requests.wal")

	if err := os.WriteFile(path, whole[:len(whole)-5], 0o644); err != nil {
		t.Fatal(err)
	}
	log, err := OpenFileLog(path)
	if err != nil {
		t.Fatalf("OpenFileLog on a torn log: %v", err)
	}
	cut, ok := log.TornTail()
	if want := (Tail{Verdict: Torn, Records: 1, Offset: len(first), Bytes: len(second) - 5}); !ok || cut != want {
		t.Fatalf("TornTail = %+v, %v; want %+v", cut, ok, want)
	}
	if err := log.Append([][]byte{second}); err != nil {
		t.Fatalf("Append after the cut: %v", err)
	}
	if got, _ := log.Bytes(); !bytes.Equal(got, whole) {
		t.Fatalf("log after cut and append is %d bytes, want the %d of both records", len(got), len(whole))
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}

	badChecksum := append([]byte(nil), whole[:len(whole)-5]...)
	badChecksum[headerSize] ^= 0xff
	for name, image := range map[string][]byte{
		"clean":   whole,
		"corrupt": badChecksum,
		"empty":   {},
	} {
		if err := os.WriteFile(path, image, 0o644); err != nil {
			t.Fatal(err)
		}
		log, err := OpenFileLog(path)
		if err != nil {
			t.Fatalf("%s: OpenFileLog: %v", name, err)
		}
		if cut, ok := log.TornTail(); ok {
			t.Errorf("%s: OpenFileLog cut %+v", name, cut)
		}
		if got, _ := os.ReadFile(path); !bytes.Equal(got, image) {
			t.Errorf("%s: OpenFileLog changed the file", name)
		}
		_ = log.Close()
	}
}
