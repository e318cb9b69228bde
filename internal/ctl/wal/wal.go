// Package wal is the control plane's crash-consistent write-ahead request
// log. Every mutating API request becomes one framed record, appended and
// fsync'd before the client is acknowledged; recovery replays the suffix of
// records past the latest checkpoint. The framing is deliberately paranoid,
// in the style of internal/checkpoint: a fixed magic, a big-endian version,
// the record's sequence number and virtual timestamp, the payload length,
// and a SHA-256 checksum precede every payload, so a truncated, corrupted,
// reordered, or version-skewed log is rejected with a specific error
// instead of replaying poisoned state.
//
// Record layout (all integers big-endian):
//
//	offset  size  field
//	0       8     magic "CODAWAL1"
//	8       4     format version (currently 1)
//	12      8     sequence number (contiguous from 1)
//	20      8     virtual timestamp in nanoseconds
//	28      8     payload length in bytes
//	36      32    SHA-256 of bytes 12..36 followed by the payload
//	68      n     payload
package wal

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"time"
)

// Magic identifies a CODA WAL record.
const Magic = "CODAWAL1"

// Version is the current record format version. Decoders reject records
// stamped with a later version rather than guessing at their layout.
const Version uint32 = 1

const headerSize = len(Magic) + 4 + 8 + 8 + 8 + sha256.Size

// maxPayload bounds a single record's payload so a corrupted (or fuzzed)
// length field cannot demand a multi-gigabyte allocation.
const maxPayload = 1 << 30

// Record is one decoded WAL entry.
type Record struct {
	// Seq is the record's position in the log, contiguous from 1.
	Seq uint64
	// At is the virtual time the request was admitted at.
	At time.Duration
	// Payload is the serialized request.
	Payload []byte
}

// EncodeRecord frames one record. The checksum covers the sequence number,
// timestamp and length as well as the payload, so splicing records between
// logs is detected, not just payload corruption.
func EncodeRecord(seq uint64, at time.Duration, payload []byte) []byte {
	buf := make([]byte, headerSize+len(payload))
	copy(buf, Magic)
	binary.BigEndian.PutUint32(buf[8:], Version)
	binary.BigEndian.PutUint64(buf[12:], seq)
	binary.BigEndian.PutUint64(buf[20:], uint64(int64(at)))
	binary.BigEndian.PutUint64(buf[28:], uint64(len(payload)))
	h := sha256.New()
	h.Write(buf[12:36])
	h.Write(payload)
	h.Sum(buf[36:36])
	copy(buf[headerSize:], payload)
	return buf
}

// DecodeAll strictly decodes an entire log image. Any defect — short
// header, bad magic, future version, oversized or truncated payload,
// checksum mismatch, a sequence gap or duplicate, a negative or
// backwards-running timestamp — fails the whole decode with a specific
// error naming the offending record. A crashed process must refuse a log
// it cannot prove intact rather than resume from a guess.
func DecodeAll(data []byte) ([]Record, error) {
	var recs []Record
	n, off, _, err := scan(data, func(r Record) {
		r.Payload = append([]byte(nil), r.Payload...)
		recs = append(recs, r)
	})
	if err != nil {
		return nil, err
	}
	switch rest := data[off:]; {
	case len(rest) == 0:
		return recs, nil
	case len(rest) < headerSize:
		return nil, fmt.Errorf("wal: record %d truncated at offset %d: %d bytes left, need %d for the header",
			n+1, off, len(rest), headerSize)
	default:
		return nil, fmt.Errorf("wal: record %d: truncated payload: header says %d bytes, %d left",
			n+1, binary.BigEndian.Uint64(rest[28:36]), len(rest)-headerSize)
	}
}

// scan strictly decodes the complete frames at the head of data, handing
// each to visit (its payload aliases data), and stops at the first frame
// that runs past the end of data: one shorter than a header, or a whole
// header whose payload is cut short. It returns how many frames it
// decoded, the offset it stopped at and the last frame's timestamp. An
// error names the first frame that fails a strict check; the magic,
// version and length cap are checked as soon as a whole header is there.
func scan(data []byte, visit func(Record)) (n, off int, prevAt int64, err error) {
	for len(data)-off >= headerSize {
		rest := data[off:]
		k := n + 1
		if !bytes.Equal(rest[:8], []byte(Magic)) {
			return n, off, prevAt, fmt.Errorf("wal: bad magic %q at offset %d (not a CODA WAL record)", rest[:8], off)
		}
		version := binary.BigEndian.Uint32(rest[8:12])
		if version > Version {
			return n, off, prevAt, fmt.Errorf("wal: record %d: version %d is newer than supported version %d", k, version, Version)
		}
		seq := binary.BigEndian.Uint64(rest[12:20])
		at := int64(binary.BigEndian.Uint64(rest[20:28]))
		length := binary.BigEndian.Uint64(rest[28:36])
		if length > maxPayload {
			return n, off, prevAt, fmt.Errorf("wal: record %d: payload length %d exceeds cap %d", k, length, int64(maxPayload))
		}
		if uint64(len(rest)-headerSize) < length {
			break
		}
		payload := rest[headerSize : headerSize+int(length)]
		h := sha256.New()
		h.Write(rest[12:36])
		h.Write(payload)
		if !bytes.Equal(h.Sum(nil), rest[36:36+sha256.Size]) {
			return n, off, prevAt, fmt.Errorf("wal: record %d: checksum mismatch (log is corrupt)", k)
		}
		if seq != uint64(k) {
			return n, off, prevAt, fmt.Errorf("wal: record %d carries sequence %d, want contiguous %d", k, seq, k)
		}
		if at < 0 {
			return n, off, prevAt, fmt.Errorf("wal: record %d: negative timestamp %d", k, at)
		}
		if at < prevAt {
			return n, off, prevAt, fmt.Errorf("wal: record %d: timestamp %v runs backwards from %v (log reordered?)",
				k, time.Duration(at), time.Duration(prevAt))
		}
		if visit != nil {
			visit(Record{Seq: seq, At: time.Duration(at), Payload: payload})
		}
		n, off, prevAt = k, off+headerSize+int(length), at
	}
	return n, off, prevAt, nil
}

// Verdict classifies the bytes that follow a log image's last complete
// frame.
type Verdict int

const (
	// Clean: the image ends on a frame boundary and DecodeAll accepts it.
	Clean Verdict = iota
	// Torn: the complete frames decode strictly and the bytes after them
	// are a proper prefix of the frame that would come next — an append
	// cut short by a crash before its fsync, which no client was
	// acknowledged for.
	Torn
	// Corrupt: anything else. DecodeAll refuses the image.
	Corrupt
)

// Tail is ClassifyTail's finding. For a clean or torn image, Records and
// Offset locate the end of the complete frames and Bytes counts what
// follows them: what a repair cuts. A corrupt image reports only its
// verdict.
type Tail struct {
	Verdict Verdict
	Records int
	Offset  int
	Bytes   int
}

// ClassifyTail decides whether a log image is clean, torn or corrupt. It
// is torn when its complete frames decode strictly and the bytes after
// them are a proper prefix of a frame DecodeAll would accept as the next
// record: fewer bytes than a header, each field of which that is there,
// whole or in part, can still take an allowed value (the magic, a
// supported version, the next sequence number, a timestamp that does not
// run backwards, a length within the cap); or a whole header of that kind
// whose payload runs past the end. A crash between an append's writes and
// its fsync leaves such a tail; a defect anywhere before it is corrupt.
func ClassifyTail(data []byte) Tail {
	n, off, prevAt, err := scan(data, nil)
	if err != nil {
		return Tail{Verdict: Corrupt}
	}
	t := Tail{Records: n, Offset: off, Bytes: len(data) - off}
	switch {
	case t.Bytes == 0:
		t.Verdict = Clean
	case startsFrame(data[off:], uint64(n+1), prevAt):
		t.Verdict = Torn
	default:
		return Tail{Verdict: Corrupt}
	}
	return t
}

// startsFrame reports whether tail is a proper prefix of a frame DecodeAll
// would accept as record seq after one stamped prevAt. Each header field
// tail holds, whole or in part, must leave room for an allowed value: the
// big-endian bytes present bound the field to [lo, hi], which must meet
// the field's allowed range. The checksum and payload are unknowable
// until the frame is whole, so only their length is checked.
func startsFrame(tail []byte, seq uint64, prevAt int64) bool {
	if !bytes.HasPrefix([]byte(Magic), tail[:min(len(tail), len(Magic))]) {
		return false
	}
	for _, f := range [...]struct {
		off, width int
		lo, hi     uint64
	}{
		{8, 4, 0, uint64(Version)},
		{12, 8, seq, seq},
		{20, 8, uint64(prevAt), math.MaxInt64},
		{28, 8, 0, maxPayload},
	} {
		k := min(len(tail)-f.off, f.width)
		if k <= 0 {
			break
		}
		var v uint64
		for _, b := range tail[f.off : f.off+k] {
			v = v<<8 | uint64(b)
		}
		shift := 8 * uint(f.width-k)
		lo, hi := v<<shift, v<<shift|(1<<shift-1)
		if hi < f.lo || lo > f.hi {
			return false
		}
	}
	if len(tail) < headerSize {
		return true
	}
	return uint64(len(tail)-headerSize) < binary.BigEndian.Uint64(tail[28:36])
}
