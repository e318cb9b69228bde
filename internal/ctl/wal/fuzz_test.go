package wal

import (
	"bytes"
	"encoding/binary"
	"testing"
	"time"
)

// FuzzWALDecode hammers the strict decoder with arbitrary bytes. The
// decoder must never panic or over-allocate, must reject any mutation of a
// valid log, and must round-trip whatever it accepts.
func FuzzWALDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add(EncodeRecord(1, 0, []byte(`{"op":"submit"}`)))
	two := append(EncodeRecord(1, 0, []byte("a")), EncodeRecord(2, time.Second, []byte("bb"))...)
	f.Add(two)
	f.Add(two[:len(two)-1])
	corrupt := append([]byte(nil), two...)
	corrupt[40] ^= 0xff
	f.Add(corrupt)
	f.Add([]byte(Magic))
	f.Add(bytes.Repeat([]byte{0xff}, 100))

	f.Fuzz(func(t *testing.T, data []byte) {
		recs, err := DecodeAll(data)
		if err != nil {
			return
		}
		// Accepted: re-encoding every record must reproduce the input
		// exactly (the format has no slack bytes).
		var out []byte
		for _, r := range recs {
			out = append(out, EncodeRecord(r.Seq, r.At, r.Payload)...)
		}
		if !bytes.Equal(out, data) {
			t.Fatalf("accepted log does not round-trip: %d bytes in, %d bytes re-encoded", len(data), len(out))
		}
	})
}

// FuzzClassifyTail checks the tail classifier against the strict decoder.
// Every image gets one of the three verdicts. A clean one decodes whole. A
// torn one does not, but the frames before its tail decode strictly, and
// the tail is a proper prefix of a frame that may follow them. Cutting an
// accepted log inside its last frame is always torn and keeps exactly the
// frames before it.
func FuzzClassifyTail(f *testing.F) {
	two := append(EncodeRecord(1, 0, []byte("a")), EncodeRecord(2, time.Second, []byte("bb"))...)
	f.Add([]byte{}, uint16(0))
	f.Add(two, uint16(3))
	f.Add(two[:len(two)-1], uint16(0))
	f.Add(two[:len(two)-40], uint16(7))
	f.Add(append(two, 'C', 'O'), uint16(1))
	f.Add(append(two, 0xde, 0xad), uint16(1))

	f.Fuzz(func(t *testing.T, data []byte, cut uint16) {
		tail := ClassifyTail(data)
		recs, err := DecodeAll(data)
		switch tail.Verdict {
		case Clean:
			if err != nil {
				t.Fatalf("clean image refused: %v", err)
			}
			if want := (Tail{Verdict: Clean, Records: len(recs), Offset: len(data)}); tail != want {
				t.Fatalf("clean image reported as %+v, want %+v", tail, want)
			}
		case Torn:
			if err == nil {
				t.Fatal("a torn image decodes whole")
			}
			if tail.Bytes <= 0 || tail.Offset+tail.Bytes != len(data) {
				t.Fatalf("torn tail %+v does not end the %d-byte image", tail, len(data))
			}
			prefix, err := DecodeAll(data[:tail.Offset])
			if err != nil || len(prefix) != tail.Records {
				t.Fatalf("prefix before the torn tail: %d records, %v; want %d strict", len(prefix), err, tail.Records)
			}
			if !startsWitness(data[:tail.Offset], data[tail.Offset:], prefix) {
				t.Fatalf("torn tail %x is not a proper prefix of a frame after %d records", data[tail.Offset:], len(prefix))
			}
		case Corrupt:
			if err == nil {
				t.Fatal("a corrupt image decodes whole")
			}
			if tail != (Tail{Verdict: Corrupt}) {
				t.Fatalf("corrupt image reported as %+v", tail)
			}
		default:
			t.Fatalf("verdict %d is none of the three", tail.Verdict)
		}

		if err != nil || len(recs) == 0 {
			return
		}
		last := recs[len(recs)-1]
		start := len(data) - headerSize - len(last.Payload)
		at := start + int(cut)%(len(data)-start)
		want := Tail{Verdict: Torn, Records: len(recs) - 1, Offset: start, Bytes: at - start}
		if at == start {
			want.Verdict = Clean
		}
		if got := ClassifyTail(data[:at]); got != want {
			t.Fatalf("accepted log cut at %d inside its last frame: %+v, want %+v", at, got, want)
		}
	})
}

// startsWitness reports whether tail is a proper prefix of a frame that
// DecodeAll accepts after prefix (decoded as recs). It completes the
// header fields tail lacks from the ideal next header — the next sequence
// number, the last timestamp, an empty payload — and asks DecodeAll
// whether a frame with those fields may follow: for each field, that
// completion is allowed exactly when some completion is. The announced
// payload must then lie past the end of tail.
func startsWitness(prefix, tail []byte, recs []Record) bool {
	var prevAt time.Duration
	if len(recs) > 0 {
		prevAt = recs[len(recs)-1].At
	}
	const fields = 36 // magic, version, sequence, timestamp and length
	hdr := EncodeRecord(uint64(len(recs)+1), prevAt, nil)[:fields]
	copy(hdr, tail[:min(len(tail), fields)])
	length := binary.BigEndian.Uint64(hdr[28:fields])
	if length > maxPayload || uint64(len(tail)) >= uint64(headerSize)+length {
		return false
	}
	frame := EncodeRecord(binary.BigEndian.Uint64(hdr[12:20]), time.Duration(int64(binary.BigEndian.Uint64(hdr[20:28]))), nil)
	copy(frame[:12], hdr[:12])
	_, err := DecodeAll(append(append([]byte(nil), prefix...), frame...))
	return err == nil
}
