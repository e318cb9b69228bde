package sim

import (
	"cmp"
	"slices"
	"testing"
	"time"
)

// eventKey is an event's heap key, the order the reference keeps.
type eventKey struct {
	at  time.Duration
	seq int64
}

func compareEventKeys(a, b eventKey) int {
	if c := cmp.Compare(a.at, b.at); c != 0 {
		return c
	}
	return cmp.Compare(a.seq, b.seq)
}

// FuzzEventHeap drives the typed event heap with a push/pop interleaving
// decoded from the input and checks every pop against a reference list
// kept sorted by (at, seq). Timestamps come from eight values so they
// collide often; sequence numbers come from the engine's counter (0 up)
// and from the negative range streamed arrivals use, so ties on at are
// broken on both sides of zero. The heap is drained at the end.
//
// Each byte is one operation: b >= 0xc0 pops (when anything is queued),
// anything else pushes an event at b%8, with an arrival's negative sequence
// number when bit 0x20 is set and the counter's next one otherwise.
func FuzzEventHeap(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 0xc0, 0xc0, 0xc0, 0xc0})
	f.Add([]byte{7, 0x27, 7, 0x27, 0x21, 1, 0xff, 3, 0x23, 0xc1, 0xc1, 2})
	f.Add([]byte{5, 4, 3, 2, 1, 0, 0x25, 0x24, 0x23, 0xc0, 6, 0x26, 0xc0, 0xc0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		var h eventHeap
		var ref []eventKey
		next, nextArrival := int64(0), int64(-1)<<20
		pop := func(op int) {
			e := h.pop()
			got, want := eventKey{e.at, e.seq}, ref[0]
			ref = ref[1:]
			if got != want {
				t.Fatalf("op %d: popped (at %v, seq %d), reference (at %v, seq %d)", op, got.at, got.seq, want.at, want.seq)
			}
		}
		for i, b := range ops {
			if b >= 0xc0 {
				if len(ref) > 0 {
					pop(i)
				}
				continue
			}
			k := eventKey{at: time.Duration(b % 8)}
			if b&0x20 != 0 {
				k.seq = nextArrival
				nextArrival++
			} else {
				k.seq = next
				next++
			}
			h.push(&event{at: k.at, seq: k.seq})
			j, _ := slices.BinarySearchFunc(ref, k, compareEventKeys)
			ref = slices.Insert(ref, j, k)
		}
		for len(ref) > 0 {
			pop(len(ops))
		}
		if len(h) != 0 {
			t.Fatalf("heap holds %d events after the reference drained", len(h))
		}
	})
}
