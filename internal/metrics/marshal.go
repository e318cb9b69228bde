package metrics

import (
	"encoding/json"
	"fmt"
	"sort"
	"time"
)

// JSON marshaling for the metric containers with unexported state. These
// exist for checkpoint/restore: a resumed run must continue accumulating into
// byte-identical containers, so the encodings preserve raw sample order (a
// CDF is serialized unsorted exactly as accumulated, plus its sorted flag)
// rather than any normalized form.

type seriesJSON struct {
	Times  []time.Duration `json:"times"`
	Values []float64       `json:"values"`
}

// MarshalJSON implements json.Marshaler.
func (s *Series) MarshalJSON() ([]byte, error) {
	return json.Marshal(seriesJSON{Times: s.times, Values: s.values})
}

// UnmarshalJSON implements json.Unmarshaler.
func (s *Series) UnmarshalJSON(data []byte) error {
	var raw seriesJSON
	if err := json.Unmarshal(data, &raw); err != nil {
		return err
	}
	if len(raw.Times) != len(raw.Values) {
		return fmt.Errorf("metrics: series has %d times but %d values", len(raw.Times), len(raw.Values))
	}
	s.times = raw.Times
	s.values = raw.Values
	return nil
}

type cdfJSON struct {
	Samples []time.Duration `json:"samples"`
	Sorted  bool            `json:"sorted"`
	// Sketch mode: sparse non-empty buckets and the total count. Older
	// encodings also carry a "sumNs" nanosecond sum; decoding ignores it.
	Sketch  bool             `json:"sketch,omitempty"`
	Buckets []sketchEntryRaw `json:"buckets,omitempty"`
	Count   int64            `json:"count,omitempty"`
}

type sketchEntryRaw struct {
	Idx int   `json:"i"`
	N   int64 `json:"n"`
}

// MarshalJSON implements json.Marshaler. Samples are emitted in their current
// in-memory order — sorting here would mutate state mid-checkpoint and break
// the resumed run's byte-identity with the uninterrupted one. Sketches emit
// only their non-empty buckets, in ascending index order.
func (c *CDF) MarshalJSON() ([]byte, error) {
	raw := cdfJSON{Samples: c.samples, Sorted: c.sorted}
	if c.sketch {
		raw.Sketch = true
		raw.Count = c.count
		for i, n := range c.buckets {
			if n != 0 {
				raw.Buckets = append(raw.Buckets, sketchEntryRaw{Idx: i, N: n})
			}
		}
	}
	return json.Marshal(raw)
}

// UnmarshalJSON implements json.Unmarshaler.
func (c *CDF) UnmarshalJSON(data []byte) error {
	var raw cdfJSON
	if err := json.Unmarshal(data, &raw); err != nil {
		return err
	}
	c.samples = raw.Samples
	c.sorted = raw.Sorted
	c.sketch = raw.Sketch
	c.buckets = nil
	c.count = 0
	if !raw.Sketch {
		if len(raw.Buckets) != 0 || raw.Count != 0 {
			return fmt.Errorf("metrics: cdf carries sketch state without the sketch flag")
		}
		return nil
	}
	if len(raw.Samples) != 0 {
		return fmt.Errorf("metrics: sketch cdf carries %d raw samples", len(raw.Samples))
	}
	var total int64
	prev := -1
	for _, e := range raw.Buckets {
		if e.Idx <= prev {
			return fmt.Errorf("metrics: sketch bucket indexes not strictly ascending (%d after %d)", e.Idx, prev)
		}
		if e.Idx >= sketchMaxBuckets || e.N <= 0 {
			return fmt.Errorf("metrics: sketch bucket %d count %d out of range", e.Idx, e.N)
		}
		prev = e.Idx
		total += e.N
	}
	if total != raw.Count {
		return fmt.Errorf("metrics: sketch count %d does not match bucket sum %d", raw.Count, total)
	}
	if prev >= 0 {
		c.buckets = make([]int64, prev+1)
		for _, e := range raw.Buckets {
			c.buckets[e.Idx] = e.N
		}
	}
	c.count = raw.Count
	return nil
}

type perKeyEntry struct {
	Key int  `json:"key"`
	CDF *CDF `json:"cdf"`
}

type perKeyJSON struct {
	// Sketch records the collection-level default for keys created after
	// restore; without it a checkpoint taken before the first sample would
	// resume into exact mode and diverge from the uninterrupted run.
	Sketch  bool          `json:"sketch,omitempty"`
	Entries []perKeyEntry `json:"entries"`
}

// MarshalJSON implements json.Marshaler, emitting entries in ascending key
// order for deterministic output.
func (p *PerKeyCDF) MarshalJSON() ([]byte, error) {
	entries := make([]perKeyEntry, 0, len(p.cdfs))
	for _, k := range p.Keys() {
		entries = append(entries, perKeyEntry{Key: k, CDF: p.cdfs[k]})
	}
	return json.Marshal(perKeyJSON{Sketch: p.sketch, Entries: entries})
}

// UnmarshalJSON implements json.Unmarshaler.
func (p *PerKeyCDF) UnmarshalJSON(data []byte) error {
	var raw perKeyJSON
	if err := json.Unmarshal(data, &raw); err != nil {
		return err
	}
	entries := raw.Entries
	p.sketch = raw.Sketch
	p.cdfs = make(map[int]*CDF, len(entries))
	for _, e := range entries {
		if e.CDF == nil {
			return fmt.Errorf("metrics: per-key cdf entry %d has no cdf", e.Key)
		}
		if _, dup := p.cdfs[e.Key]; dup {
			return fmt.Errorf("metrics: duplicate per-key cdf key %d", e.Key)
		}
		p.cdfs[e.Key] = e.CDF
	}
	// Keys must arrive sorted: it catches hand-edited or corrupted payloads
	// that survived the checksum (e.g. regenerated by a buggy tool).
	if !sort.SliceIsSorted(entries, func(i, j int) bool { return entries[i].Key < entries[j].Key }) {
		return fmt.Errorf("metrics: per-key cdf keys not in ascending order")
	}
	return nil
}
