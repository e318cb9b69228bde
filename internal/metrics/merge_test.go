package metrics

import (
	"testing"
	"time"
)

func TestCDFMerge(t *testing.T) {
	var a, b CDF
	a.Add(time.Second)
	a.Add(3 * time.Second)
	b.Add(2 * time.Second)
	a.Merge(&b)
	if a.Len() != 3 {
		t.Fatalf("merged len = %d, want 3", a.Len())
	}
	if got := a.Percentile(50); got != 2*time.Second {
		t.Errorf("median after merge = %v, want 2s", got)
	}
	// Merging nil and empty is a no-op; the source is unchanged.
	a.Merge(nil)
	a.Merge(&CDF{})
	if a.Len() != 3 || b.Len() != 1 {
		t.Errorf("no-op merges changed lengths: a=%d b=%d", a.Len(), b.Len())
	}
}

func TestPerKeyCDFMerge(t *testing.T) {
	p, q := NewPerKeyCDF(), NewPerKeyCDF()
	p.Add(1, time.Second)
	q.Add(1, 3*time.Second)
	q.Add(2, time.Minute)
	p.Merge(q)
	if keys := p.Keys(); len(keys) != 2 || keys[0] != 1 || keys[1] != 2 {
		t.Fatalf("merged keys = %v, want [1 2]", keys)
	}
	if got := p.Get(1).Len(); got != 2 {
		t.Errorf("key 1 has %d samples, want 2", got)
	}
	if got := p.Percentile(2, 99); got != time.Minute {
		t.Errorf("key 2 p99 = %v, want 1m", got)
	}
	p.Merge(nil) // no-op
}
