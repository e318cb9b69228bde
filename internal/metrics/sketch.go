package metrics

import (
	"math/bits"
	"time"
)

// Log-bucketed CDF sketch: the O(1)-memory alternative to the raw-sample
// CDF for runs whose job count makes per-sample storage O(jobs). Durations
// hash to one of ~500 fixed buckets — exact below 16ns, then 8 sub-buckets
// per power of two — so any stored value is at most 12.5% below the true
// one (a bucket's representative is its lower bound). That resolution is
// far finer than the paper's queueing-time comparisons need, and the bucket
// function is pure arithmetic: same samples, same sketch, bit for bit.

const (
	// sketchSubBits sub-divides each octave into 2^sketchSubBits buckets.
	sketchSubBits = 3
	sketchSub     = 1 << sketchSubBits
	// sketchMaxBuckets bounds the index space: positive durations occupy
	// exponents up to 62, each contributing sketchSub buckets past the
	// 2*sketchSub exact ones.
	sketchMaxBuckets = 2*sketchSub + (62-sketchSubBits)*sketchSub
)

// sketchBucket maps a duration to its bucket index. Non-positive durations
// share bucket 0; values below 2*sketchSub ns are exact.
func sketchBucket(d time.Duration) int {
	if d <= 0 {
		return 0
	}
	v := uint64(d)
	exp := bits.Len64(v) - 1
	if exp <= sketchSubBits {
		return int(v)
	}
	sub := int((v >> uint(exp-sketchSubBits)) & (sketchSub - 1))
	return 2*sketchSub + (exp-sketchSubBits-1)*sketchSub + sub
}

// sketchValue returns the bucket's representative duration: its lower
// bound, so sketched statistics never overstate a queueing time.
func sketchValue(idx int) time.Duration {
	if idx < 2*sketchSub {
		return time.Duration(idx)
	}
	idx -= 2 * sketchSub
	exp := uint(idx/sketchSub + sketchSubBits + 1)
	sub := uint64(idx % sketchSub)
	return time.Duration(uint64(1)<<exp | sub<<(exp-sketchSubBits))
}

// UseSketch switches the CDF to sketch mode, folding any already-collected
// samples into buckets. Queries keep working (Percentile, FractionAtMost,
// Points) at bucket resolution; per-sample order is forgotten, so a
// sketched CDF is not byte-comparable to an exact one.
func (c *CDF) UseSketch() {
	if c.sketch {
		return
	}
	c.sketch = true
	for _, d := range c.samples {
		c.addSketch(d)
	}
	c.samples = nil
	c.sorted = false
}

func (c *CDF) addSketch(d time.Duration) {
	idx := sketchBucket(d)
	if idx >= len(c.buckets) {
		grown := make([]int64, idx+1)
		copy(grown, c.buckets)
		c.buckets = grown
	}
	c.buckets[idx]++
	c.count++
}

func (c *CDF) sketchFractionAtMost(d time.Duration) float64 {
	if c.count == 0 {
		return 0
	}
	hi := sketchBucket(d)
	var n int64
	for i, cnt := range c.buckets {
		if i > hi {
			break
		}
		n += cnt
	}
	return float64(n) / float64(c.count)
}

func (c *CDF) sketchPercentile(rank int64) time.Duration {
	var cum int64
	for i, cnt := range c.buckets {
		cum += cnt
		if cum >= rank {
			return sketchValue(i)
		}
	}
	if n := len(c.buckets); n > 0 {
		return sketchValue(n - 1)
	}
	return 0
}

func (c *CDF) sketchPoints() []CDFPoint {
	if c.count == 0 {
		return nil
	}
	var pts []CDFPoint
	var cum int64
	for i, cnt := range c.buckets {
		if cnt == 0 {
			continue
		}
		cum += cnt
		pts = append(pts, CDFPoint{Value: sketchValue(i), Fraction: float64(cum) / float64(c.count)})
	}
	return pts
}

// NewPerKeyCDFSketch builds a per-key collection whose CDFs are sketches
// from birth (see CDF.UseSketch).
func NewPerKeyCDFSketch() *PerKeyCDF {
	p := NewPerKeyCDF()
	p.sketch = true
	return p
}
