// Package metrics provides the measurement primitives every experiment in
// the paper reports on: time series of active/utilization rates (Figs. 1
// and 10), queueing-time CDFs (Fig. 11), per-user 99th-percentile queueing
// times (Fig. 12), and histograms of allocator core adjustments (Fig. 14).
package metrics

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// Series is a time-ordered sequence of (time, value) samples.
type Series struct {
	times  []time.Duration
	values []float64
}

// Add appends a sample. Samples must arrive in non-decreasing time order.
func (s *Series) Add(t time.Duration, v float64) error {
	if n := len(s.times); n > 0 && t < s.times[n-1] {
		return fmt.Errorf("metrics: sample at %v arrives after %v", t, s.times[n-1])
	}
	s.times = append(s.times, t)
	s.values = append(s.values, v)
	return nil
}

// Len returns the sample count.
func (s *Series) Len() int { return len(s.values) }

// Grow pre-allocates capacity for n additional samples so callers that
// know their sample budget up front never reallocate mid-run.
func (s *Series) Grow(n int) {
	if n <= 0 {
		return
	}
	if free := cap(s.times) - len(s.times); free < n {
		times := make([]time.Duration, len(s.times), len(s.times)+n)
		copy(times, s.times)
		s.times = times
	}
	if free := cap(s.values) - len(s.values); free < n {
		values := make([]float64, len(s.values), len(s.values)+n)
		copy(values, s.values)
		s.values = values
	}
}

// At returns the i-th sample.
func (s *Series) At(i int) (time.Duration, float64) { return s.times[i], s.values[i] }

// Mean returns the arithmetic mean of the values (0 for an empty series).
func (s *Series) Mean() float64 {
	if len(s.values) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range s.values {
		sum += v
	}
	return sum / float64(len(s.values))
}

// Values returns a copy of the values.
func (s *Series) Values() []float64 {
	return append([]float64(nil), s.values...)
}

// Times returns a copy of the sample times.
func (s *Series) Times() []time.Duration {
	return append([]time.Duration(nil), s.times...)
}

// Downsample returns a series with one mean-aggregated sample per bucket of
// width. Used to turn fine-grained simulation samples into the hourly
// points Figs. 1 and 10 plot.
func (s *Series) Downsample(width time.Duration) (*Series, error) {
	if width <= 0 {
		return nil, fmt.Errorf("metrics: downsample width must be positive, got %v", width)
	}
	out := &Series{}
	if len(s.times) == 0 {
		return out, nil
	}
	bucketStart := s.times[0] - s.times[0]%width
	sum, count := 0.0, 0
	flush := func() {
		if count > 0 {
			out.times = append(out.times, bucketStart)
			out.values = append(out.values, sum/float64(count))
		}
	}
	for i, t := range s.times {
		for t >= bucketStart+width {
			flush()
			bucketStart += width
			sum, count = 0, 0
		}
		sum += s.values[i]
		count++
	}
	flush()
	return out, nil
}

// CDF accumulates duration samples and answers distribution queries. It has
// two storage modes: exact (every sample retained, the default) and sketch
// (log-bucketed counts, O(1) memory in the sample count — see UseSketch).
type CDF struct {
	samples []time.Duration
	sorted  bool
	// Sketch mode (see sketch.go): fixed log-spaced buckets plus count.
	sketch  bool
	buckets []int64
	count   int64
}

// Add appends a sample.
func (c *CDF) Add(d time.Duration) {
	if c.sketch {
		c.addSketch(d)
		return
	}
	c.samples = append(c.samples, d)
	c.sorted = false
}

// Len returns the sample count.
func (c *CDF) Len() int {
	if c.sketch {
		return int(c.count)
	}
	return len(c.samples)
}

// Grow pre-allocates capacity for n additional samples (see Series.Grow).
// Sketch-mode CDFs have fixed storage and ignore it.
func (c *CDF) Grow(n int) {
	if n <= 0 || c.sketch {
		return
	}
	if free := cap(c.samples) - len(c.samples); free < n {
		samples := make([]time.Duration, len(c.samples), len(c.samples)+n)
		copy(samples, c.samples)
		c.samples = samples
	}
}

func (c *CDF) ensureSorted() {
	if !c.sorted {
		sort.Slice(c.samples, func(i, j int) bool { return c.samples[i] < c.samples[j] })
		c.sorted = true
	}
}

// FractionAtMost returns the fraction of samples <= d, in [0, 1]. In
// sketch mode d is resolved at bucket granularity.
func (c *CDF) FractionAtMost(d time.Duration) float64 {
	if c.sketch {
		return c.sketchFractionAtMost(d)
	}
	if len(c.samples) == 0 {
		return 0
	}
	c.ensureSorted()
	idx := sort.Search(len(c.samples), func(i int) bool { return c.samples[i] > d })
	return float64(idx) / float64(len(c.samples))
}

// FractionAbove returns the fraction of samples > d.
func (c *CDF) FractionAbove(d time.Duration) float64 {
	if c.Len() == 0 {
		return 0
	}
	return 1 - c.FractionAtMost(d)
}

// Percentile returns the p-th percentile (p in [0, 100]) using the
// nearest-rank method; 0 for an empty CDF. In sketch mode the answer is the
// containing bucket's lower bound (at most 12.5% below the exact value).
func (c *CDF) Percentile(p float64) time.Duration {
	if c.Len() == 0 {
		return 0
	}
	if p < 0 {
		p = 0
	}
	if p > 100 {
		p = 100
	}
	if c.sketch {
		rank := int64(math.Ceil(p / 100 * float64(c.count)))
		if rank < 1 {
			rank = 1
		}
		return c.sketchPercentile(rank)
	}
	c.ensureSorted()
	rank := int(math.Ceil(p / 100 * float64(len(c.samples))))
	if rank < 1 {
		rank = 1
	}
	return c.samples[rank-1]
}

// Points returns (duration, cumulative fraction) pairs suitable for
// plotting the CDF at each distinct sample value (each non-empty bucket in
// sketch mode).
func (c *CDF) Points() []CDFPoint {
	if c.sketch {
		return c.sketchPoints()
	}
	if len(c.samples) == 0 {
		return nil
	}
	c.ensureSorted()
	var pts []CDFPoint
	n := float64(len(c.samples))
	for i, d := range c.samples {
		if i+1 < len(c.samples) && c.samples[i+1] == d {
			continue // emit only the last occurrence of each value
		}
		pts = append(pts, CDFPoint{Value: d, Fraction: float64(i+1) / n})
	}
	return pts
}

// CDFPoint is one step of a plotted CDF.
type CDFPoint struct {
	// Value is the sample value.
	Value time.Duration
	// Fraction is the cumulative fraction of samples <= Value.
	Fraction float64
}

// IntHistogram counts integer-valued observations into caller-defined
// bucket edges. A value v falls into bucket i when edges[i] <= v < edges[i+1];
// values below edges[0] or at/above edges[len-1] count only toward the
// total that bucket fractions divide by.
type IntHistogram struct {
	edges  []int
	counts []int // len(edges)-1 interior buckets
	total  int
}

// NewIntHistogram builds a histogram with strictly increasing edges.
func NewIntHistogram(edges []int) (*IntHistogram, error) {
	if len(edges) < 2 {
		return nil, fmt.Errorf("metrics: need at least 2 edges, got %d", len(edges))
	}
	for i := 1; i < len(edges); i++ {
		if edges[i] <= edges[i-1] {
			return nil, fmt.Errorf("metrics: edges must strictly increase (%d then %d)", edges[i-1], edges[i])
		}
	}
	return &IntHistogram{
		edges:  append([]int(nil), edges...),
		counts: make([]int, len(edges)-1),
	}, nil
}

// Add records one observation.
func (h *IntHistogram) Add(v int) {
	h.total++
	if v < h.edges[0] || v >= h.edges[len(h.edges)-1] {
		return
	}
	idx := sort.SearchInts(h.edges, v+1) - 1
	h.counts[idx]++
}

// Bucket returns the count and fraction of bucket i (interior buckets only).
func (h *IntHistogram) Bucket(i int) (count int, fraction float64, err error) {
	if i < 0 || i >= len(h.counts) {
		return 0, 0, fmt.Errorf("metrics: bucket %d out of range [0,%d)", i, len(h.counts))
	}
	count = h.counts[i]
	if h.total > 0 {
		fraction = float64(count) / float64(h.total)
	}
	return count, fraction, nil
}

// PerKeyCDF maintains one CDF per key (per-tenant queueing times, Fig. 12).
type PerKeyCDF struct {
	cdfs map[int]*CDF
	// sketch makes every newly created per-key CDF a sketch (see
	// NewPerKeyCDFSketch).
	sketch bool
}

// NewPerKeyCDF builds an empty per-key CDF collection.
func NewPerKeyCDF() *PerKeyCDF {
	return &PerKeyCDF{cdfs: make(map[int]*CDF)}
}

// Add records a sample under key.
func (p *PerKeyCDF) Add(key int, d time.Duration) {
	c, ok := p.cdfs[key]
	if !ok {
		c = &CDF{}
		if p.sketch {
			c.UseSketch()
		}
		p.cdfs[key] = c
	}
	c.Add(d)
}

// Keys returns the keys in ascending order.
func (p *PerKeyCDF) Keys() []int {
	keys := make([]int, 0, len(p.cdfs))
	for k := range p.cdfs {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}

// Get returns the CDF for key (nil if absent).
func (p *PerKeyCDF) Get(key int) *CDF { return p.cdfs[key] }

// Percentile returns the p-th percentile for key, 0 if the key is absent.
func (p *PerKeyCDF) Percentile(key int, pct float64) time.Duration {
	c, ok := p.cdfs[key]
	if !ok {
		return 0
	}
	return c.Percentile(pct)
}
