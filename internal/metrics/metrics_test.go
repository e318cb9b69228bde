package metrics

import (
	"math"
	"slices"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func TestSeriesAddOrdering(t *testing.T) {
	var s Series
	if err := s.Add(time.Second, 1); err != nil {
		t.Fatal(err)
	}
	if err := s.Add(time.Second, 2); err != nil {
		t.Fatal(err) // equal timestamps are allowed
	}
	if err := s.Add(time.Millisecond, 3); err == nil {
		t.Error("out-of-order Add should fail")
	}
	if s.Len() != 2 {
		t.Errorf("Len = %d, want 2", s.Len())
	}
	gotT, gotV := s.At(1)
	if gotT != time.Second || gotV != 2 {
		t.Errorf("At(1) = %v, %g", gotT, gotV)
	}
}

func TestSeriesStats(t *testing.T) {
	var s Series
	if s.Mean() != 0 {
		t.Error("empty series mean should be 0")
	}
	for i, v := range []float64{2, 8, 5} {
		if err := s.Add(time.Duration(i)*time.Second, v); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.Mean(); got != 5 {
		t.Errorf("Mean = %g, want 5", got)
	}
}

func TestSeriesCopies(t *testing.T) {
	var s Series
	if err := s.Add(time.Second, 1); err != nil {
		t.Fatal(err)
	}
	vals := s.Values()
	vals[0] = 99
	if got := s.Mean(); got != 1 {
		t.Error("Values() must return a copy")
	}
	times := s.Times()
	times[0] = 0
	if gotT, _ := s.At(0); gotT != time.Second {
		t.Error("Times() must return a copy")
	}
}

func TestSeriesDownsample(t *testing.T) {
	var s Series
	// Two samples in [0,1m), one in [1m,2m), gap, one in [3m,4m).
	samples := []struct {
		t time.Duration
		v float64
	}{
		{0, 2}, {30 * time.Second, 4},
		{time.Minute, 10},
		{3 * time.Minute, 6},
	}
	for _, smp := range samples {
		if err := s.Add(smp.t, smp.v); err != nil {
			t.Fatal(err)
		}
	}
	ds, err := s.Downsample(time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if ds.Len() != 3 {
		t.Fatalf("downsampled Len = %d, want 3", ds.Len())
	}
	wantVals := []float64{3, 10, 6}
	wantTimes := []time.Duration{0, time.Minute, 3 * time.Minute}
	for i := range wantVals {
		gotT, gotV := ds.At(i)
		if gotT != wantTimes[i] || gotV != wantVals[i] {
			t.Errorf("At(%d) = %v, %g; want %v, %g", i, gotT, gotV, wantTimes[i], wantVals[i])
		}
	}
	if _, err := s.Downsample(0); err == nil {
		t.Error("Downsample(0) should fail")
	}
	var empty Series
	ds, err = empty.Downsample(time.Minute)
	if err != nil || ds.Len() != 0 {
		t.Errorf("empty Downsample = %d samples, err %v", ds.Len(), err)
	}
}

func TestCDFQueries(t *testing.T) {
	var c CDF
	if c.FractionAtMost(time.Second) != 0 || c.FractionAbove(time.Second) != 0 {
		t.Error("empty CDF fractions should be 0")
	}
	if c.Percentile(99) != 0 {
		t.Error("empty CDF percentile should be 0")
	}
	for _, d := range []time.Duration{4 * time.Second, time.Second, 2 * time.Second, 3 * time.Second} {
		c.Add(d)
	}
	if got := c.FractionAtMost(2 * time.Second); got != 0.5 {
		t.Errorf("FractionAtMost(2s) = %g, want 0.5", got)
	}
	if got := c.FractionAbove(3 * time.Second); got != 0.25 {
		t.Errorf("FractionAbove(3s) = %g, want 0.25", got)
	}
	if got := c.FractionAtMost(10 * time.Second); got != 1 {
		t.Errorf("FractionAtMost(10s) = %g, want 1", got)
	}
	if got := c.Percentile(50); got != 2*time.Second {
		t.Errorf("Percentile(50) = %v, want 2s", got)
	}
	if got := c.Percentile(100); got != 4*time.Second {
		t.Errorf("Percentile(100) = %v, want 4s", got)
	}
	if got := c.Percentile(-5); got != time.Second {
		t.Errorf("Percentile(-5) = %v, want 1s", got)
	}
	if got := c.Percentile(200); got != 4*time.Second {
		t.Errorf("Percentile(200) = %v, want 4s", got)
	}
}

func TestCDFPoints(t *testing.T) {
	var c CDF
	if pts := c.Points(); pts != nil {
		t.Errorf("empty Points = %v", pts)
	}
	for _, d := range []time.Duration{time.Second, time.Second, 2 * time.Second} {
		c.Add(d)
	}
	pts := c.Points()
	if len(pts) != 2 {
		t.Fatalf("Points len = %d, want 2 (duplicates merged)", len(pts))
	}
	if pts[0].Value != time.Second || math.Abs(pts[0].Fraction-2.0/3) > 1e-12 {
		t.Errorf("Points[0] = %+v", pts[0])
	}
	if pts[1].Value != 2*time.Second || pts[1].Fraction != 1 {
		t.Errorf("Points[1] = %+v", pts[1])
	}
}

func TestCDFAddAfterQuery(t *testing.T) {
	var c CDF
	c.Add(3 * time.Second)
	_ = c.Percentile(50) // forces sort
	c.Add(time.Second)   // must re-sort on next query
	if got := c.Percentile(50); got != time.Second {
		t.Errorf("Percentile(50) = %v, want 1s", got)
	}
}

func TestIntHistogram(t *testing.T) {
	if _, err := NewIntHistogram([]int{1}); err == nil {
		t.Error("single edge should fail")
	}
	if _, err := NewIntHistogram([]int{3, 3}); err == nil {
		t.Error("non-increasing edges should fail")
	}
	h, err := NewIntHistogram([]int{0, 5, 10})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []int{-2, 0, 3, 4, 5, 9, 10, 20} {
		h.Add(v)
	}
	if h.total != 8 {
		t.Errorf("total = %d, want 8", h.total)
	}
	// -2 (below the first edge) and 10, 20 (at or above the last) count in
	// the total but land in no interior bucket, so the fractions stay over all 8.
	count, frac, err := h.Bucket(0) // [0,5): 0,3,4
	if err != nil || count != 3 || math.Abs(frac-3.0/8) > 1e-12 {
		t.Errorf("Bucket(0) = %d, %g, %v", count, frac, err)
	}
	count, frac, err = h.Bucket(1) // [5,10): 5,9
	if err != nil || count != 2 || math.Abs(frac-2.0/8) > 1e-12 {
		t.Errorf("Bucket(1) = %d, %g, %v", count, frac, err)
	}
	if _, _, err := h.Bucket(2); err == nil {
		t.Error("Bucket(2) should fail")
	}
}

func TestIntHistogramEmpty(t *testing.T) {
	h, err := NewIntHistogram([]int{0, 10})
	if err != nil {
		t.Fatal(err)
	}
	_, frac, err := h.Bucket(0)
	if err != nil || frac != 0 {
		t.Errorf("empty Bucket = %g, %v", frac, err)
	}
}

func TestPerKeyCDF(t *testing.T) {
	p := NewPerKeyCDF()
	if got := p.Percentile(1, 99); got != 0 {
		t.Errorf("absent key Percentile = %v, want 0", got)
	}
	if got := p.Get(1); got != nil {
		t.Errorf("absent key Get = %v, want nil", got)
	}
	p.Add(2, time.Second)
	p.Add(2, 3*time.Second)
	p.Add(1, 10*time.Second)
	keys := p.Keys()
	if len(keys) != 2 || keys[0] != 1 || keys[1] != 2 {
		t.Errorf("Keys = %v, want [1 2]", keys)
	}
	if got := p.Percentile(2, 100); got != 3*time.Second {
		t.Errorf("Percentile(2, 100) = %v, want 3s", got)
	}
	if got := p.Get(1).Len(); got != 1 {
		t.Errorf("Get(1).Len = %d, want 1", got)
	}
}

// TestCDFPercentileProperty: the percentile is always one of the samples
// and FractionAtMost(Percentile(p)) >= p/100.
func TestCDFPercentileProperty(t *testing.T) {
	f := func(raw []uint16, pRaw uint8) bool {
		if len(raw) == 0 {
			return true
		}
		var c CDF
		for _, r := range raw {
			c.Add(time.Duration(r) * time.Millisecond)
		}
		p := float64(pRaw % 101) // 0..100
		got := c.Percentile(p)
		found := false
		for _, r := range raw {
			if time.Duration(r)*time.Millisecond == got {
				found = true
			}
		}
		return found && c.FractionAtMost(got) >= p/100-1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestCDFFractionMonotoneProperty: FractionAtMost is monotone in d.
func TestCDFFractionMonotoneProperty(t *testing.T) {
	f := func(raw []uint16, a, b uint16) bool {
		var c CDF
		for _, r := range raw {
			c.Add(time.Duration(r) * time.Millisecond)
		}
		lo, hi := a, b
		if lo > hi {
			lo, hi = hi, lo
		}
		return c.FractionAtMost(time.Duration(lo)*time.Millisecond) <=
			c.FractionAtMost(time.Duration(hi)*time.Millisecond)+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestDownsampleMeanProperty: downsampling preserves the set of values'
// global bounds — every bucket mean lies within [Min, Max] of the source.
func TestDownsampleMeanProperty(t *testing.T) {
	f := func(raw []uint8) bool {
		var s Series
		for i, r := range raw {
			if err := s.Add(time.Duration(i)*time.Second, float64(r)); err != nil {
				return false
			}
		}
		ds, err := s.Downsample(5 * time.Second)
		if err != nil {
			return false
		}
		vals := ds.Values()
		sort.Float64s(vals)
		if len(vals) == 0 {
			return len(raw) == 0
		}
		orig := s.Values()
		return vals[0] >= slices.Min(orig)-1e-9 && vals[len(vals)-1] <= slices.Max(orig)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFaultCounters(t *testing.T) {
	var c FaultCounters
	if c.Any() {
		t.Error("zero counters report activity")
	}
	c.Add(FaultCounters{NodeCrashes: 1, JobKills: 2, GoodputLost: time.Minute})
	c.Add(FaultCounters{NodeCrashes: 1, Requeues: 2, DegradedSamples: 5})
	if !c.Any() {
		t.Error("non-zero counters report no activity")
	}
	want := FaultCounters{NodeCrashes: 2, JobKills: 2, Requeues: 2, DegradedSamples: 5, GoodputLost: time.Minute}
	if c != want {
		t.Errorf("accumulated counters = %+v, want %+v", c, want)
	}
}
