package metrics

import (
	"encoding/json"
	"math/rand"
	"slices"
	"testing"
	"time"
)

// sketchTestSamples returns a deterministic spread of durations covering the
// exact range, several octaves and the sub-bucket boundaries.
func sketchTestSamples() []time.Duration {
	rng := rand.New(rand.NewSource(7))
	out := []time.Duration{0, 1, 5, 15, 16, 17, 1000, time.Microsecond, time.Millisecond, time.Second, time.Minute, time.Hour, 24 * time.Hour}
	for i := 0; i < 500; i++ {
		out = append(out, time.Duration(rng.Int63n(int64(48*time.Hour))))
	}
	return out
}

func TestSketchBucketValueRoundTrip(t *testing.T) {
	for _, d := range sketchTestSamples() {
		idx := sketchBucket(d)
		if idx < 0 || idx >= sketchMaxBuckets {
			t.Fatalf("bucket(%v) = %d, outside [0, %d)", d, idx, sketchMaxBuckets)
		}
		v := sketchValue(idx)
		if v > d {
			t.Errorf("representative %v overstates sample %v", v, d)
		}
		// A bucket spans at most 1/2^sketchSubBits of its octave, so the
		// lower bound is within 12.5% of any value it holds.
		if float64(v) < float64(d)*0.875-1 {
			t.Errorf("representative %v more than 12.5%% below sample %v", v, d)
		}
		if back := sketchBucket(v); back != idx {
			t.Errorf("bucket(value(%d)) = %d, want a fixed point", idx, back)
		}
	}
	// Exact below 2*sketchSub nanoseconds, and bucket 0 absorbs non-positives.
	for d := time.Duration(0); d < 2*sketchSub; d++ {
		if got := sketchValue(sketchBucket(d)); got != d {
			t.Errorf("small duration %v round-tripped to %v, want exact", d, got)
		}
	}
	if sketchBucket(-time.Second) != 0 {
		t.Error("negative duration did not map to bucket 0")
	}
}

func TestSketchBucketMonotone(t *testing.T) {
	prev := -1
	for d := time.Duration(1); d < 1<<40; d = d*9/8 + 1 {
		idx := sketchBucket(d)
		if idx < prev {
			t.Fatalf("bucket(%v) = %d below an earlier bucket %d", d, idx, prev)
		}
		prev = idx
	}
}

func TestSketchQueriesTrackExact(t *testing.T) {
	var exact, sk CDF
	sk.UseSketch()
	for _, d := range sketchTestSamples() {
		exact.Add(d)
		sk.Add(d)
	}
	if sk.Len() != exact.Len() {
		t.Fatalf("sketch holds %d samples, exact %d", sk.Len(), exact.Len())
	}
	for _, p := range []float64{1, 25, 50, 90, 99, 100} {
		e, s := exact.Percentile(p), sk.Percentile(p)
		if s > e {
			t.Errorf("p%g: sketch %v above exact %v", p, s, e)
		}
		if float64(s) < float64(e)*0.875-1 {
			t.Errorf("p%g: sketch %v more than 12.5%% below exact %v", p, s, e)
		}
	}
	for _, d := range []time.Duration{0, time.Millisecond, time.Second, time.Hour} {
		ef, sf := exact.FractionAtMost(d), sk.FractionAtMost(d)
		if sf < ef {
			t.Errorf("FractionAtMost(%v): sketch %g below exact %g", d, sf, ef)
		}
	}
}

func TestUseSketchFoldsExistingSamples(t *testing.T) {
	var folded, born CDF
	born.UseSketch()
	for _, d := range sketchTestSamples() {
		folded.Add(d)
		born.Add(d)
	}
	folded.UseSketch()
	if !folded.sketch {
		t.Fatal("UseSketch did not switch modes")
	}
	if folded.Len() != born.Len() {
		t.Fatalf("folded sketch holds %d samples, from-birth %d", folded.Len(), born.Len())
	}
	for _, p := range []float64{50, 90, 99} {
		if f, b := folded.Percentile(p), born.Percentile(p); f != b {
			t.Errorf("p%g: folded %v, from-birth %v", p, f, b)
		}
	}
}

func TestSketchMergeUpgrades(t *testing.T) {
	mk := func(sketch bool, ds ...time.Duration) *CDF {
		c := &CDF{}
		if sketch {
			c.UseSketch()
		}
		for _, d := range ds {
			c.Add(d)
		}
		return c
	}

	// exact.Merge(sketch) upgrades the receiver.
	a := mk(false, time.Second, time.Minute)
	a.Merge(mk(true, time.Hour))
	if !a.sketch || a.Len() != 3 {
		t.Fatalf("exact+sketch merge: sketch=%v len=%d, want sketch len 3", a.sketch, a.Len())
	}

	// sketch.Merge(exact) buckets the samples.
	b := mk(true, time.Second)
	b.Merge(mk(false, time.Minute, time.Hour))
	if !b.sketch || b.Len() != 3 {
		t.Fatalf("sketch+exact merge: sketch=%v len=%d, want sketch len 3", b.sketch, b.Len())
	}

	// sketch.Merge(sketch) adds buckets; order of merging must not matter.
	c := mk(true, time.Second, time.Minute)
	c.Merge(mk(true, time.Hour, 0))
	if c.Len() != 4 {
		t.Fatalf("sketch+sketch merge holds %d samples, want 4", c.Len())
	}
	if a.Merge(b); a.Len() != 6 {
		t.Fatalf("chained merge holds %d samples, want 6", a.Len())
	}

	// exact.Merge(exact) must stay exact.
	d := mk(false, time.Second)
	d.Merge(mk(false, time.Minute))
	if d.sketch {
		t.Fatal("exact+exact merge produced a sketch")
	}
}

func TestSketchJSONRoundTrip(t *testing.T) {
	var c CDF
	c.UseSketch()
	for _, d := range sketchTestSamples() {
		c.Add(d)
	}
	data, err := json.Marshal(&c)
	if err != nil {
		t.Fatal(err)
	}
	var back CDF
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !back.sketch || back.Len() != c.Len() {
		t.Fatalf("round trip: sketch=%v len=%d, want sketch len %d", back.sketch, back.Len(), c.Len())
	}
	for _, p := range []float64{50, 99} {
		if b, w := back.Percentile(p), c.Percentile(p); b != w {
			t.Errorf("p%g changed across round trip: %v vs %v", p, b, w)
		}
	}
	if !slices.Equal(back.buckets, c.buckets) {
		t.Errorf("buckets changed across round trip: %v vs %v", back.buckets, c.buckets)
	}
}

func TestSketchJSONRejectsCorruptPayloads(t *testing.T) {
	cases := map[string]string{
		"sketch state without flag": `{"samples":[],"sorted":false,"buckets":[{"i":1,"n":2}],"count":2}`,
		"raw samples in sketch":     `{"samples":[5],"sorted":false,"sketch":true,"count":1,"buckets":[{"i":5,"n":1}]}`,
		"unsorted buckets":          `{"samples":[],"sorted":false,"sketch":true,"count":2,"buckets":[{"i":5,"n":1},{"i":3,"n":1}]}`,
		"count mismatch":            `{"samples":[],"sorted":false,"sketch":true,"count":5,"buckets":[{"i":3,"n":1}]}`,
		"bucket out of range":       `{"samples":[],"sorted":false,"sketch":true,"count":1,"buckets":[{"i":99999,"n":1}]}`,
		"non-positive bucket count": `{"samples":[],"sorted":false,"sketch":true,"count":0,"buckets":[{"i":3,"n":0}]}`,
	}
	for name, payload := range cases {
		var c CDF
		if err := json.Unmarshal([]byte(payload), &c); err == nil {
			t.Errorf("%s: corrupt payload accepted", name)
		}
	}
}
