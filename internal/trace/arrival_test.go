package trace

import (
	"math"
	"math/rand"
	"testing"
	"time"
)

// refSampler is the reference inversion: the diurnal CDF table and the
// plain 48-step bisection that evaluates dayMass at every mid, built from
// the sampler's parameters alone.
type refSampler struct {
	duration, amplitude, weekend float64
	uniform                      bool
	cum, dayLens                 []float64
}

func newRefSampler(duration time.Duration, amplitude, weekend float64) *refSampler {
	r := &refSampler{duration: float64(duration), amplitude: amplitude, weekend: weekend}
	//coda:ordered-ok fast-path gate on config constants, not computed floats
	if amplitude == 0 && weekend >= 1 {
		r.uniform = true
		return r
	}
	days := int(math.Ceil(r.duration / nsPerDay))
	r.cum = make([]float64, days+1)
	r.dayLens = make([]float64, days)
	for d := 0; d < days; d++ {
		dlen := math.Min(r.duration-float64(d)*nsPerDay, nsPerDay)
		w := 1.0
		if d%7 >= 5 {
			w = weekend
		}
		r.dayLens[d] = dlen
		r.cum[d+1] = r.cum[d] + w*r.dayMass(dlen)
	}
	return r
}

func (r *refSampler) dayMass(x float64) float64 {
	c := r.amplitude * nsPerDay / (2 * math.Pi)
	return x - c*math.Cos(2*math.Pi*(x/nsPerDay-0.25))
}

func (r *refSampler) at(frac float64) time.Duration {
	var t float64
	if r.uniform {
		t = frac * r.duration
	} else {
		target := frac * r.cum[len(r.cum)-1]
		d := 0
		for d+1 < len(r.dayLens) && r.cum[d+1] <= target {
			d++
		}
		w := 1.0
		if d%7 >= 5 {
			w = r.weekend
		}
		rem := (target - r.cum[d]) / w
		xlo, xhi := 0.0, r.dayLens[d]
		for i := 0; i < 48; i++ {
			mid := (xlo + xhi) / 2
			if r.dayMass(mid) <= rem {
				xlo = mid
			} else {
				xhi = mid
			}
		}
		t = float64(d)*nsPerDay + (xlo+xhi)/2
	}
	t = math.Max(t, 0)
	if t >= r.duration {
		t = r.duration - 1
	}
	return time.Duration(t)
}

// checkArrivalAt fails when the sampler and the reference map frac to
// different times.
func checkArrivalAt(t *testing.T, a *arrivalSampler, ref *refSampler, frac float64) {
	t.Helper()
	if got, want := a.at(frac), ref.at(frac); got != want {
		t.Fatalf("amplitude %v, weekend %v, duration %v: at(%v) = %d, reference bisection %d",
			ref.amplitude, a.weekend, time.Duration(a.duration), frac, int64(got), int64(want))
	}
}

// unitFloat folds an arbitrary float into [0, 1); ok is false for NaN and
// infinities.
func unitFloat(v float64) (float64, bool) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0, false
	}
	_, f := math.Modf(math.Abs(v))
	return f, true
}

// FuzzArrivalAt compares the certified inversion with the reference
// bisection on arbitrary fractions, amplitudes in [0, 1), weekend factors in
// (0, 1] and durations of one to ten days, most with a partial last day.
// Every result must match to the nanosecond.
func FuzzArrivalAt(f *testing.F) {
	f.Add(0.5, 0.7, 0.75, uint32(3*24*60+17))
	f.Add(0.123456789, 0.3, 0.75, uint32(24*60))
	f.Add(0.999999, 0.95, 0.5, uint32(7*24*60+600))
	f.Add(0.0, 0.9, 1.0, uint32(36*60))
	f.Add(0.25, 0.999, 0.2, uint32(10*24*60-1))
	f.Add(0.7, 0.0, 0.6, uint32(8*24*60+5))
	f.Fuzz(func(t *testing.T, frac, amplitude, weekend float64, minutes uint32) {
		frac, ok1 := unitFloat(frac)
		amplitude, ok2 := unitFloat(amplitude)
		weekend, ok3 := unitFloat(weekend)
		if !ok1 || !ok2 || !ok3 {
			return
		}
		weekend = 1 - weekend // (0, 1]
		duration := time.Duration(1+minutes%(10*24*60)) * time.Minute
		checkArrivalAt(t, newArrivalSampler(duration, amplitude, weekend),
			newRefSampler(duration, amplitude, weekend), frac)
	})
}

// TestArrivalAtMatchesBisection replays 300,000 seeded fractions per
// (amplitude, duration) cell through both inversions: the trace's default
// amplitudes, a high one where the bracket sometimes falls back, a whole
// week and a span with a partial last day.
func TestArrivalAtMatchesBisection(t *testing.T) {
	const perCell = 300_000
	durations := []time.Duration{7 * 24 * time.Hour, 2*24*time.Hour + 7*time.Hour + 13*time.Minute}
	for _, amplitude := range []float64{0.3, 0.7, 0.95} {
		for _, duration := range durations {
			a := newArrivalSampler(duration, amplitude, 0.75)
			ref := newRefSampler(duration, amplitude, 0.75)
			rng := rand.New(rand.NewSource(int64(amplitude*100) + int64(duration)))
			for i := 0; i < perCell; i++ {
				checkArrivalAt(t, a, ref, rng.Float64())
			}
		}
	}
}

// TestArrivalBracketCertifies checks that at the default amplitudes the
// bracket certifies every side that lies inside the day, so the shortcut
// is taken rather than silently falling back to full bisection.
func TestArrivalBracketCertifies(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, amplitude := range []float64{0.3, 0.7} {
		a := newArrivalSampler(24*time.Hour, amplitude, 1)
		for i := 0; i < 20_000; i++ {
			rem := rng.Float64() * a.cum[1]
			below, above := a.bracket(rem, nsPerDay)
			if math.IsInf(below, -1) && rem > 1e6 || math.IsInf(above, 1) && rem < a.cum[1]-1e6 {
				t.Fatalf("amplitude %v: rem %v left the bracket [%v, %v] uncertified", amplitude, rem, below, above)
			}
			if !math.IsInf(below, -1) && !math.IsInf(above, 1) && above-below > 64 {
				t.Fatalf("amplitude %v: rem %v bracket [%v, %v] is %v ns wide", amplitude, rem, below, above, above-below)
			}
		}
	}
}

func BenchmarkArrivalAt(b *testing.B) {
	for _, amplitude := range []float64{0.3, 0.7} {
		a := newArrivalSampler(4*24*time.Hour, amplitude, 0.75)
		ref := newRefSampler(4*24*time.Hour, amplitude, 0.75)
		b.Run("certified", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sinkDuration = a.at(float64(i%1000) / 1000)
			}
		})
		b.Run("bisection", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sinkDuration = ref.at(float64(i%1000) / 1000)
			}
		})
	}
}

var sinkDuration time.Duration
