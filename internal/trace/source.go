// Streaming trace generation. Source yields the exact same job population
// as Generate — Generate is now a thin wrapper that drains one — but lazily,
// in arrival order, with O(days) state instead of O(jobs). That is what lets
// the simulator ingest a 25M-job warehouse trace without ever materializing
// it: arrivals are pulled one at a time, and the generator's whole position
// is a Cursor (seed, per-stream draw counts, order-statistic fractions) that
// checkpoints in a few dozen bytes.
//
// Sampling scheme: arrivals must come out sorted, so instead of sampling
// each job's arrival independently and sorting (the old algorithm), each
// sub-stream (CPU and GPU jobs have different diurnal amplitudes) walks the
// sorted uniform order statistics sequentially — with m points left, the
// minimum of m uniforms on (u, 1) is u + (1-u)·(1-(1-v)^(1/m)) — and maps
// each fraction through the inverse CDF of the diurnal density
// 1 + a·sin(2π(t/day − 1/4)), weekend-scaled per day. The per-day cumulative
// mass table is closed-form (the sine integrates exactly), so inversion is a
// binary search over days plus a fixed-iteration bisection within the day.
// The two sub-streams merge on the fly with a deterministic tie-break.
package trace

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"github.com/coda-repro/coda/internal/job"
	"github.com/coda-repro/coda/internal/perfmodel"
)

// cpuSeedOffset separates the CPU sub-stream's RNG from the GPU one: two
// independent deterministic streams derived from one trace seed.
const cpuSeedOffset int64 = 1 << 32

// invertIterations is the fixed bisection depth for within-day inversion:
// 48 halvings of a 24h day land below half a nanosecond, under Duration's
// resolution. Fixed (not tolerance-driven) so every platform and every
// resume replays the identical float operation sequence.
const invertIterations = 48

// arrivalSampler inverts the diurnal arrival CDF: frac in [0,1) to a time in
// [0, duration). Pure and stateless after construction.
type arrivalSampler struct {
	duration float64 // ns
	weekend  float64
	uniform  bool // amplitude 0 and weekend factor 1: identity mapping
	// cum[d] is the unnormalized arrival mass before day d; cum[len-1] is
	// the total. dayLens[d] is day d's length in ns (only the last day of a
	// non-whole-day duration is partial).
	cum     []float64
	dayLens []float64
	// c is dayMass's cosine coefficient, amplitude·day/2π.
	c float64
	// The certified inversion's constants (see bracket): k is the
	// amplitude of dayMass's slope, whose derivative is 1 + k·sin(·);
	// errBound bounds dayMass's floating-point error; knotMass[i] is
	// dayMass(i·knotStep), the starting table of the Newton estimate.
	// certify is false when dayMass might not be monotone.
	k        float64
	errBound float64
	knotMass [knots]float64
	certify  bool
}

const nsPerDay = float64(24 * time.Hour)

// knots is the size of the per-sampler table the Newton estimate starts
// from: 9 dayMass values, a fixed cost per sampler.
const (
	knots    = 9
	knotStep = nsPerDay / (knots - 1)
)

// unitRoundoff is float64's unit roundoff, 2^-53.
const unitRoundoff = 0x1p-53

// maxNewtonSteps caps the Newton estimate; bracket certifies whatever it
// reaches.
const maxNewtonSteps = 8

// dayMass is the closed-form arrival mass of day d's first x nanoseconds
// (before weekend scaling): the antiderivative of 1 + a·sin(2π(t/day − 1/4))
// from the day boundary, where the cosine term vanishes.
func (a *arrivalSampler) dayMass(x float64) float64 {
	return x - a.c*math.Cos(2*math.Pi*(x/nsPerDay-0.25))
}

func newArrivalSampler(duration time.Duration, amplitude, weekendFactor float64) *arrivalSampler {
	a := &arrivalSampler{
		duration: float64(duration),
		weekend:  weekendFactor,
	}
	//coda:ordered-ok fast-path gate on config constants, not computed floats
	if amplitude == 0 && weekendFactor >= 1 {
		a.uniform = true
		return a
	}
	a.c = amplitude * nsPerDay / (2 * math.Pi)
	days := int(math.Ceil(a.duration / nsPerDay))
	a.cum = make([]float64, days+1)
	a.dayLens = make([]float64, days)
	for d := 0; d < days; d++ {
		dlen := a.duration - float64(d)*nsPerDay
		if dlen > nsPerDay {
			dlen = nsPerDay
		}
		w := 1.0
		if d%7 >= 5 {
			w = weekendFactor
		}
		a.dayLens[d] = dlen
		a.cum[d+1] = a.cum[d] + w*a.dayMass(dlen)
	}

	// dayMass, evaluated in float64 for 0 <= x <= day, is within errBound of
	// g(x) = x − c·cos(P·(x/day − 1/4)) in exact arithmetic, where c and
	// P = 2π are the float64 constants dayMass uses. With u = 2^-53:
	//   - x/day − 1/4 is off by at most 1.75u, so the cosine's argument
	//     (|P·(x/day − 1/4)| <= 0.75·P) is off by at most 2.5·P·u < 15.71u
	//     with its own rounding;
	//   - math.Cos is taken to be within 4u of the cosine of its argument
	//     (its documented peak relative error is 2.1e-16, about 1.9u), so
	//     the cosine is off by at most 19.71u and c times it, rounded, by
	//     at most 20.71·c·u;
	//   - the subtraction from x rounds once more, by u·(day + c).
	// That is at most u·(day + 21.71·c). bracket compares against
	// rem ∓ 2·errBound, whose rounding adds u·(day + c + 2·errBound); half
	// of that on top still fits under errBound = u·(2·day + 24·c). A fused
	// multiply-add, on platforms that use one, only removes roundings.
	a.k = a.c * (2 * math.Pi) / nsPerDay
	a.errBound = unitRoundoff * (2*nsPerDay + 24*a.c)
	// g's derivative is 1 + k·sin(·), so g is non-decreasing when k <= 1;
	// the margin dwarfs k's own rounding error of a few u.
	a.certify = a.k < 1-1e-9
	for i := range a.knotMass {
		a.knotMass[i] = a.dayMass(float64(i) * knotStep)
	}
	return a
}

// at maps a sorted-uniform fraction to its arrival time. Monotone in frac up
// to sub-nanosecond bisection wobble; callers clamp to enforce exact
// non-decreasing output.
func (a *arrivalSampler) at(frac float64) time.Duration {
	var t float64
	if a.uniform {
		t = frac * a.duration
	} else {
		total := a.cum[len(a.cum)-1]
		target := frac * total
		// Largest d with cum[d] <= target.
		lo, hi := 0, len(a.cum)-1
		for lo < hi {
			mid := (lo + hi + 1) / 2
			if a.cum[mid] <= target {
				lo = mid
			} else {
				hi = mid - 1
			}
		}
		d := lo
		if d >= len(a.dayLens) {
			d = len(a.dayLens) - 1
		}
		w := 1.0
		if d%7 >= 5 {
			w = a.weekend
		}
		rem := (target - a.cum[d]) / w
		// Bisect dayMass(x) = rem on [0, dayLens[d]]. A mid outside the
		// certified bracket takes the decision the bracket proves; only
		// the mids inside it evaluate dayMass.
		xlo, xhi := 0.0, a.dayLens[d]
		below, above := a.bracket(rem, xhi)
		for i := 0; i < invertIterations; i++ {
			mid := (xlo + xhi) / 2
			switch {
			case mid < below:
				xlo = mid
			case mid > above:
				xhi = mid
			case a.dayMass(mid) <= rem:
				xlo = mid
			default:
				xhi = mid
			}
		}
		t = float64(d)*nsPerDay + (xlo+xhi)/2
	}
	if t < 0 {
		t = 0
	}
	if t >= a.duration {
		t = a.duration - 1
	}
	return time.Duration(t)
}

// bracket returns below and above such that dayMass, as evaluated, is
// certainly <= rem at every x in (0, below) and certainly > rem at every x in
// (above, dayLen). It checks two dayMass values around a Newton estimate of
// the root: each must miss rem by more than 2·errBound. Then, g being
// non-decreasing, for x < below
//
//	dayMass(x) <= g(x) + errBound <= g(below) + errBound <= dayMass(below) + 2·errBound < rem,
//
// and symmetrically above. A side that fails the check, or falls outside
// (0, dayLen), is returned infinite: the bisection then evaluates every mid
// on that side, so the decisions never depend on the estimate.
func (a *arrivalSampler) bracket(rem, dayLen float64) (below, above float64) {
	below, above = math.Inf(-1), math.Inf(1)
	if !a.certify {
		return below, above
	}
	x, delta := a.estimate(rem, dayLen)
	margin := 2 * a.errBound
	if lo := x - delta; lo > 0 && a.dayMass(lo) < rem-margin {
		below = lo
	}
	if hi := x + delta; hi < dayLen && a.dayMass(hi) > rem+margin {
		above = hi
	}
	return below, above
}

// estimate returns a Newton estimate x of the root of dayMass(x) = rem on
// [0, dayLen], started from the knot table, and a half-width delta meant to
// move dayMass more than 3·errBound from rem on either side: 4·errBound
// over the local slope, plus twice the estimate's own error, which after a
// Newton step h is at most curvature·h²/slope with curvature half the largest
// second derivative of g, k·π/day.
func (a *arrivalSampler) estimate(rem, dayLen float64) (x, delta float64) {
	m := &a.knotMass
	lo, hi := 0, knots-1
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		if m[mid] <= rem {
			lo = mid
		} else {
			hi = mid
		}
	}
	segLo, segHi := float64(lo)*knotStep, min(float64(hi)*knotStep, dayLen)
	x = segLo + (rem-m[lo])*knotStep/(m[hi]-m[lo])
	curvature := a.k * math.Pi / nsPerDay
	slope, step := 1.0, 0.0
	for i := 0; i < maxNewtonSteps; i++ {
		x = max(segLo, min(x, segHi))
		sin, cos := math.Sincos(2 * math.Pi * (x/nsPerDay - 0.25))
		slope = 1 + a.k*sin
		step = (x - a.c*cos - rem) / slope
		x -= step
		if curvature*step*step <= a.errBound*slope {
			break
		}
	}
	return x, (4*a.errBound + 2*curvature*step*step) / slope
}

// stream is one sub-stream (all CPU jobs or all GPU jobs) of a Source: a
// seeded RNG with a draw counter, the count of jobs not yet emitted, and the
// already-drawn arrival of the next job.
type stream struct {
	rng     *rand.Rand
	sampler *arrivalSampler
	draws   int64
	left    int
	frac    float64       // sorted-uniform position of the next arrival
	next    time.Duration // arrival time of the next job (valid when left > 0)
}

// f64 is the stream's only RNG primitive: every draw is one Float64, so a
// cursor restore fast-forwards by calling Float64 exactly draws times.
func (st *stream) f64() float64 {
	st.draws++
	return st.rng.Float64()
}

// intBelow returns a uniform int in [0, n) from one f64 draw.
func (st *stream) intBelow(n int) int {
	v := int(st.f64() * float64(n))
	if v >= n { // guard the (impossible in practice) f64 == 1-ulp edge
		v = n - 1
	}
	return v
}

// pick samples an index from weights.
func (st *stream) pick(weights []float64) int {
	total := 0.0
	for _, w := range weights {
		total += w
	}
	r := st.f64() * total
	for i, w := range weights {
		r -= w
		if r <= 0 {
			return i
		}
	}
	return len(weights) - 1
}

// prime draws the arrival time of the stream's next job via the sorted
// uniform order-statistic recurrence. left must count that job.
func (st *stream) prime() {
	v := st.f64()
	st.frac += (1 - st.frac) * (1 - math.Pow(1-v, 1/float64(st.left)))
	if st.frac >= 1 {
		st.frac = math.Nextafter(1, 0)
	}
	at := st.sampler.at(st.frac)
	if at < st.next { // enforce exact monotonicity across bisection wobble
		at = st.next
	}
	st.next = at
}

// Cursor is a Source's complete resumable position: the config plus, per
// sub-stream, the RNG draw count (fast-forwarded on restore), the jobs not
// yet emitted, and the already-drawn next arrival. Byte-identical resume:
// Resume(src.CheckpointState()) yields the exact job sequence src would
// have yielded.
type Cursor struct {
	Config   Config        `json:"config"`
	NextID   int64         `json:"nextID"`
	GPUDraws int64         `json:"gpuDraws"`
	CPUDraws int64         `json:"cpuDraws"`
	GPULeft  int           `json:"gpuLeft"`
	CPULeft  int           `json:"cpuLeft"`
	GPUFrac  float64       `json:"gpuFrac"`
	CPUFrac  float64       `json:"cpuFrac"`
	GPUNext  time.Duration `json:"gpuNext"`
	CPUNext  time.Duration `json:"cpuNext"`
}

// Source yields a trace's jobs lazily in arrival order with IDs assigned in
// yield order. It is pure (no wall clock, no global rand, no goroutines) and
// deterministic: NewSource(cfg) always yields the identical sequence, which
// is also exactly what Generate(cfg) returns as a slice.
type Source struct {
	cfg      Config
	gpu, cpu stream
	nextID   int64

	gpuWeights, cpuWeights      []float64
	modelWeights, configWeights []float64
	// models[i] is the source's copy of modelMix[i]'s model, looked up once.
	models []*perfmodel.Model
}

// NewSource validates cfg and positions a fresh Source at the first job.
func NewSource(cfg Config) (*Source, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := &Source{
		cfg:        cfg,
		nextID:     1,
		gpuWeights: tenantGPUWeights(),
		cpuWeights: tenantCPUWeights(),
	}
	s.modelWeights = make([]float64, len(modelMix))
	s.models = make([]*perfmodel.Model, len(modelMix))
	for i, m := range modelMix {
		s.modelWeights[i] = m.weight
		model, err := perfmodel.Lookup(m.name)
		if err != nil {
			return nil, fmt.Errorf("trace: %w", err)
		}
		s.models[i] = model
	}
	s.configWeights = make([]float64, len(configMix))
	for i, c := range configMix {
		s.configWeights[i] = c.weight
	}
	s.gpu = stream{
		rng:     rand.New(rand.NewSource(cfg.Seed)),
		sampler: newArrivalSampler(cfg.Duration, cfg.GPUDiurnalAmplitude, cfg.WeekendFactor),
		left:    cfg.GPUJobs,
	}
	s.cpu = stream{
		rng:     rand.New(rand.NewSource(cfg.Seed + cpuSeedOffset)),
		sampler: newArrivalSampler(cfg.Duration, cfg.DiurnalAmplitude, cfg.WeekendFactor),
		left:    cfg.CPUJobs,
	}
	if s.gpu.left > 0 {
		s.gpu.prime()
	}
	if s.cpu.left > 0 {
		s.cpu.prime()
	}
	return s, nil
}

// Config returns the source's configuration.
func (s *Source) Config() Config { return s.cfg }

// Remaining is how many jobs Next has yet to yield.
func (s *Source) Remaining() int { return s.gpu.left + s.cpu.left }

// Total is the trace's full job count, emitted or not.
func (s *Source) Total() int { return s.cfg.CPUJobs + s.cfg.GPUJobs }

// Next yields the next job in arrival order, or (nil, nil) when the trace is
// drained. The returned job is freshly allocated and owned by the caller.
func (s *Source) Next() (*job.Job, error) {
	gpuTurn := s.gpu.left > 0 && (s.cpu.left == 0 || s.gpu.next <= s.cpu.next)
	var j *job.Job
	switch {
	case gpuTurn:
		j = s.nextGPU()
	case s.cpu.left > 0:
		j = s.nextCPU()
	default:
		return nil, nil
	}
	j.ID = job.ID(s.nextID)
	s.nextID++
	if err := j.Validate(); err != nil {
		return nil, fmt.Errorf("trace: generated invalid job: %w", err)
	}
	return j, nil
}

// nextGPU emits the GPU sub-stream's next job. Attribute draw order is fixed
// and part of the format: model, config, batch, category/hints, tenant,
// cores, runtime.
func (s *Source) nextGPU() *job.Job {
	st := &s.gpu
	arrival := st.next
	cfg := s.cfg

	model := s.models[st.pick(s.modelWeights)]
	ci := st.pick(s.configWeights)
	nodes, gpus := configMix[ci].nodes, configMix[ci].gpus

	batch := model.DefaultBatch
	if st.f64() < cfg.MaxBatchFraction {
		batch = model.MaxBatch
	}
	category := model.Category
	var hints job.Hints
	if st.f64() < cfg.NoCategoryFraction {
		category = job.CategoryNone
	} else if st.f64() < cfg.HintsFraction {
		hints = job.Hints{
			HasPipeline:       st.f64() < 0.5,
			LargeWeights:      model.Name == "vgg16" || model.Name == "transformer",
			ComplexPreprocess: model.Category == job.CategoryNLP,
		}
	}

	j := &job.Job{
		Kind:      job.KindGPUTraining,
		Tenant:    job.TenantID(st.pick(s.gpuWeights) + 1),
		Category:  category,
		Model:     model.Name,
		BatchSize: batch,
		Hints:     hints,
		Request: job.Request{
			CPUCores: requestedCores(st, cfg, gpus/nodes),
			GPUs:     gpus,
			Nodes:    nodes,
		},
		Arrival: arrival,
		Work:    gpuRuntime(st),
	}
	st.left--
	if st.left > 0 {
		st.prime()
	}
	return j
}

// nextCPU emits the CPU sub-stream's next job (a bandwidth hog with
// probability HogFraction).
func (s *Source) nextCPU() *job.Job {
	st := &s.cpu
	arrival := st.next

	j := &job.Job{
		Kind:    job.KindCPU,
		Tenant:  job.TenantID(st.pick(s.cpuWeights) + 1),
		Request: job.Request{CPUCores: 2 + st.intBelow(5), Nodes: 1},
		Arrival: arrival,
		Work:    cpuRuntime(st),
	}
	j.Bandwidth = 0.3 * float64(j.Request.CPUCores)
	if st.f64() < s.cfg.HogFraction {
		j.Kind = job.KindBandwidthHog
		j.Request.CPUCores = 8 + st.intBelow(9) // 8-16 threads of HEAT
		// A STREAM-like kernel saturates a DDR4 channel per thread:
		// one hog can push a node past the 75% contention knee alone.
		j.Bandwidth = 8 * float64(j.Request.CPUCores)
		j.Work = cpuRuntime(st) * 2
	}
	st.left--
	if st.left > 0 {
		st.prime()
	}
	return j
}

// CheckpointState captures the source's resumable position.
func (s *Source) CheckpointState() Cursor {
	return Cursor{
		Config:   s.cfg,
		NextID:   s.nextID,
		GPUDraws: s.gpu.draws,
		CPUDraws: s.cpu.draws,
		GPULeft:  s.gpu.left,
		CPULeft:  s.cpu.left,
		GPUFrac:  s.gpu.frac,
		CPUFrac:  s.cpu.frac,
		GPUNext:  s.gpu.next,
		CPUNext:  s.cpu.next,
	}
}

// Resume rebuilds a Source at the cursor's position: it re-seeds both
// sub-stream RNGs and fast-forwards them by the recorded draw counts, so the
// resumed source yields byte-identical jobs to the one that was captured.
func Resume(cur Cursor) (*Source, error) {
	s, err := NewSource(cur.Config)
	if err != nil {
		return nil, fmt.Errorf("trace: resume: %w", err)
	}
	if cur.GPULeft < 0 || cur.GPULeft > cur.Config.GPUJobs ||
		cur.CPULeft < 0 || cur.CPULeft > cur.Config.CPUJobs {
		return nil, fmt.Errorf("trace: resume: jobs left (%d gpu, %d cpu) out of range (%d gpu, %d cpu configured)",
			cur.GPULeft, cur.CPULeft, cur.Config.GPUJobs, cur.Config.CPUJobs)
	}
	emitted := (cur.Config.GPUJobs - cur.GPULeft) + (cur.Config.CPUJobs - cur.CPULeft)
	if cur.NextID != int64(emitted)+1 {
		return nil, fmt.Errorf("trace: resume: next ID %d inconsistent with %d emitted jobs", cur.NextID, emitted)
	}
	if cur.GPUDraws < s.gpu.draws || cur.CPUDraws < s.cpu.draws {
		return nil, fmt.Errorf("trace: resume: draw counts (%d gpu, %d cpu) below a fresh source's", cur.GPUDraws, cur.CPUDraws)
	}
	if cur.GPUFrac < 0 || cur.GPUFrac >= 1 || cur.CPUFrac < 0 || cur.CPUFrac >= 1 {
		return nil, fmt.Errorf("trace: resume: order-statistic fractions (%g, %g) out of [0,1)", cur.GPUFrac, cur.CPUFrac)
	}
	if cur.GPUNext < 0 || cur.GPUNext >= cur.Config.Duration || cur.CPUNext < 0 || cur.CPUNext >= cur.Config.Duration {
		return nil, fmt.Errorf("trace: resume: next arrivals (%v, %v) outside the trace span %v", cur.GPUNext, cur.CPUNext, cur.Config.Duration)
	}
	fastForward(&s.gpu, cur.GPUDraws)
	fastForward(&s.cpu, cur.CPUDraws)
	s.nextID = cur.NextID
	s.gpu.left, s.cpu.left = cur.GPULeft, cur.CPULeft
	s.gpu.frac, s.cpu.frac = cur.GPUFrac, cur.CPUFrac
	s.gpu.next, s.cpu.next = cur.GPUNext, cur.CPUNext
	return s, nil
}

// fastForward replays discarded draws to move st's RNG to the cursor's
// stream position. O(draws) — a few hundred million Float64 calls at the
// largest scale, seconds, not minutes.
func fastForward(st *stream, draws int64) {
	for st.draws < draws {
		st.f64()
	}
}
