package perfmodel

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"

	"github.com/coda-repro/coda/internal/job"
)

func mustLookup(t *testing.T, name string) *Model {
	t.Helper()
	m, err := Lookup(name)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func cfg1N1G() Config { return Config{Nodes: 1, GPUs: 1} }
func cfg1N4G() Config { return Config{Nodes: 1, GPUs: 4} }
func cfg2N8G() Config { return Config{Nodes: 2, GPUs: 8} }

func TestConfigValidate(t *testing.T) {
	tests := []struct {
		cfg     Config
		wantErr bool
	}{
		{Config{Nodes: 1, GPUs: 1}, false},
		{Config{Nodes: 2, GPUs: 8}, false},
		{Config{Nodes: 0, GPUs: 1}, true},
		{Config{Nodes: 2, GPUs: 1}, true},
		{Config{Nodes: 2, GPUs: 3}, true},
	}
	for _, tt := range tests {
		err := tt.cfg.Validate()
		if (err != nil) != tt.wantErr {
			t.Errorf("%v.Validate() error = %v, wantErr %v", tt.cfg, err, tt.wantErr)
		}
	}
}

func TestConfigString(t *testing.T) {
	if got := cfg1N4G().String(); got != "1N4G" {
		t.Errorf("String = %q, want 1N4G", got)
	}
	if got := cfg2N8G().GPUsPerNode(); got != 4 {
		t.Errorf("GPUsPerNode = %d, want 4", got)
	}
}

func TestCatalogComplete(t *testing.T) {
	// The full Table I benchmark set must be present.
	want := []string{"alexnet", "vgg16", "inception3", "resnet50", "bat", "transformer", "wavenet", "deepspeech"}
	names := Names()
	if len(names) != len(want) {
		t.Fatalf("Names() has %d entries, want %d", len(names), len(want))
	}
	for i, n := range want {
		if names[i] != n {
			t.Errorf("Names()[%d] = %q, want %q", i, names[i], n)
		}
	}
	if _, err := Lookup("gpt"); err == nil {
		t.Error("Lookup(unknown) should fail")
	}
}

// TestByCategory checks the catalog mix: 4 CV, 2 NLP and 2 Speech models,
// none without a category.
func TestByCategory(t *testing.T) {
	counts := map[job.Category]int{}
	for _, name := range Names() {
		counts[mustLookup(t, name).Category]++
	}
	want := map[job.Category]int{job.CategoryCV: 4, job.CategoryNLP: 2, job.CategorySpeech: 2}
	if !reflect.DeepEqual(counts, want) {
		t.Errorf("catalog mix = %v, want %v", counts, want)
	}
}

// TestOptimalCoresCVComplexityOrder checks §IV-B1: "For CV jobs, the
// simpler the network, the more CPUs are required."
func TestOptimalCoresCVComplexityOrder(t *testing.T) {
	opt := func(name string) int {
		m := mustLookup(t, name)
		n, err := m.OptimalCores(cfg1N1G(), 0)
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	alexnet, vgg, inception, resnet := opt("alexnet"), opt("vgg16"), opt("inception3"), opt("resnet50")
	if !(alexnet > vgg && vgg > inception) {
		t.Errorf("CV complexity order violated: alexnet=%d vgg=%d inception=%d", alexnet, vgg, inception)
	}
	if resnet > vgg {
		t.Errorf("resnet50=%d should not need more cores than vgg16=%d", resnet, vgg)
	}
}

// TestTransformerOptimalAtTwoCores checks §III-B: "most of the models do
// not gain the best performance with 2-CPU configuration except Transformer
// with 1N1G configuration."
func TestTransformerOptimalAtTwoCores(t *testing.T) {
	for _, name := range Names() {
		m := mustLookup(t, name)
		opt, err := m.OptimalCores(cfg1N1G(), 0)
		if err != nil {
			t.Fatal(err)
		}
		if name == "transformer" {
			if opt != 2 {
				t.Errorf("transformer optimal = %d, want 2", opt)
			}
		} else if opt <= 2 {
			t.Errorf("%s optimal = %d, want > 2", name, opt)
		}
	}
}

// TestWavenetNeedsMoreThanDeepspeech checks §IV-B1: "Wavenet needs more CPU
// cores than Deepspeech" (audio re-cut).
func TestWavenetNeedsMoreThanDeepspeech(t *testing.T) {
	w := mustLookup(t, "wavenet")
	d := mustLookup(t, "deepspeech")
	wOpt, _ := w.OptimalCores(cfg1N1G(), 0)
	dOpt, _ := d.OptimalCores(cfg1N1G(), 0)
	if wOpt <= dOpt {
		t.Errorf("wavenet=%d should exceed deepspeech=%d", wOpt, dOpt)
	}
}

// TestOptimalCoresBatchIndependence checks §IV-B1: all models except
// Alexnet have the same demand at default and max batch size.
func TestOptimalCoresBatchIndependence(t *testing.T) {
	for _, name := range Names() {
		m := mustLookup(t, name)
		def, err := m.OptimalCores(cfg1N1G(), m.DefaultBatch)
		if err != nil {
			t.Fatal(err)
		}
		max, err := m.OptimalCores(cfg1N1G(), m.MaxBatch)
		if err != nil {
			t.Fatal(err)
		}
		if name == "alexnet" {
			if max <= def {
				t.Errorf("alexnet: max-batch optimal %d should exceed default %d", max, def)
			}
		} else if max != def {
			t.Errorf("%s: optimal changed with batch (%d -> %d)", name, def, max)
		}
	}
}

// TestOptimalCoresLinearInGPUs checks §IV-B2: single-node multi-GPU demand
// grows with the GPU count.
func TestOptimalCoresLinearInGPUs(t *testing.T) {
	for _, name := range Names() {
		m := mustLookup(t, name)
		prev := 0
		for _, gpus := range []int{1, 2, 4} {
			opt, err := m.OptimalCores(Config{Nodes: 1, GPUs: gpus}, 0)
			if err != nil {
				t.Fatal(err)
			}
			if opt < prev {
				t.Errorf("%s: optimal cores decreased from %d to %d at %d GPUs", name, prev, opt, gpus)
			}
			prev = opt
		}
	}
}

// TestMultiNodeCappedAtTwoCores checks §IV-B2: multi-node jobs need no more
// than two cores per node.
func TestMultiNodeCappedAtTwoCores(t *testing.T) {
	for _, name := range Names() {
		m := mustLookup(t, name)
		opt, err := m.OptimalCores(cfg2N8G(), 0)
		if err != nil {
			t.Fatal(err)
		}
		if opt > 2 {
			t.Errorf("%s multi-node optimal = %d, want <= 2", name, opt)
		}
	}
}

// TestMultiNodeDegradation checks §IV-B2: 25-30% degradation vs 1N4G peak.
func TestMultiNodeDegradation(t *testing.T) {
	for _, name := range Names() {
		m := mustLookup(t, name)
		opt, _ := m.OptimalCores(cfg2N8G(), 0)
		speed, err := m.Speed(cfg2N8G(), 0, opt, Contention{})
		if err != nil {
			t.Fatal(err)
		}
		if speed < 0.70 || speed > 0.75 {
			t.Errorf("%s multi-node peak speed = %g, want in [0.70, 0.75]", name, speed)
		}
	}
}

// TestSpeedPeaksAtOptimal checks Fig. 3's shape: speed rises to the optimal
// core count and declines slightly beyond it.
func TestSpeedPeaksAtOptimal(t *testing.T) {
	for _, name := range Names() {
		m := mustLookup(t, name)
		opt, _ := m.OptimalCores(cfg1N1G(), 0)
		peak, err := m.Speed(cfg1N1G(), 0, opt, Contention{})
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(peak-1.0) > 1e-9 {
			t.Errorf("%s speed at optimal = %g, want 1.0", name, peak)
		}
		for c := 1; c <= 14; c++ {
			s, err := m.Speed(cfg1N1G(), 0, c, Contention{})
			if err != nil {
				t.Fatal(err)
			}
			if s > peak+1e-9 {
				t.Errorf("%s speed(%d) = %g exceeds peak", name, c, s)
			}
			if c < opt {
				next, _ := m.Speed(cfg1N1G(), 0, c+1, Contention{})
				if next <= s {
					t.Errorf("%s speed must rise below optimal: speed(%d)=%g >= speed(%d)=%g", name, c, s, c+1, next)
				}
			}
			if c > opt {
				prevSpeed, _ := m.Speed(cfg1N1G(), 0, c-1, Contention{})
				if s > prevSpeed {
					t.Errorf("%s speed must not rise past optimal", name)
				}
			}
		}
	}
}

// TestPerformanceGapRange checks §III-B: "The performance gap is in the
// range of 10% to over 5X" between a 2-core allocation and the optimum.
func TestPerformanceGapRange(t *testing.T) {
	worst, best := 1.0, math.Inf(1)
	for _, name := range Names() {
		m := mustLookup(t, name)
		s2, err := m.Speed(cfg1N1G(), 0, 2, Contention{})
		if err != nil {
			t.Fatal(err)
		}
		gap := 1 / s2
		if gap > worst {
			worst = gap
		}
		if gap < best {
			best = gap
		}
	}
	if worst < 4.5 {
		t.Errorf("worst 2-core gap = %.2fx, want > 4.5x (paper: over 5X)", worst)
	}
	if best > 1.2 {
		t.Errorf("best 2-core gap = %.2fx, want close to 1x (paper: 10%%)", best)
	}
}

func TestSpeedValidation(t *testing.T) {
	m := mustLookup(t, "resnet50")
	if _, err := m.Speed(cfg1N1G(), 0, 0, Contention{}); err == nil {
		t.Error("Speed(0 cores) should fail")
	}
	if _, err := m.Speed(Config{}, 0, 1, Contention{}); err == nil {
		t.Error("Speed(bad config) should fail")
	}
	if _, err := m.OptimalCores(Config{}, 0); err == nil {
		t.Error("OptimalCores(bad config) should fail")
	}
	if _, err := m.BandwidthDemand(Config{}, 0, 1); err == nil {
		t.Error("BandwidthDemand(bad config) should fail")
	}
	if _, err := m.BandwidthDemand(cfg1N1G(), 0, 0); err == nil {
		t.Error("BandwidthDemand(0 cores) should fail")
	}
	if _, err := m.PCIeDemand(Config{}); err == nil {
		t.Error("PCIeDemand(bad config) should fail")
	}
	if _, err := m.IterTime(Config{}, 0); err == nil {
		t.Error("IterTime(bad config) should fail")
	}
}

// TestGPUUtilTracksSpeed checks §V-B finding 1: utilization and speed peak
// together.
func TestGPUUtilTracksSpeed(t *testing.T) {
	for _, name := range Names() {
		m := mustLookup(t, name)
		opt, _ := m.OptimalCores(cfg1N1G(), 0)
		bestCores, bestUtil := 0, 0.0
		for c := 1; c <= 14; c++ {
			u, err := m.GPUUtil(cfg1N1G(), 0, c, Contention{})
			if err != nil {
				t.Fatal(err)
			}
			if u < 0 || u > 1 {
				t.Errorf("%s GPUUtil(%d) = %g out of [0,1]", name, c, u)
			}
			if u > bestUtil {
				bestUtil, bestCores = u, c
			}
		}
		if bestCores != opt {
			t.Errorf("%s utilization peaks at %d cores, optimal is %d", name, bestCores, opt)
		}
	}
}

// TestBandwidthDemandAntiCorrelation checks §IV-C1: CV bandwidth demand
// anti-correlates with model complexity.
func TestBandwidthDemandAntiCorrelation(t *testing.T) {
	demand := func(name string) float64 {
		m := mustLookup(t, name)
		opt, _ := m.OptimalCores(cfg1N1G(), 0)
		d, err := m.BandwidthDemand(cfg1N1G(), 0, opt)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	if !(demand("alexnet") > demand("vgg16") && demand("vgg16") > demand("inception3")) {
		t.Error("CV bandwidth demand must anti-correlate with complexity")
	}
	// NLP demands are "very small" (§IV-C1).
	for _, name := range []string{"bat", "transformer"} {
		if d := demand(name); d > 1.5 {
			t.Errorf("%s bandwidth demand = %g GB/s, want small", name, d)
		}
	}
}

// TestBandwidthDemandBatchBehaviour checks §IV-C1: Wavenet's demand grows
// with batch size, Deepspeech's does not.
func TestBandwidthDemandBatchBehaviour(t *testing.T) {
	w := mustLookup(t, "wavenet")
	wOpt, _ := w.OptimalCores(cfg1N1G(), 0)
	def, _ := w.BandwidthDemand(cfg1N1G(), w.DefaultBatch, wOpt)
	max, _ := w.BandwidthDemand(cfg1N1G(), w.MaxBatch, wOpt)
	if max <= def {
		t.Errorf("wavenet demand should grow with batch: %g -> %g", def, max)
	}
	d := mustLookup(t, "deepspeech")
	dOpt, _ := d.OptimalCores(cfg1N1G(), 0)
	def, _ = d.BandwidthDemand(cfg1N1G(), d.DefaultBatch, dOpt)
	max, _ = d.BandwidthDemand(cfg1N1G(), d.MaxBatch, dOpt)
	if max != def {
		t.Errorf("deepspeech demand should be batch-flat: %g -> %g", def, max)
	}
}

// TestBandwidthDemandLinearInGPUs checks §IV-C1: demand grows linearly with
// the GPU count.
func TestBandwidthDemandLinearInGPUs(t *testing.T) {
	m := mustLookup(t, "resnet50")
	opt1, _ := m.OptimalCores(cfg1N1G(), 0)
	opt4, _ := m.OptimalCores(cfg1N4G(), 0)
	d1, _ := m.BandwidthDemand(cfg1N1G(), 0, opt1)
	d4, _ := m.BandwidthDemand(cfg1N4G(), 0, opt4)
	if math.Abs(d4-4*d1) > 1e-9 {
		t.Errorf("demand not linear: 1G=%g 4G=%g", d1, d4)
	}
}

// TestContentionSensitivityOrdering checks Fig. 7: NLP most sensitive
// (>= 50% drop), CV insensitive except Alexnet, Deepspeech more sensitive
// than Wavenet, and LLC pressure irrelevant for everyone.
func TestContentionSensitivityOrdering(t *testing.T) {
	saturated := Contention{BandwidthUtil: 1.3}
	speedUnder := func(name string) float64 {
		m := mustLookup(t, name)
		opt, _ := m.OptimalCores(cfg1N1G(), 0)
		s, err := m.Speed(cfg1N1G(), 0, opt, saturated)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	for _, name := range []string{"bat", "transformer"} {
		if s := speedUnder(name); s > 0.5 {
			t.Errorf("%s under saturation = %g, want >= 50%% drop", name, s)
		}
	}
	for _, name := range []string{"vgg16", "inception3", "resnet50"} {
		if s := speedUnder(name); s < 0.9 {
			t.Errorf("%s under saturation = %g, want insensitive", name, s)
		}
	}
	if s := speedUnder("alexnet"); s > 0.85 {
		t.Errorf("alexnet under saturation = %g, want sensitive", s)
	}
	if speedUnder("deepspeech") >= speedUnder("wavenet") {
		t.Error("deepspeech should be more bandwidth-sensitive than wavenet")
	}
	// LLC insensitivity for all models.
	for _, name := range Names() {
		m := mustLookup(t, name)
		opt, _ := m.OptimalCores(cfg1N1G(), 0)
		s, err := m.Speed(cfg1N1G(), 0, opt, Contention{LLCPressure: 1})
		if err != nil {
			t.Fatal(err)
		}
		if s < 0.95 {
			t.Errorf("%s under LLC pressure = %g, want insensitive", name, s)
		}
	}
}

// TestContentionBelowKneeIsFree checks the 75% knee: below it bandwidth
// pressure costs nothing, matching the eliminator's trigger (§V-D).
func TestContentionBelowKneeIsFree(t *testing.T) {
	m := mustLookup(t, "bat")
	opt, _ := m.OptimalCores(cfg1N1G(), 0)
	clean, _ := m.Speed(cfg1N1G(), 0, opt, Contention{})
	loaded, _ := m.Speed(cfg1N1G(), 0, opt, Contention{BandwidthUtil: 0.74})
	if clean != loaded {
		t.Errorf("below-knee contention changed speed: %g -> %g", clean, loaded)
	}
}

// TestPCIeDemand checks §IV-C3: CV-heavy models up to 12 GB/s, NLP/Speech
// under 1 GB/s, and over-capacity co-location costs 5-10%.
func TestPCIeDemand(t *testing.T) {
	for _, name := range []string{"alexnet", "resnet50"} {
		m := mustLookup(t, name)
		d, err := m.PCIeDemand(cfg1N1G())
		if err != nil {
			t.Fatal(err)
		}
		if d != 12 {
			t.Errorf("%s PCIe = %g, want 12", name, d)
		}
	}
	for _, name := range []string{"bat", "transformer", "wavenet", "deepspeech"} {
		m := mustLookup(t, name)
		d, _ := m.PCIeDemand(cfg1N1G())
		if d >= 1 {
			t.Errorf("%s PCIe = %g, want < 1", name, d)
		}
	}
	m := mustLookup(t, "resnet50")
	opt, _ := m.OptimalCores(cfg1N1G(), 0)
	clean, _ := m.Speed(cfg1N1G(), 0, opt, Contention{})
	over, _ := m.Speed(cfg1N1G(), 0, opt, Contention{PCIeUtil: 1.5})
	drop := 1 - over/clean
	if drop < 0.04 || drop > 0.11 {
		t.Errorf("PCIe over-capacity drop = %g, want 5-10%%", drop)
	}
}

func TestIterTime(t *testing.T) {
	m := mustLookup(t, "alexnet")
	def, err := m.IterTime(cfg1N1G(), 0)
	if err != nil {
		t.Fatal(err)
	}
	max, err := m.IterTime(cfg1N1G(), m.MaxBatch)
	if err != nil {
		t.Fatal(err)
	}
	if max <= def {
		t.Errorf("larger batch should take longer per iteration: %v -> %v", def, max)
	}
}

func TestDefaultStartCores(t *testing.T) {
	tests := []struct {
		cat  job.Category
		want int
	}{
		{job.CategoryCV, 3},
		{job.CategoryNLP, 5},
		{job.CategorySpeech, 5},
		{job.CategoryNone, 4},
	}
	for _, tt := range tests {
		if got := DefaultStartCores(tt.cat); got != tt.want {
			t.Errorf("DefaultStartCores(%v) = %d, want %d", tt.cat, got, tt.want)
		}
	}
}

// TestSpeedBoundsProperty: speed is always in (0, 1] for any model, valid
// config, core count and contention.
func TestSpeedBoundsProperty(t *testing.T) {
	names := Names()
	f := func(modelIdx, gpuRaw, coreRaw uint8, bwUtil, llc float64) bool {
		m := mustLookup(t, names[int(modelIdx)%len(names)])
		gpus := int(gpuRaw)%4 + 1
		cores := int(coreRaw)%28 + 1
		c := Contention{
			BandwidthUtil: math.Abs(bwUtil),
			LLCPressure:   clamp01(math.Abs(llc)),
		}
		if math.IsNaN(c.BandwidthUtil) || math.IsInf(c.BandwidthUtil, 0) {
			return true
		}
		s, err := m.Speed(Config{Nodes: 1, GPUs: gpus}, 0, cores, c)
		if err != nil {
			return false
		}
		return s > 0 && s <= 1+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestBandwidthDemandNonNegativeProperty: demand is never negative and
// never exceeds the unstarved demand.
func TestBandwidthDemandNonNegativeProperty(t *testing.T) {
	names := Names()
	f := func(modelIdx, coreRaw uint8) bool {
		m := mustLookup(t, names[int(modelIdx)%len(names)])
		cores := int(coreRaw)%28 + 1
		opt, err := m.OptimalCores(cfg1N1G(), 0)
		if err != nil {
			return false
		}
		d, err := m.BandwidthDemand(cfg1N1G(), 0, cores)
		if err != nil {
			return false
		}
		dOpt, err := m.BandwidthDemand(cfg1N1G(), 0, opt)
		if err != nil {
			return false
		}
		return d >= 0 && d <= dOpt+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
