// Package perfmodel is the analytic stand-in for running real DNN training
// jobs on GPUs. It encodes the paper's characterization study (§III-B,
// §IV): how training speed and GPU utilization respond to the number of
// allocated CPU cores (Fig. 3), the optimal core count per configuration
// and batch size (Fig. 5), memory-bandwidth demand (Fig. 6), sensitivity to
// memory-bandwidth and LLC contention (Fig. 7), and PCIe bandwidth demand
// (§IV-C3). The scheduler treats this package as ground truth the same way
// the paper's system treats the physical cluster: it can only observe the
// resulting GPU utilization, never the curves themselves.
package perfmodel

import (
	"fmt"
	"math"
	"time"

	"github.com/coda-repro/coda/internal/job"
)

// Config is the paper's aNbG training configuration: a nodes, b GPUs total.
type Config struct {
	// Nodes is the node count the job spans.
	Nodes int
	// GPUs is the total GPU count.
	GPUs int
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Nodes <= 0 {
		return fmt.Errorf("perfmodel: nodes must be positive, got %d", c.Nodes)
	}
	if c.GPUs < c.Nodes {
		return fmt.Errorf("perfmodel: %d gpus cannot span %d nodes", c.GPUs, c.Nodes)
	}
	if c.GPUs%c.Nodes != 0 {
		return fmt.Errorf("perfmodel: %d gpus not divisible across %d nodes", c.GPUs, c.Nodes)
	}
	return nil
}

// GPUsPerNode returns the per-node GPU count.
func (c Config) GPUsPerNode() int { return c.GPUs / c.Nodes }

// String formats the configuration as the paper does, e.g. "1N4G".
func (c Config) String() string { return fmt.Sprintf("%dN%dG", c.Nodes, c.GPUs) }

// Model is one benchmark from Table I plus its calibrated response curves.
// All curve parameters are normalized to the 1N1G default-batch operating
// point.
type Model struct {
	// Name is the lower-case benchmark name ("alexnet", "vgg16", ...).
	Name string
	// Category is the DNN domain.
	Category job.Category
	// DefaultBatch and MaxBatch are the batch sizes Fig. 5 sweeps.
	DefaultBatch, MaxBatch int

	// optCores1G is the optimal core count at 1N1G with the default batch.
	optCores1G int
	// optSlope is the per-extra-GPU growth of the optimal core count on a
	// single node (§IV-B2: linear in GPU count; slope set by the model's
	// data-preprocessing demand).
	optSlope float64
	// batchGrowsOpt marks models whose optimal core count rises with batch
	// size (only Alexnet in Fig. 5).
	batchGrowsOpt bool

	// rampFloor is the normalized speed at 1 core (Fig. 3 shows gaps from
	// 10% to >5x between starved and optimal allocations).
	rampFloor float64
	// rampExp shapes the ramp (>1 makes starvation more punishing).
	rampExp float64
	// overPenalty is the normalized speed lost per core beyond the optimal
	// ("the corresponding GPU utilization drops slightly", §V-B).
	overPenalty float64
	// peakUtil is the GPU utilization at the optimal core count.
	peakUtil float64

	// bwAtOpt is the memory-bandwidth demand in GB/s at the 1N1G
	// default-batch optimal point (Fig. 6).
	bwAtOpt float64
	// bwBatchFactor scales demand at the max batch (1.0 = flat).
	bwBatchFactor float64
	// bwSensitivity is the fraction of speed lost under full memory-
	// bandwidth contention pressure (Fig. 7).
	bwSensitivity float64
	// llcSensitivity is the analogous LLC fraction (≈0 for all models).
	llcSensitivity float64

	// pcieGBs is the peak PCIe demand in GB/s (§IV-C3).
	pcieGBs float64

	// iterTime is the wall-clock time of one training iteration at the
	// optimal operating point (calibrated to Table II's iteration counts).
	iterTime time.Duration
}

// multiNodePeak is the normalized peak speed of multi-node configurations:
// "all models have 25%-30% performance degradation compared to 1N4G"
// (§IV-B2). We use the midpoint.
const multiNodePeak = 0.725

// multiNodeOptCores caps the per-node optimal core count of multi-node
// jobs: "the CPU requirements of all models are no more than two cores"
// (§IV-B2).
const multiNodeOptCores = 2

// catalog is the full benchmark set of Table I with parameters calibrated
// to the paper's reported shapes. See DESIGN.md for the calibration notes.
var catalog = []Model{
	{
		Name: "alexnet", Category: job.CategoryCV, DefaultBatch: 256, MaxBatch: 512,
		optCores1G: 6, optSlope: 0.55, batchGrowsOpt: true,
		rampFloor: 0.10, rampExp: 1.6, overPenalty: 0.030, peakUtil: 0.92,
		bwAtOpt: 12.0, bwBatchFactor: 1.25, bwSensitivity: 0.40, llcSensitivity: 0.03,
		pcieGBs: 12.0, iterTime: 1400 * time.Millisecond,
	},
	{
		Name: "vgg16", Category: job.CategoryCV, DefaultBatch: 64, MaxBatch: 128,
		optCores1G: 4, optSlope: 0.50, batchGrowsOpt: false,
		rampFloor: 0.40, rampExp: 1.3, overPenalty: 0.025, peakUtil: 0.97,
		bwAtOpt: 6.0, bwBatchFactor: 1.10, bwSensitivity: 0.08, llcSensitivity: 0.02,
		pcieGBs: 8.0, iterTime: 5100 * time.Millisecond,
	},
	{
		Name: "inception3", Category: job.CategoryCV, DefaultBatch: 64, MaxBatch: 128,
		optCores1G: 3, optSlope: 0.50, batchGrowsOpt: false,
		rampFloor: 0.55, rampExp: 1.2, overPenalty: 0.025, peakUtil: 0.96,
		bwAtOpt: 4.0, bwBatchFactor: 1.10, bwSensitivity: 0.06, llcSensitivity: 0.02,
		pcieGBs: 6.0, iterTime: 1500 * time.Millisecond,
	},
	{
		Name: "resnet50", Category: job.CategoryCV, DefaultBatch: 64, MaxBatch: 128,
		optCores1G: 3, optSlope: 0.50, batchGrowsOpt: false,
		rampFloor: 0.50, rampExp: 1.2, overPenalty: 0.025, peakUtil: 0.97,
		bwAtOpt: 5.0, bwBatchFactor: 1.10, bwSensitivity: 0.07, llcSensitivity: 0.02,
		pcieGBs: 12.0, iterTime: 1800 * time.Millisecond,
	},
	{
		Name: "bat", Category: job.CategoryNLP, DefaultBatch: 32, MaxBatch: 64,
		optCores1G: 5, optSlope: 0.40, batchGrowsOpt: false,
		rampFloor: 0.35, rampExp: 1.3, overPenalty: 0.025, peakUtil: 0.90,
		bwAtOpt: 1.0, bwBatchFactor: 1.00, bwSensitivity: 0.60, llcSensitivity: 0.03,
		pcieGBs: 0.8, iterTime: 10300 * time.Millisecond,
	},
	{
		Name: "transformer", Category: job.CategoryNLP, DefaultBatch: 64, MaxBatch: 128,
		optCores1G: 2, optSlope: 0.40, batchGrowsOpt: false,
		rampFloor: 0.75, rampExp: 1.1, overPenalty: 0.025, peakUtil: 0.93,
		bwAtOpt: 0.8, bwBatchFactor: 1.00, bwSensitivity: 0.55, llcSensitivity: 0.03,
		pcieGBs: 0.6, iterTime: 1040 * time.Millisecond,
	},
	{
		Name: "wavenet", Category: job.CategorySpeech, DefaultBatch: 16, MaxBatch: 32,
		optCores1G: 6, optSlope: 0.50, batchGrowsOpt: false,
		rampFloor: 0.35, rampExp: 1.3, overPenalty: 0.025, peakUtil: 0.91,
		bwAtOpt: 7.0, bwBatchFactor: 1.35, bwSensitivity: 0.22, llcSensitivity: 0.02,
		pcieGBs: 0.9, iterTime: 9600 * time.Millisecond,
	},
	{
		Name: "deepspeech", Category: job.CategorySpeech, DefaultBatch: 32, MaxBatch: 64,
		optCores1G: 4, optSlope: 0.50, batchGrowsOpt: false,
		rampFloor: 0.45, rampExp: 1.2, overPenalty: 0.025, peakUtil: 0.92,
		bwAtOpt: 5.0, bwBatchFactor: 1.00, bwSensitivity: 0.35, llcSensitivity: 0.02,
		pcieGBs: 0.8, iterTime: 6000 * time.Millisecond,
	},
}

// index maps name → catalog position.
var index = buildIndex()

func buildIndex() map[string]int {
	m := make(map[string]int, len(catalog))
	for i, model := range catalog {
		m[model.Name] = i
	}
	return m
}

// Names returns all benchmark names in catalog order.
func Names() []string {
	names := make([]string, len(catalog))
	for i, m := range catalog {
		names[i] = m.Name
	}
	return names
}

// Lookup returns the model by name.
func Lookup(name string) (*Model, error) {
	i, ok := index[name]
	if !ok {
		return nil, fmt.Errorf("perfmodel: unknown model %q", name)
	}
	m := catalog[i]
	return &m, nil
}

// batch resolves a possibly-zero batch size to the default.
func (m *Model) batch(b int) int {
	if b <= 0 {
		return m.DefaultBatch
	}
	return b
}

// OptimalCores returns the per-node optimal core count for the
// configuration and batch size (Fig. 5):
//   - single-node: linear in the per-node GPU count with a model-specific
//     slope; independent of batch size except Alexnet;
//   - multi-node: capped at two cores (network-bound, §IV-B2).
func (m *Model) OptimalCores(cfg Config, batchSize int) (int, error) {
	if err := cfg.Validate(); err != nil {
		return 0, err
	}
	if cfg.Nodes > 1 {
		return multiNodeOptCores, nil
	}
	g := float64(cfg.GPUsPerNode())
	opt := float64(m.optCores1G) * (1 + m.optSlope*(g-1))
	if m.batchGrowsOpt && m.batch(batchSize) > m.DefaultBatch {
		opt *= 1.0 + 0.3*math.Log2(float64(m.batch(batchSize))/float64(m.DefaultBatch))
	}
	n := int(math.Round(opt))
	if n < 1 {
		n = 1
	}
	return n, nil
}

// Contention describes the CPU-side shared-resource pressure a node exerts
// on a training job. BandwidthUtil is the node's total unthrottled memory-
// bandwidth demand divided by capacity (may exceed 1 under overload);
// LLCPressure is in [0, 1]; PCIeUtil is total PCIe demand over capacity.
type Contention struct {
	// BandwidthUtil is demand/capacity of node memory bandwidth.
	BandwidthUtil float64
	// LLCPressure is the normalized last-level-cache pressure.
	LLCPressure float64
	// PCIeUtil is demand/capacity of node PCIe bandwidth.
	PCIeUtil float64
}

// bwPressureKnee is where bandwidth contention starts to bite; the paper's
// eliminator threshold (75%) sits exactly at this knee (§V-D).
const bwPressureKnee = 0.75

// bwPressureSpan maps utilization bwPressureKnee..bwPressureKnee+span onto
// pressure 0..1.
const bwPressureSpan = 0.45

// contentionFactor converts contention into a multiplicative speed factor.
func (m *Model) contentionFactor(c Contention) float64 {
	factor := 1.0
	if p := clamp01((c.BandwidthUtil - bwPressureKnee) / bwPressureSpan); p > 0 {
		factor *= 1 - m.bwSensitivity*p
	}
	if c.LLCPressure > 0 {
		factor *= 1 - m.llcSensitivity*clamp01(c.LLCPressure)
	}
	if c.PCIeUtil > 1 {
		// Co-running past PCIe capacity costs 5-10% (§IV-C3).
		factor *= 1 - 0.10*clamp01(c.PCIeUtil-1)
	}
	if factor < 0.05 {
		factor = 0.05
	}
	return factor
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// Speed returns the normalized training speed in (0, 1] for the model
// running under cfg with the given per-node core allocation and contention.
// 1.0 is the speed at the 1N1G optimal core count without contention;
// multi-node configurations peak at multiNodePeak (§IV-B2).
func (m *Model) Speed(cfg Config, batchSize, coresPerNode int, c Contention) (float64, error) {
	if err := cfg.Validate(); err != nil {
		return 0, err
	}
	if coresPerNode < 1 {
		return 0, fmt.Errorf("perfmodel: cores per node must be >= 1, got %d", coresPerNode)
	}
	opt, err := m.OptimalCores(cfg, batchSize)
	if err != nil {
		return 0, err
	}
	var ramp float64
	switch {
	case coresPerNode >= opt:
		ramp = 1 - m.overPenalty*float64(coresPerNode-opt)
		if ramp < 0.5 {
			ramp = 0.5
		}
	case opt == 1:
		ramp = 1
	default:
		x := float64(coresPerNode-1) / float64(opt-1)
		ramp = m.rampFloor + (1-m.rampFloor)*math.Pow(x, m.rampExp)
	}
	peak := 1.0
	if cfg.Nodes > 1 {
		peak = multiNodePeak
	}
	return peak * ramp * m.contentionFactor(c), nil
}

// GPUUtil returns the GPU utilization in [0, 1] at the given operating
// point. Utilization and speed move together (§V-B: "a DNN training job's
// GPU utilization rate and running speed change in a similar trend, and
// they reach the optimal value at the same CPU number").
func (m *Model) GPUUtil(cfg Config, batchSize, coresPerNode int, c Contention) (float64, error) {
	speed, err := m.Speed(cfg, batchSize, coresPerNode, c)
	if err != nil {
		return 0, err
	}
	return m.UtilAtSpeed(speed), nil
}

// UtilAtSpeed returns the GPU utilization at an operating point where Speed
// returned speed: GPUUtil without re-running the model, for a caller that
// keeps the speed.
func (m *Model) UtilAtSpeed(speed float64) float64 { return m.peakUtil * speed }

// BandwidthDemand returns the per-node memory-bandwidth demand in GB/s at
// the given operating point (Fig. 6): linear in the per-node GPU count,
// batch-sensitive only for the models the paper flags (Alexnet slightly,
// Wavenet strongly), and proportional to the achieved data-preparation
// speed when the job is core-starved.
func (m *Model) BandwidthDemand(cfg Config, batchSize, coresPerNode int) (float64, error) {
	if err := cfg.Validate(); err != nil {
		return 0, err
	}
	if coresPerNode < 1 {
		return 0, fmt.Errorf("perfmodel: cores per node must be >= 1, got %d", coresPerNode)
	}
	demand := m.bwAtOpt * float64(cfg.GPUsPerNode())
	if m.batch(batchSize) > m.DefaultBatch {
		demand *= m.bwBatchFactor
	}
	if cfg.Nodes > 1 {
		demand *= multiNodePeak // network-bound jobs prepare data slower
	}
	// Core starvation slows data preparation, shrinking bandwidth use.
	speed, err := m.Speed(cfg, batchSize, coresPerNode, Contention{})
	if err != nil {
		return 0, err
	}
	peak := 1.0
	if cfg.Nodes > 1 {
		peak = multiNodePeak
	}
	return demand * speed / peak, nil
}

// PCIeDemand returns the job's per-node PCIe bandwidth demand in GB/s.
func (m *Model) PCIeDemand(cfg Config) (float64, error) {
	if err := cfg.Validate(); err != nil {
		return 0, err
	}
	return m.pcieGBs * float64(cfg.GPUsPerNode()), nil
}

// IterTime returns the wall-clock duration of one training iteration at
// full speed; dividing a profiling step's length by it gives Table II's
// "training iterations" column.
func (m *Model) IterTime(cfg Config, batchSize int) (time.Duration, error) {
	if err := cfg.Validate(); err != nil {
		return 0, err
	}
	d := m.iterTime
	if m.batch(batchSize) > m.DefaultBatch {
		d = time.Duration(float64(d) * float64(m.batch(batchSize)) / float64(m.DefaultBatch))
	}
	return d, nil
}

// DefaultStartCores is the allocator's empirical Nstart per category for
// first-time tenants: "we choose 3 for CV models, 5 for NLP models, and 5
// for SPEECH models" (§V-B1).
func DefaultStartCores(c job.Category) int {
	switch c {
	case job.CategoryCV:
		return 3
	case job.CategoryNLP:
		return 5
	case job.CategorySpeech:
		return 5
	default:
		return 4 // no category disclosed: a middle-of-the-road seed
	}
}
