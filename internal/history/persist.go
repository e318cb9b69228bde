package history

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"

	"github.com/coda-repro/coda/internal/checkpoint/atomicio"
	"github.com/coda-repro/coda/internal/job"
)

// snapshot is the serialized form of the log's aggregates. Per-job records
// are folded into aggregates at Add time, so persistence is O(tenants),
// not O(jobs). Older snapshots also carry "cpuJobCount", "maxJobGPUs" and
// "largeJobGPUs" counters that no statistic reads; decoding ignores them.
type snapshot struct {
	ByOwnerCategory []ownerCategoryEntry `json:"byOwnerCategory"`
	ByOwner         []ownerEntry         `json:"byOwner"`
	GPUJobCount     int                  `json:"gpuJobCount"`
	SumGPUJobCore   int                  `json:"sumGPUJobCore"`
	SumGPUJobGPUs   int                  `json:"sumGPUJobGPUs"`
	SumLargeGPUs    int                  `json:"sumLargeGPUs"`
}

// Snapshots written before the raw largest core count was dropped also
// carry a "maxCores" key per entry; decoding ignores it.
type ownerCategoryEntry struct {
	Tenant    int     `json:"tenant"`
	Category  int     `json:"category"`
	MaxPerGPU float64 `json:"maxPerGPU"`
	Count     int     `json:"count"`
}

type ownerEntry struct {
	Tenant    int     `json:"tenant"`
	MaxPerGPU float64 `json:"maxPerGPU"`
	Count     int     `json:"count"`
}

// Save serializes the log so a restarted scheduler keeps its Nstart
// seeding and array statistics (§V-A step 5: records are kept "for future
// use").
func (l *Log) Save(w io.Writer) error {
	l.mu.RLock()
	defer l.mu.RUnlock()
	snap := snapshot{
		GPUJobCount:   l.gpuJobCount,
		SumGPUJobCore: l.sumGPUJobCore,
		SumGPUJobGPUs: l.sumGPUJobGPUs,
		SumLargeGPUs:  l.sumLargeGPUs,
	}
	// Entries are sorted so the serialized snapshot is byte-identical across
	// runs (map iteration order would otherwise leak into the output).
	for k, agg := range l.byOwnerCategory {
		snap.ByOwnerCategory = append(snap.ByOwnerCategory, ownerCategoryEntry{
			Tenant:    int(k.tenant),
			Category:  int(k.category),
			MaxPerGPU: agg.maxPerGPU,
			Count:     agg.count,
		})
	}
	sort.Slice(snap.ByOwnerCategory, func(i, j int) bool {
		a, b := snap.ByOwnerCategory[i], snap.ByOwnerCategory[j]
		if a.Tenant != b.Tenant {
			return a.Tenant < b.Tenant
		}
		return a.Category < b.Category
	})
	for t, agg := range l.byOwner {
		snap.ByOwner = append(snap.ByOwner, ownerEntry{
			Tenant:    int(t),
			MaxPerGPU: agg.maxPerGPU,
			Count:     agg.count,
		})
	}
	sort.Slice(snap.ByOwner, func(i, j int) bool {
		return snap.ByOwner[i].Tenant < snap.ByOwner[j].Tenant
	})
	bw := bufio.NewWriter(w)
	if err := json.NewEncoder(bw).Encode(snap); err != nil {
		return fmt.Errorf("history: encode: %w", err)
	}
	return bw.Flush()
}

// SaveFile writes the log crash-atomically to path: a crash mid-save leaves
// the previous snapshot intact instead of a torn half-write.
func (l *Log) SaveFile(path string) error {
	var buf bytes.Buffer
	if err := l.Save(&buf); err != nil {
		return err
	}
	return atomicio.WriteFile(path, buf.Bytes(), 0o644)
}

// validMaxPerGPU rejects the values a saved per-GPU core maximum can never
// take: NaN, ±Inf, zero and negative. Add only aggregates single-node
// training jobs with at least one core, so every saved maximum is positive.
func validMaxPerGPU(v float64) bool {
	return !math.IsNaN(v) && !math.IsInf(v, 0) && v > 0
}

// Load restores a log saved with Save.
func Load(r io.Reader) (*Log, error) {
	var snap snapshot
	if err := json.NewDecoder(r).Decode(&snap); err != nil {
		return nil, fmt.Errorf("history: decode: %w", err)
	}
	if snap.GPUJobCount < 0 || snap.SumGPUJobCore < 0 {
		return nil, fmt.Errorf("history: corrupt snapshot (negative counters)")
	}
	l := NewLog()
	l.gpuJobCount = snap.GPUJobCount
	l.sumGPUJobCore = snap.SumGPUJobCore
	l.sumGPUJobGPUs = snap.SumGPUJobGPUs
	l.sumLargeGPUs = snap.SumLargeGPUs
	for _, e := range snap.ByOwnerCategory {
		if e.Count <= 0 || !validMaxPerGPU(e.MaxPerGPU) {
			return nil, fmt.Errorf("history: corrupt owner-category entry %+v", e)
		}
		l.byOwnerCategory[key{
			tenant:   job.TenantID(e.Tenant),
			category: job.Category(e.Category),
		}] = aggregate{maxPerGPU: e.MaxPerGPU, count: e.Count}
	}
	for _, e := range snap.ByOwner {
		if e.Count <= 0 || !validMaxPerGPU(e.MaxPerGPU) {
			return nil, fmt.Errorf("history: corrupt owner entry %+v", e)
		}
		l.byOwner[job.TenantID(e.Tenant)] = aggregate{maxPerGPU: e.MaxPerGPU, count: e.Count}
	}
	return l, nil
}
