package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"slices"
	"sync"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// the closest ranks; xs is not modified. An empty slice yields 0.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// ms and ns convert a duration to the float units the metrics report.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func ns(d time.Duration) float64 { return float64(d) }

// heapWatch samples the heap in use (allocated objects, collected or not)
// while a measured run goes on and keeps the peak above the heap at the
// last Arm: how much heap the run itself needed. This is the measure
// cmd/coda-bench's memgate uses. runtime/metrics reads do not stop the
// world, so the sampler costs the run nothing but a wake-up every few
// milliseconds.
type heapWatch struct {
	stop chan struct{}
	done chan struct{}

	mu         sync.Mutex
	base, peak uint64
}

const heapInUse = "/memory/classes/heap/objects:bytes"

// heapBytes reads the heap in use.
func heapBytes() uint64 {
	s := []metrics.Sample{{Name: heapInUse}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

func startHeapWatch() *heapWatch {
	w := &heapWatch{stop: make(chan struct{}), done: make(chan struct{})}
	w.Arm()
	go func() {
		defer close(w.done)
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			w.note(heapBytes())
			select {
			case <-w.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return w
}

func (w *heapWatch) note(b uint64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.peak = max(w.peak, b)
}

// Arm takes the current heap as the baseline of a new peak.
func (w *heapWatch) Arm() {
	b := heapBytes()
	w.mu.Lock()
	defer w.mu.Unlock()
	w.base, w.peak = b, b
}

// Peak returns the peak heap in use since the last Arm, above the
// baseline, in MiB.
func (w *heapWatch) Peak() float64 {
	w.note(heapBytes())
	w.mu.Lock()
	defer w.mu.Unlock()
	return float64(w.peak-w.base) / (1 << 20)
}

// Stop ends sampling and waits for the sampler to exit.
func (w *heapWatch) Stop() {
	close(w.stop)
	<-w.done
}

// liveHeap returns the live heap in MiB after two collections: the first
// frees garbage, the second also the encoders' pooled buffers, which
// survive one.
func liveHeap() float64 {
	runtime.GC()
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return float64(s[0].Value.Uint64()) / (1 << 20)
}
