package main

import (
	"container/heap"
	"runtime"
	"time"
)

// The benchmark runs on shared machines whose speed drifts by tens of
// percent over a minute as neighbours come and go. The batch workloads
// therefore time a fixed reference computation of the benchmark's own after
// each replay and divide their timings by the machine's slowdown: the
// reference's measured time over refNominal. The reference does what the
// engine does most, on a working set of the same order: a priority queue
// of timed items, a map of live records that point at each other, steady
// allocation and collection. No change to the engine can change its cost.
const refNominal = 200 * time.Millisecond // about its time on an idle 2-core Xeon VM

type refItem struct {
	at  uint64
	key int
}

type refQueue []refItem

func (q refQueue) Len() int           { return len(q) }
func (q refQueue) Less(i, j int) bool { return q[i].at < q[j].at }
func (q refQueue) Swap(i, j int)      { q[i], q[j] = q[j], q[i] }
func (q *refQueue) Push(x any)        { *q = append(*q, x.(refItem)) }
func (q *refQueue) Pop() any {
	old := *q
	x := old[len(old)-1]
	*q = old[:len(old)-1]
	return x
}

type refRecord struct {
	work, done float64
	prev       *refRecord
}

// refSink keeps the reference's result alive so the compiler cannot drop
// the work.
var refSink float64

// timeReference runs the reference computation once and returns its time.
func timeReference() time.Duration {
	t0 := time.Now()
	x := uint64(88172645463325252)
	live := map[int]*refRecord{}
	q := &refQueue{}
	var prev *refRecord
	for i := 0; i < 400_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		heap.Push(q, refItem{at: x % 1_000_000, key: i})
		r := &refRecord{work: float64(i), prev: prev}
		live[i] = r
		prev = r
		if i%50 == 0 {
			prev = nil
		}
		if q.Len() > 20_000 {
			it := heap.Pop(q).(refItem)
			if done, ok := live[it.key]; ok {
				done.done += done.work
				refSink += done.done
				delete(live, it.key)
			}
		}
	}
	return time.Since(t0)
}

// machineSlowdown runs the reference once on one P, as the batch
// workloads run it, and returns its time over refNominal: above 1 when the
// machine is slower than nominal.
func machineSlowdown() float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	runtime.GC()
	return float64(timeReference()) / float64(refNominal)
}

// appendNormalized appends each of xs divided by the slowdown slow to dst.
func appendNormalized(dst, xs []float64, slow float64) []float64 {
	for _, x := range xs {
		dst = append(dst, x/slow)
	}
	return dst
}
