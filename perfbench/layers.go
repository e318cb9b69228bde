package main

import "time"

// layerInputs is what a traced phase hands to perLayer: the spans, the
// engine's own counters, and the measurements taken around the phase.
type layerInputs struct {
	rec *recorder
	// engine is the wall time the engine ran for: the simulator's Run for
	// batch workloads, the summed control-plane ticks for serve-mixed.
	engine time.Duration
	// overhead is the traced engine time over the untraced one, minus 1.
	overhead float64

	events, throttles, preemptions int64
	traceNext                      time.Duration

	// statusMs are the read-path latencies in ms: status reads timed from
	// their due time (serve-mixed), DumpResult reads (batch).
	statusMs []float64

	// serve-mixed only: per-tick durations, status-read handler times and
	// generator lateness.
	ticks    []float64
	readWait []float64
	lateMs   []float64
}

// perLayer turns a traced phase into the per-layer metric set. Layers a
// workload does not touch report 0: the interaction table in README.md
// predicts exactly those to stay flat.
func perLayer(in layerInputs) map[string]metric {
	m := map[string]metric{}
	st := in.rec.summarize()
	for _, k := range []kind{kSubmit, kTick, kComplete} {
		set(m, kindNames[k]+".calls", float64(st[k].calls))
		set(m, kindNames[k]+".self_ns", ns(st[k].self))
	}
	var schedSelf, envTotal time.Duration
	schedCalls := 0
	for k := kind(0); k < numKinds; k++ {
		switch {
		case k.isSched():
			schedSelf += st[k].self
			schedCalls += st[k].calls
		case k.isEnv():
			envTotal += st[k].total
			set(m, kindNames[k]+".calls", float64(st[k].calls))
			set(m, kindNames[k]+".ns", ns(st[k].total))
		}
	}
	engine := ns(in.engine)
	set(m, "sched.share", ratio(ns(schedSelf), engine))
	set(m, "env.share", ratio(ns(envTotal), engine))

	queries := 0.0
	if in.rec.cluster != nil {
		queries = float64(in.rec.cluster.PlacementQueries())
	}
	set(m, "cluster.placement_queries", queries)
	set(m, "cluster.queries_per_sched_call", ratio(queries, float64(schedCalls)))

	// The simulator's self time is the engine's wall time minus every
	// layer the decorators can see into, each counted once.
	covered := in.rec.topLevel(func(k kind) bool {
		return k.isSched() || k == kInvCheck || k == kWALAppend || k == kCkptSave
	})
	set(m, "sim.events", float64(in.events))
	set(m, "sim.self_s", (in.engine - covered).Seconds())
	set(m, "sim.throttles", float64(in.throttles))
	set(m, "sim.preemptions", float64(in.preemptions))
	set(m, "trace.next_ns", ns(in.traceNext))

	wa := st[kWALAppend]
	set(m, "wal.append.calls", float64(wa.calls))
	set(m, "wal.append.p50_ns", quantile(wa.durs, 0.5))
	set(m, "wal.append.p99_ns", quantile(wa.durs, 0.99))
	set(m, "wal.bytes_per_record", ratio(float64(in.rec.bytes[kWALAppend]), float64(in.rec.records)))
	set(m, "ctl.batch_size", ratio(float64(in.rec.records), float64(wa.calls)))

	cs := st[kCkptSave]
	set(m, "ckpt.save.calls", float64(cs.calls))
	set(m, "ckpt.save.ns", ns(cs.total))
	set(m, "ckpt.bytes", ratio(float64(in.rec.bytes[kCkptSave]), float64(cs.calls)))

	set(m, "inv.sched_check.calls", float64(st[kInvCheck].calls))
	set(m, "inv.sched_check.ns", ns(st[kInvCheck].total))

	set(m, "ctl.tick.p50_ns", quantile(in.ticks, 0.5))
	set(m, "ctl.tick.p99_ns", quantile(in.ticks, 0.99))
	set(m, "ctl.queue_wait_ns", quantile(in.readWait, 0.99))
	set(m, "status_p99_ms", quantile(in.statusMs, 0.99))
	set(m, "gen.late_p99_ms", quantile(in.lateMs, 0.99))
	set(m, "tracing.overhead", in.overhead)
	return m
}

// ratio is a/b, or 0 when b is 0 (a layer the workload never entered).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
