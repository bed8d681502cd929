package main

import (
	"math"
	"runtime/metrics"
	"sort"

	"repro/internal/bench"
)

// metric declares one number the benchmark reports: its unit, which
// direction is better and, for end-to-end metrics, the share of the
// baseline median by which it may worsen before a change counts as a
// regression. BENCHMARK.json at the repository root repeats these tables;
// the smoke test holds the two equal.
type metric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics an untraced run prints. Every workload prints
// every one; what "latency" and "records" mean on each workload is in
// README.md. The bounds are wide because the sandbox host's speed drifts by
// tens of percent over tens of seconds; README.md has the measured spreads.
var endToEnd = []metric{
	{"setup_s", "s", "lower", 0.25},
	{"latency_ms.p50", "ms", "lower", 0.25},
	{"records_per_s", "1/s", "higher", 0.25},
	{"heap_mb.peak", "MB", "lower", 0.15},
}

// perLayer are the metrics a traced run prints.
var perLayer = layerMetrics()

func layerMetrics() []metric {
	ms := []metric{
		{"tracing.coverage", "frac", "higher", 0},
		{"tracing.overhead_pct", "%", "lower", 0},
		{"runtime.alloc_mb_per_op", "MB", "lower", 0},
		{"runtime.gc_cpu_frac", "frac", "lower", 0},
		{"workload.gen_ns_per_rec", "ns", "lower", 0},
		{"trace.blocks_ns_per_rec", "ns", "lower", 0},
		{"trace.decode_ns_per_rec", "ns", "lower", 0},
		{"tracecache.generated_per_pass", "count", "lower", 0},
		{"tracecache.hits_per_pass", "count", "higher", 0},
		{"tracecache.call_ms_per_pass", "ms", "lower", 0},
		{"tracecache.resident_mb", "MB", "lower", 0},
		{"sched.idle_frac", "frac", "lower", 0},
		{"ras.block_ns_per_rec", "ns", "lower", 0},
		{"report.render_ms_per_pass", "ms", "lower", 0},
		{"serve.upload_overhead_ms.p50", "ms", "lower", 0},
		{"serve.predict_overhead_ms.p50", "ms", "lower", 0},
		{"serve.server_predict_ms.p50", "ms", "lower", 0},
		{"serve.server_predict_ms.p99", "ms", "lower", 0},
		{"serve.warmstart_ms.p50", "ms", "lower", 0},
		{"serve.rejected", "count", "lower", 0},
		{"serve.predict_ms.p90", "ms", "lower", 0},
		{"loadgen.latency_ms.p90", "ms", "lower", 0},
		{"loadgen.late_ms.p95", "ms", "lower", 0},
		{"loadgen.peak_latency_ms.p50", "ms", "lower", 0},
		{"loadgen.peak_latency_ms.p90", "ms", "lower", 0},
	}
	for _, kind := range []struct{ prefix, unit string }{
		{"sim.block_ns_per_rec.", "ns"},
		{"sim.record_ns_per_rec.", "ns"},
		{"sim.predicted_ns_per_rec.", "ns"},
		{"state.save_us.", "us"},
		{"state.load_us.", "us"},
		{"state.bytes.", "B"},
	} {
		for _, f := range bench.PredictorNames() {
			ms = append(ms, metric{kind.prefix + f, kind.unit, "lower", 0})
		}
	}
	return ms
}

// stat is a metric's value with the quartiles and size of the samples it
// was computed from. A metric computed from one measurement has n = 1 and
// q1 = q3 = value.
type stat struct {
	Value float64 `json:"value"`
	Q1    float64 `json:"q1"`
	Q3    float64 `json:"q3"`
	N     int     `json:"n"`
}

// one wraps a single measurement as a stat.
func one(v float64) stat { return stat{Value: v, Q1: v, Q3: v, N: 1} }

// summarize returns the p-quantile of xs with the samples' quartiles.
func summarize(xs []float64, p float64) stat {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return stat{Value: quantile(s, p), Q1: quantile(s, 0.25), Q3: quantile(s, 0.75), N: len(s)}
}

// quantile is the linearly interpolated p-quantile of sorted samples, 0 for
// none.
func quantile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := p * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

// median is quantile 0.5 of unsorted samples.
func median(xs []float64) float64 { return summarize(xs, 0.5).Value }

// runtimeSample reads the Go runtime counters the benchmark reports:
// bytes allocated so far, GC and total CPU seconds, and heap bytes in use
// (live objects plus fragmentation in spans, the HeapInuse of MemStats).
type runtimeSample struct {
	allocBytes float64
	gcCPU      float64
	totalCPU   float64
	heapInuse  float64
}

var runtimeNames = []string{
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/memory/classes/heap/objects:bytes",
	"/memory/classes/heap/unused:bytes",
}

func readRuntime() runtimeSample {
	ss := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		ss[i].Name = n
	}
	metrics.Read(ss)
	v := func(i int) float64 {
		switch ss[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(ss[i].Value.Uint64())
		case metrics.KindFloat64:
			return ss[i].Value.Float64()
		}
		return 0
	}
	return runtimeSample{
		allocBytes: v(0),
		gcCPU:      v(1),
		totalCPU:   v(2),
		heapInuse:  v(3) + v(4),
	}
}

// heapMB is the heap in use now, in MB.
func heapMB() float64 { return readRuntime().heapInuse / 1e6 }
