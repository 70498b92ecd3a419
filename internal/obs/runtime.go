package obs

import (
	"math"
	"runtime/metrics"
)

// runtimeGauges maps the runtime/metrics series SampleRuntime reads onto
// the runtime_* gauges it sets.
var runtimeGauges = []struct{ sample, gauge, help string }{
	{"/memory/classes/heap/objects:bytes", "runtime_heap_bytes", "Live heap memory (bytes of live objects)"},
	{"/sched/goroutines:goroutines", "runtime_goroutines", "Current goroutine count"},
	{"/gc/cycles/total:gc-cycles", "runtime_gc_cycles_total", "Completed GC cycles"},
	{"/gc/pauses:seconds", "runtime_gc_pause_seconds_total",
		"Approximate cumulative stop-the-world GC pause seconds (bucket-midpoint sum)"},
}

// SampleRuntime takes one reading of Go runtime health — live heap bytes,
// goroutine count, GC cycles and cumulative GC pause time — via the
// runtime/metrics package, and publishes it to runtime_* gauges on reg (a
// nil registry is a no-op). The GC pause total is approximated from the
// runtime's pause-time histogram by a count-weighted bucket-midpoint sum
// (the runtime does not export an exact total); the approximation error is
// bounded by the bucket widths and is cumulative-monotone like the true
// total.
func SampleRuntime(reg *Registry) {
	if reg == nil {
		return
	}
	samples := make([]metrics.Sample, len(runtimeGauges))
	for i, g := range runtimeGauges {
		samples[i].Name = g.sample
	}
	metrics.Read(samples)
	for i, g := range runtimeGauges {
		gauge := reg.Gauge(g.gauge, g.help)
		switch v := samples[i].Value; v.Kind() {
		case metrics.KindUint64:
			gauge.Set(float64(v.Uint64()))
		case metrics.KindFloat64Histogram:
			gauge.Set(histogramApproxSum(v.Float64Histogram()))
		}
	}
}

// histogramApproxSum estimates the sum of a runtime Float64Histogram by
// weighting each bucket's count with its midpoint (finite edges only).
func histogramApproxSum(h *metrics.Float64Histogram) float64 {
	if h == nil {
		return 0
	}
	var sum float64
	for i, count := range h.Counts {
		if count == 0 {
			continue
		}
		lo, hi := h.Buckets[i], h.Buckets[i+1]
		if math.IsInf(lo, -1) {
			lo = 0
		}
		if math.IsInf(hi, 1) {
			hi = lo
		}
		sum += float64(count) * (lo + hi) / 2
	}
	return sum
}
