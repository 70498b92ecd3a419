// Package obs is the observability layer: a lock-cheap metrics registry
// (counters, gauges, fixed-bucket histograms) snapshotable as a
// Prometheus-style text page or JSON, and a structured tracer emitting
// tuning-round span trees as JSONL. Instrumented packages hold nil-able
// handles, so with no registry or sink attached every call collapses to a
// nil check — deterministic experiment output and hot-path benchmarks are
// unaffected unless observability is explicitly switched on.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing int64, safe for concurrent use.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n (n must be >= 0).
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a float64 that can go up and down, safe for concurrent use.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores the gauge value.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add offsets the gauge by d (CAS loop; contention-tolerant).
func (g *Gauge) Add(d float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + d)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current gauge value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram counts observations into fixed buckets. Bucket i counts
// observations v <= Bounds[i] (Prometheus "le" convention); one implicit
// +Inf bucket catches the rest. Observe is lock-free.
type Histogram struct {
	bounds []float64
	counts []atomic.Int64 // len(bounds)+1; last is +Inf
	sum    atomic.Uint64  // float64 bits, CAS-accumulated
	count  atomic.Int64
}

// LogBuckets returns geometrically spaced histogram bounds from min to at
// least max, with perDecade buckets per factor of ten (growth factor
// 10^(1/perDecade)). Log spacing keeps the relative quantile-estimation
// error constant across the range, which is what latency distributions
// need: a fixed-width grid sized for the p99 would merge every fast
// request into one bucket. Invalid arguments (min <= 0, max <= min,
// perDecade < 1) yield a single-bucket fallback {min-or-1}.
func LogBuckets(min, max float64, perDecade int) []float64 {
	if min <= 0 || max <= min || perDecade < 1 {
		if min <= 0 {
			min = 1
		}
		return []float64{min}
	}
	growth := math.Pow(10, 1/float64(perDecade))
	var out []float64
	// Generate by exponent (not repeated multiplication) so the schedule is
	// reproducible regardless of accumulation order.
	for i := 0; ; i++ {
		b := min * math.Pow(growth, float64(i))
		out = append(out, b)
		if b >= max || len(out) >= 512 {
			break
		}
	}
	return out
}

func newHistogram(bounds []float64) *Histogram {
	b := append([]float64{}, bounds...)
	sort.Float64s(b)
	return &Histogram{bounds: b, counts: make([]atomic.Int64, len(b)+1)}
}

// Observe records one value. NaN observations are dropped: comparison
// semantics would otherwise land them in an arbitrary bucket and poison the
// running sum, so a NaN latency (an unmeasured sample) is simply not a data
// point.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	if math.IsNaN(v) {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v, i.e. v <= bounds[i]
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the total number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// Buckets returns (upper bound, cumulative count) pairs including +Inf.
func (h *Histogram) Buckets() ([]float64, []int64) {
	if h == nil {
		return nil, nil
	}
	bounds := append(append([]float64{}, h.bounds...), math.Inf(1))
	cum := make([]int64, len(h.counts))
	var running int64
	for i := range h.counts {
		running += h.counts[i].Load()
		cum[i] = running
	}
	return bounds, cum
}

// CounterVec is a family of counters keyed by one label value (e.g. a
// per-index probe counter). Lookup takes an RLock on the fast path.
type CounterVec struct {
	label string
	mu    sync.RWMutex
	m     map[string]*Counter
}

// With returns (creating if needed) the counter for a label value.
func (v *CounterVec) With(value string) *Counter {
	if v == nil {
		return nil
	}
	v.mu.RLock()
	c := v.m[value]
	v.mu.RUnlock()
	if c != nil {
		return c
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if c = v.m[value]; c == nil {
		c = &Counter{}
		v.m[value] = c
	}
	return c
}

// Values returns a copy of the current label → count mapping.
func (v *CounterVec) Values() map[string]int64 {
	if v == nil {
		return nil
	}
	v.mu.RLock()
	defer v.mu.RUnlock()
	out := make(map[string]int64, len(v.m))
	for k, c := range v.m {
		out[k] = c.Value()
	}
	return out
}

// GaugeVec is a family of gauges keyed by one label value (e.g. per-index
// B+Tree height).
type GaugeVec struct {
	label string
	mu    sync.RWMutex
	m     map[string]*Gauge
}

// With returns (creating if needed) the gauge for a label value.
func (v *GaugeVec) With(value string) *Gauge {
	if v == nil {
		return nil
	}
	v.mu.RLock()
	g := v.m[value]
	v.mu.RUnlock()
	if g != nil {
		return g
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if g = v.m[value]; g == nil {
		g = &Gauge{}
		v.m[value] = g
	}
	return g
}

// Delete removes a label's gauge (e.g. after DROP INDEX).
func (v *GaugeVec) Delete(value string) {
	if v == nil {
		return
	}
	v.mu.Lock()
	delete(v.m, value)
	v.mu.Unlock()
}

// Values returns a copy of the current label → value mapping.
func (v *GaugeVec) Values() map[string]float64 {
	if v == nil {
		return nil
	}
	v.mu.RLock()
	defer v.mu.RUnlock()
	out := make(map[string]float64, len(v.m))
	for k, g := range v.m {
		out[k] = g.Value()
	}
	return out
}

// metricKind tags registry entries for rendering.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
	kindCounterVec
	kindGaugeVec
)

type metric struct {
	name string
	help string
	kind metricKind
	c    *Counter
	g    *Gauge
	h    *Histogram
	cv   *CounterVec
	gv   *GaugeVec
}

// Registry holds named metrics. Get-or-create accessors are idempotent:
// asking twice for the same name returns the same instrument, so independent
// components can share one registry without coordination.
type Registry struct {
	mu      sync.RWMutex
	metrics map[string]*metric
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{metrics: make(map[string]*metric)}
}

func (r *Registry) lookup(name string) *metric {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.metrics[name]
}

// Counter returns the named counter, registering it on first use. A nil
// registry returns a nil (no-op) counter.
func (r *Registry) Counter(name, help string) *Counter {
	if r == nil {
		return nil
	}
	if m := r.lookup(name); m != nil {
		return m.c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if m := r.metrics[name]; m != nil {
		return m.c
	}
	m := &metric{name: name, help: help, kind: kindCounter, c: &Counter{}}
	r.metrics[name] = m
	return m.c
}

// Gauge returns the named gauge, registering it on first use.
func (r *Registry) Gauge(name, help string) *Gauge {
	if r == nil {
		return nil
	}
	if m := r.lookup(name); m != nil {
		return m.g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if m := r.metrics[name]; m != nil {
		return m.g
	}
	m := &metric{name: name, help: help, kind: kindGauge, g: &Gauge{}}
	r.metrics[name] = m
	return m.g
}

// Histogram returns the named histogram, registering it on first use with
// the given bucket upper bounds (sorted internally; +Inf is implicit).
// Bounds are fixed at first registration — later calls reuse the original.
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	if m := r.lookup(name); m != nil {
		return m.h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if m := r.metrics[name]; m != nil {
		return m.h
	}
	m := &metric{name: name, help: help, kind: kindHistogram, h: newHistogram(bounds)}
	r.metrics[name] = m
	return m.h
}

// LookupHistogram returns the named histogram if (and only if) one is
// already registered — unlike Histogram it never creates. Snapshot writers
// use it to read instruments that may or may not have been exercised.
func (r *Registry) LookupHistogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	if m := r.lookup(name); m != nil {
		return m.h
	}
	return nil
}

// CounterVec returns the named labeled-counter family.
func (r *Registry) CounterVec(name, help, label string) *CounterVec {
	if r == nil {
		return nil
	}
	if m := r.lookup(name); m != nil {
		return m.cv
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if m := r.metrics[name]; m != nil {
		return m.cv
	}
	m := &metric{name: name, help: help, kind: kindCounterVec,
		cv: &CounterVec{label: label, m: make(map[string]*Counter)}}
	r.metrics[name] = m
	return m.cv
}

// GaugeVec returns the named labeled-gauge family.
func (r *Registry) GaugeVec(name, help, label string) *GaugeVec {
	if r == nil {
		return nil
	}
	if m := r.lookup(name); m != nil {
		return m.gv
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if m := r.metrics[name]; m != nil {
		return m.gv
	}
	m := &metric{name: name, help: help, kind: kindGaugeVec,
		gv: &GaugeVec{label: label, m: make(map[string]*Gauge)}}
	r.metrics[name] = m
	return m.gv
}

// sortedMetrics snapshots the registry in name order (deterministic output).
func (r *Registry) sortedMetrics() []*metric {
	r.mu.RLock()
	out := make([]*metric, 0, len(r.metrics))
	for _, m := range r.metrics {
		out = append(out, m)
	}
	r.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// WriteProm renders the registry as a Prometheus text-format page.
func (r *Registry) WriteProm(w io.Writer) error {
	if r == nil {
		return nil
	}
	for _, m := range r.sortedMetrics() {
		if m.help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", m.name, m.help); err != nil {
				return err
			}
		}
		var err error
		switch m.kind {
		case kindCounter:
			_, err = fmt.Fprintf(w, "# TYPE %s counter\n%s %d\n", m.name, m.name, m.c.Value())
		case kindGauge:
			_, err = fmt.Fprintf(w, "# TYPE %s gauge\n%s %s\n", m.name, m.name, formatFloat(m.g.Value()))
		case kindHistogram:
			if _, err = fmt.Fprintf(w, "# TYPE %s histogram\n", m.name); err != nil {
				return err
			}
			bounds, cum := m.h.Buckets()
			for i, b := range bounds {
				le := "+Inf"
				if !math.IsInf(b, 1) {
					le = formatFloat(b)
				}
				if _, err = fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", m.name, le, cum[i]); err != nil {
					return err
				}
			}
			_, err = fmt.Fprintf(w, "%s_sum %s\n%s_count %d\n",
				m.name, formatFloat(m.h.Sum()), m.name, m.h.Count())
		case kindCounterVec:
			if _, err = fmt.Fprintf(w, "# TYPE %s counter\n", m.name); err != nil {
				return err
			}
			err = writeLabeled(w, m.name, m.cv.label, m.cv.Values(), func(v int64) string {
				return fmt.Sprintf("%d", v)
			})
		case kindGaugeVec:
			if _, err = fmt.Fprintf(w, "# TYPE %s gauge\n", m.name); err != nil {
				return err
			}
			err = writeLabeled(w, m.name, m.gv.label, m.gv.Values(), formatFloat)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

func writeLabeled[T any](w io.Writer, name, label string, values map[string]T, format func(T) string) error {
	keys := make([]string, 0, len(values))
	for k := range values {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if _, err := fmt.Fprintf(w, "%s{%s=%q} %s\n", name, label, k, format(values[k])); err != nil {
			return err
		}
	}
	return nil
}

func formatFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}

// HistogramSnapshot is the JSON form of a histogram.
type HistogramSnapshot struct {
	Count   int64     `json:"count"`
	Sum     float64   `json:"sum"`
	Bounds  []float64 `json:"bounds"`
	Buckets []int64   `json:"buckets"` // cumulative, aligned with Bounds; last is +Inf
}

// Snapshot returns all metric values keyed by name (JSON-marshalable).
func (r *Registry) Snapshot() map[string]any {
	if r == nil {
		return nil
	}
	out := make(map[string]any)
	for _, m := range r.sortedMetrics() {
		switch m.kind {
		case kindCounter:
			out[m.name] = m.c.Value()
		case kindGauge:
			out[m.name] = m.g.Value()
		case kindHistogram:
			bounds, cum := m.h.Buckets()
			out[m.name] = HistogramSnapshot{
				Count:   m.h.Count(),
				Sum:     m.h.Sum(),
				Bounds:  bounds[:len(bounds)-1], // drop +Inf (implied)
				Buckets: cum,
			}
		case kindCounterVec:
			out[m.name] = m.cv.Values()
		case kindGaugeVec:
			out[m.name] = m.gv.Values()
		}
	}
	return out
}

// WriteJSON renders the snapshot as indented JSON.
func (r *Registry) WriteJSON(w io.Writer) error {
	if r == nil {
		_, err := io.WriteString(w, "{}\n")
		return err
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}
