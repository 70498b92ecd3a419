package obs

import (
	"encoding/json"
	"math"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "help")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if again := r.Counter("c_total", "other help"); again != c {
		t.Fatal("Counter not idempotent for the same name")
	}
	g := r.Gauge("g", "")
	g.Set(2.5)
	g.Add(-1)
	if got := g.Value(); got != 1.5 {
		t.Fatalf("gauge = %v, want 1.5", got)
	}
}

func TestNilInstrumentsAreNoOps(t *testing.T) {
	var r *Registry
	// Every accessor on a nil registry returns a nil instrument, and every
	// method on nil instruments is a no-op.
	r.Counter("x", "").Inc()
	r.Gauge("x", "").Set(1)
	r.Histogram("x", "", []float64{1}).Observe(2)
	r.CounterVec("x", "", "l").With("a").Inc()
	r.GaugeVec("x", "", "l").With("a").Set(1)
	if v := r.Counter("x", "").Value(); v != 0 {
		t.Fatalf("nil counter value = %d", v)
	}
	if err := r.WriteProm(&strings.Builder{}); err != nil {
		t.Fatal(err)
	}
}

func TestHistogramBucketEdges(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", "", []float64{1, 10, 100})
	// Prometheus convention: bucket counts observations v <= bound.
	for _, v := range []float64{0, 1, 1.0001, 10, 99.9, 100, 100.1, 1e9} {
		h.Observe(v)
	}
	bounds, cum := h.Buckets()
	if len(bounds) != 4 || !math.IsInf(bounds[3], 1) {
		t.Fatalf("bounds = %v, want 3 finite + +Inf", bounds)
	}
	// v<=1: {0, 1} → 2; v<=10: + {1.0001, 10} → 4; v<=100: + {99.9, 100} → 6;
	// +Inf: + {100.1, 1e9} → 8.
	want := []int64{2, 4, 6, 8}
	for i, w := range want {
		if cum[i] != w {
			t.Fatalf("cumulative[%d] = %d, want %d (cum=%v)", i, cum[i], w, cum)
		}
	}
	if h.Count() != 8 {
		t.Fatalf("count = %d, want 8", h.Count())
	}
	wantSum := 0.0 + 1 + 1.0001 + 10 + 99.9 + 100 + 100.1 + 1e9
	if math.Abs(h.Sum()-wantSum) > 1e-6 {
		t.Fatalf("sum = %v, want %v", h.Sum(), wantSum)
	}
}

func TestHistogramUnsortedBoundsAreSorted(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("x", "", []float64{100, 1, 10})
	h.Observe(5)
	bounds, cum := h.Buckets()
	if bounds[0] != 1 || bounds[1] != 10 || bounds[2] != 100 {
		t.Fatalf("bounds not sorted: %v", bounds)
	}
	if cum[0] != 0 || cum[1] != 1 {
		t.Fatalf("observation landed wrong: %v", cum)
	}
}

func TestRegistryConcurrency(t *testing.T) {
	r := NewRegistry()
	const goroutines = 16
	const perG = 1000
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for j := 0; j < perG; j++ {
				r.Counter("shared_total", "").Inc()
				r.Gauge("shared_gauge", "").Add(1)
				r.Histogram("shared_hist", "", []float64{10, 100}).Observe(float64(j % 150))
				r.CounterVec("shared_vec", "", "who").With(string(rune('a' + id%4))).Inc()
			}
		}(i)
	}
	wg.Wait()
	if got := r.Counter("shared_total", "").Value(); got != goroutines*perG {
		t.Fatalf("counter = %d, want %d", got, goroutines*perG)
	}
	if got := r.Gauge("shared_gauge", "").Value(); got != goroutines*perG {
		t.Fatalf("gauge = %v, want %d", got, goroutines*perG)
	}
	if got := r.Histogram("shared_hist", "", nil).Count(); got != goroutines*perG {
		t.Fatalf("histogram count = %d, want %d", got, goroutines*perG)
	}
	var vecTotal int64
	for _, v := range r.CounterVec("shared_vec", "", "who").Values() {
		vecTotal += v
	}
	if vecTotal != goroutines*perG {
		t.Fatalf("vec total = %d, want %d", vecTotal, goroutines*perG)
	}
}

func TestWritePromFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("b_total", "a counter").Add(3)
	r.Gauge("a_gauge", "a gauge").Set(1.5)
	r.Histogram("c_hist", "a histogram", []float64{1, 2}).Observe(1.5)
	r.CounterVec("d_vec", "a vec", "index").With("idx_a").Add(7)

	var b strings.Builder
	if err := r.WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	// Name-sorted, typed, with labeled series and histogram parts.
	for _, want := range []string{
		"# TYPE a_gauge gauge\na_gauge 1.5\n",
		"# TYPE b_total counter\nb_total 3\n",
		`c_hist_bucket{le="1"} 0`,
		`c_hist_bucket{le="2"} 1`,
		`c_hist_bucket{le="+Inf"} 1`,
		"c_hist_sum 1.5",
		"c_hist_count 1",
		`d_vec{index="idx_a"} 7`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("prom output missing %q:\n%s", want, out)
		}
	}
	if strings.Index(out, "a_gauge") > strings.Index(out, "b_total") {
		t.Fatal("metrics not sorted by name")
	}
}

func TestSnapshotJSON(t *testing.T) {
	r := NewRegistry()
	r.Counter("c_total", "").Add(2)
	r.Histogram("h", "", []float64{5}).Observe(3)
	r.GaugeVec("gv", "", "index").With("i1").Set(4)

	var b strings.Builder
	if err := r.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	var decoded map[string]any
	if err := json.Unmarshal([]byte(b.String()), &decoded); err != nil {
		t.Fatalf("snapshot not valid JSON: %v\n%s", err, b.String())
	}
	if decoded["c_total"].(float64) != 2 {
		t.Fatalf("c_total = %v", decoded["c_total"])
	}
	h := decoded["h"].(map[string]any)
	if h["count"].(float64) != 1 || h["sum"].(float64) != 3 {
		t.Fatalf("histogram snapshot = %v", h)
	}
	gv := decoded["gv"].(map[string]any)
	if gv["i1"].(float64) != 4 {
		t.Fatalf("gauge vec snapshot = %v", gv)
	}
}

func TestObserveNaNIsDropped(t *testing.T) {
	h := newHistogram([]float64{1, 10, 100})
	h.Observe(5)
	h.Observe(math.NaN())
	h.Observe(50)

	if got := h.Count(); got != 2 {
		t.Fatalf("Count after NaN observation = %d, want 2", got)
	}
	if got := h.Sum(); got != 55 {
		t.Fatalf("Sum after NaN observation = %v, want 55 (NaN must not poison the sum)", got)
	}
	// The NaN lands in no bucket: 5 in le=10, 50 in le=100, none in +Inf.
	_, cum := h.Buckets()
	for i, want := range []int64{0, 1, 2, 2} {
		if cum[i] != want {
			t.Fatalf("cumulative buckets after NaN observation = %v, want [0 1 2 2]", cum)
		}
	}
}

func TestLogBuckets(t *testing.T) {
	b := LogBuckets(0.001, 10, 5)
	if len(b) == 0 || b[0] != 0.001 {
		t.Fatalf("LogBuckets first bound = %v", b)
	}
	if last := b[len(b)-1]; last < 10 {
		t.Fatalf("LogBuckets last bound %v < max 10", last)
	}
	growth := math.Pow(10, 1.0/5)
	for i := 1; i < len(b); i++ {
		ratio := b[i] / b[i-1]
		if math.Abs(ratio-growth) > 1e-9 {
			t.Fatalf("bucket ratio %v at %d, want %v", ratio, i, growth)
		}
	}
	// Deterministic: two calls produce identical schedules.
	b2 := LogBuckets(0.001, 10, 5)
	for i := range b {
		if b[i] != b2[i] {
			t.Fatalf("LogBuckets not deterministic at %d: %v vs %v", i, b[i], b2[i])
		}
	}
	// Degenerate arguments fall back to a single bucket.
	if got := LogBuckets(-1, 10, 5); len(got) != 1 {
		t.Fatalf("LogBuckets(-1,10,5) = %v, want single fallback bucket", got)
	}
	if got := LogBuckets(5, 1, 5); len(got) != 1 {
		t.Fatalf("LogBuckets(5,1,5) = %v, want single fallback bucket", got)
	}
}
