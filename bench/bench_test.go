package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	vs := make([]int64, 100)
	for i := range vs {
		vs[i] = int64(i + 1) // 1..100
	}
	for _, c := range []struct {
		p    float64
		want int64
	}{{50, 50}, {99, 99}, {100, 100}, {1, 1}, {0.5, 1}, {99.5, 100}} {
		if got := percentile(vs, c.p); got != c.want {
			t.Errorf("percentile(1..100, %v) = %d, want %d", c.p, got, c.want)
		}
	}
	if got := percentile([]int64{7}, 99); got != 7 {
		t.Errorf("single sample: got %d", got)
	}
	if got := percentile(nil, 99); got != 0 {
		t.Errorf("empty: got %d", got)
	}
}

func TestSupportedTailNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{1000, 99}, // rank 990, ten beyond
		{999, 95},  // rank 990, nine beyond p99
		{200, 95},  // rank 190, ten beyond
		{199, 90},
		{100, 90},
		{40, 75},
		{39, 50},
		{0, 50},
	} {
		if got := supportedTail(c.n); got != c.want {
			t.Errorf("supportedTail(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestMedianOverRounds(t *testing.T) {
	rounds := []roundStats{{p99us: 130}, {p99us: 52}, {p99us: 70}, {p99us: 90}}
	if got := medianOver(rounds, func(s roundStats) float64 { return s.p99us }); got != 80 {
		t.Errorf("even count: got %v, want 80", got)
	}
	if got := medianOver(rounds[:3], func(s roundStats) float64 { return s.p99us }); got != 70 {
		t.Errorf("odd count: got %v, want 70", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("empty: got %v", got)
	}
	// A pooled percentile would be dominated by the late, slow rounds; the
	// median over rounds is not.
	lat := []int64{3000, 1000, 2000}
	rs := summarizeRound(lat, 6000, 30)
	if rs.p50us != 2 || rs.samples != 3 || rs.costPerStmt != 10 {
		t.Errorf("summarizeRound = %+v", rs)
	}
}

func TestSelfTimeWithOverlappingChildren(t *testing.T) {
	spans := []span{
		{ID: 1, StartNs: 0, EndNs: 100},
		{ID: 2, Parent: 1, StartNs: 10, EndNs: 40},
		{ID: 3, Parent: 1, StartNs: 30, EndNs: 60},  // overlaps 2
		{ID: 4, Parent: 1, StartNs: 80, EndNs: 120}, // clipped to the parent
		{ID: 5, Parent: 3, StartNs: 35, EndNs: 45},
	}
	self := selfTimes(spans)
	// Children cover [10,60) and [80,100): 70 of 100.
	if self[1] != 30 {
		t.Errorf("root self = %d, want 30", self[1])
	}
	if self[2] != 30 || self[3] != 20 || self[5] != 10 {
		t.Errorf("self = %v", self)
	}
}

func TestDuringTaggingAtTheBoundaries(t *testing.T) {
	const start, end = 100, 200
	for _, c := range []struct {
		at   int64
		want bool
	}{{99, false}, {100, true}, {150, true}, {199, true}, {200, false}, {201, false}} {
		if got := taggedDuring(c.at, start, end); got != c.want {
			t.Errorf("taggedDuring(%d) = %v, want %v", c.at, got, c.want)
		}
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	vs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	q1, q2, q3 := quartiles(vs)
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v", q1, q2, q3)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	q1, q2, q3 = quartiles([]float64{1, 2})
	if q1 != 0.75 || q2 != 1.5 || q3 != 2.25 {
		t.Errorf("two values: %v %v %v", q1, q2, q3)
	}
}

// declared is the metric part of ../BENCHMARK.json.
type declared struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadDeclared(t *testing.T) declared {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	if err := json.Unmarshal(data, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

func TestWorkloadsMatchBenchmarkJSON(t *testing.T) {
	d := loadDeclared(t)
	if len(d.Workloads) != len(workloadDefs) {
		t.Fatalf("BENCHMARK.json declares %d workloads, bench has %d", len(d.Workloads), len(workloadDefs))
	}
	for i, w := range d.Workloads {
		if w.Name != workloadDefs[i].name {
			t.Errorf("workload %d: %q declared, %q defined", i, w.Name, workloadDefs[i].name)
		}
	}
}

// checkEmitted asserts that got holds exactly the declared names, once
// each, with the declared unit and a finite, non-negative value.
func checkEmitted(t *testing.T, kind string, got []metric, want map[string]string) {
	t.Helper()
	seen := make(map[string]int)
	for _, m := range got {
		seen[m.Name]++
		unit, ok := want[m.Name]
		switch {
		case !ok:
			t.Errorf("%s: %s emitted but not declared in BENCHMARK.json", kind, m.Name)
		case unit != m.Unit:
			t.Errorf("%s: %s has unit %q, declared %q", kind, m.Name, m.Unit, unit)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || m.Value < 0 {
			t.Errorf("%s: %s = %v", kind, m.Name, m.Value)
		}
	}
	for name := range want {
		if seen[name] != 1 {
			t.Errorf("%s: %s emitted %d times, want once", kind, name, seen[name])
		}
	}
}

// TestMiniatureLifecycleEmitsDeclaredMetrics drives every workload through
// a miniature traced lifecycle (TPC-C 1x / 20 transactions, one round per
// phase) and checks both metric lists against ../BENCHMARK.json.
func TestMiniatureLifecycleEmitsDeclaredMetrics(t *testing.T) {
	d := loadDeclared(t)
	endToEnd := make(map[string]string)
	for _, m := range d.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	perLayer := make(map[string]string)
	for _, m := range d.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	for _, def := range workloadDefs {
		def := def
		t.Run(def.name, func(t *testing.T) {
			r, lt, setupS, err := drive(def, options{seed: 1, seconds: 1, trace: true, mini: true, setups: 1})
			if err != nil {
				t.Fatal(err)
			}
			checkEmitted(t, "end-to-end", r.endToEnd(setupS, secondaryIndexBytes(r.inst.db), 1<<20), endToEnd)
			checkEmitted(t, "per-layer", lt.metrics(), perLayer)
			if n := r.failed.Load(); n != 0 {
				t.Errorf("%d operations failed: %v", n, r.errs)
			}
			if len(r.rec.spans) == 0 {
				t.Error("traced run recorded no span")
			}
		})
	}
}
