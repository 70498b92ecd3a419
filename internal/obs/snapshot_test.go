package obs

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
)

func TestBuildBenchSnapshot(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("engine_heap_pages_read_total", "").Add(50000)
	reg.Counter("loadgen_errors_total", "").Add(0)
	reg.Counter("unrelated_total", "").Add(7)
	reg.Gauge("engine_active_sessions", "").Set(3)
	reg.CounterVec("engine_index_probes_total", "", "index").With("i1").Add(4)
	reg.Histogram("engine_statement_seconds", "", []float64{0.1}).Observe(0.05)
	h := reg.Histogram("engine_statement_cost", "", []float64{1, 10, 100})
	for _, v := range []float64{0.5, 5, 5, 50, 500} {
		h.Observe(v)
	}

	s := BuildBenchSnapshot("fig5", 7, true, reg)
	if s.Experiment != "fig5" || s.Seed != 7 || !s.Quick {
		t.Fatalf("header fields wrong: %+v", s)
	}
	// Counters under the pinned prefixes only: no gauge, vector, histogram
	// or other prefix.
	want := map[string]int64{"engine_heap_pages_read_total": 50000, "loadgen_errors_total": 0}
	if !reflect.DeepEqual(s.Counters, want) {
		t.Fatalf("counters = %v, want %v", s.Counters, want)
	}
	wantCost := &costHistogram{Count: 5, Bounds: []float64{1, 10, 100}, Buckets: []int64{1, 3, 4, 5}}
	if !reflect.DeepEqual(s.Latency, wantCost) {
		t.Fatalf("statement cost = %+v, want %+v", s.Latency, wantCost)
	}

	if empty := BuildBenchSnapshot("fig5", 7, true, nil); len(empty.Counters) != 0 || empty.Latency != nil {
		t.Fatalf("snapshot of no registry = %+v, want no counters and no cost histogram", empty)
	}
}

func TestBenchSnapshotRoundTrip(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("engine_statements_total", "").Add(3)
	h := reg.Histogram("engine_statement_cost", "", LogBuckets(0.5, 1000, 5))
	for _, v := range []float64{0.7, 18.6, 370} {
		h.Observe(v)
	}
	s := BuildBenchSnapshot("loadgen", 1, false, reg)
	path := filepath.Join(t.TempDir(), "BENCH_loadgen.json")
	if err := s.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Every field reaches the file: one that did not would be unpinned.
	var got BenchSnapshot
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, s) {
		t.Fatalf("round trip mismatch:\nwrote %+v\nread  %+v", s, got)
	}
}

// TestBenchSnapshotIsOrderIndependent feeds two registries the same counter
// increments and cost observations, one serially and one from 8 goroutines
// in another order, and requires byte-identical files. The feed makes the
// histogram's float sum, and an engine_ gauge fed the same adds, differ
// between the two: 1e17 absorbs any later addend below 8 (its ulp is 16), so
// the sum is 1e17 when 1e17 comes first and more when a goroutine's small
// values precede it.
func TestBenchSnapshotIsOrderIndependent(t *testing.T) {
	const workers, per = 8, 64
	const big = 1e17
	feed := func(reg *Registry, v float64) {
		reg.Counter("engine_statements_total", "").Inc()
		reg.Counter("engine_tuples_processed_total", "").Add(int64(v) % 7)
		reg.Histogram("engine_statement_cost", "", []float64{1, 4, 10}).Observe(v)
		reg.Gauge("engine_cost_gauge", "").Add(v)
	}
	small := func(i int) float64 { return float64(1 + 2*(i%3)) } // 1, 3, 5

	serial := NewRegistry()
	feed(serial, big)
	for i := 0; i < workers*per; i++ {
		feed(serial, small(i))
	}

	concurrent := NewRegistry()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := workers*per - 1 - w; i >= 0; i -= workers {
				feed(concurrent, small(i))
			}
			if w == 0 {
				feed(concurrent, big)
			}
		}(w)
	}
	wg.Wait()

	hs := serial.LookupHistogram("engine_statement_cost")
	hc := concurrent.LookupHistogram("engine_statement_cost")
	if hs.Sum() == hc.Sum() {
		t.Fatalf("feed is order-insensitive (both sums %v): the test would not catch a float sum in the pin", hs.Sum())
	}

	dir := t.TempDir()
	read := func(name string, reg *Registry) []byte {
		path := filepath.Join(dir, name)
		if err := BuildBenchSnapshot("fig5", 1, true, reg).WriteFile(path); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	a, b := read("serial.json", serial), read("concurrent.json", concurrent)
	if !bytes.Equal(a, b) {
		t.Fatalf("pins differ with feed order:\nserial:\n%s\nconcurrent:\n%s", a, b)
	}
}
