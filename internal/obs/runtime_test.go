package obs

import "testing"

func TestRuntimeCollectorSample(t *testing.T) {
	reg := NewRegistry()
	SampleRuntime(reg)
	snap := reg.Snapshot()
	if v, _ := snap["runtime_goroutines"].(float64); v < 1 {
		t.Fatalf("runtime_goroutines = %v, want >= 1", v)
	}
	if v, _ := snap["runtime_heap_bytes"].(float64); v <= 0 {
		t.Fatalf("runtime_heap_bytes = %v, want > 0", v)
	}
	// GC gauges exist (values may be zero in a fresh process).
	if _, ok := snap["runtime_gc_cycles_total"]; !ok {
		t.Fatal("runtime_gc_cycles_total not registered")
	}
	if _, ok := snap["runtime_gc_pause_seconds_total"]; !ok {
		t.Fatal("runtime_gc_pause_seconds_total not registered")
	}
}

func TestRuntimeCollectorNil(t *testing.T) {
	SampleRuntime(nil) // must not panic
}
