package obs

import (
	"encoding/json"
	"os"
	"strings"
)

// BenchSnapshot is what a committed BENCH_<exp>.json pins: only values that
// reproduce byte for byte for a given command and seed, so the gate is a
// plain diff against a fresh run (DESIGN.md "The BENCH pin").
type BenchSnapshot struct {
	Experiment string           `json:"experiment"`
	Seed       int64            `json:"seed"`
	Quick      bool             `json:"quick"`
	Counters   map[string]int64 `json:"counters"`
	// Latency is the engine_statement_cost histogram, the engine's
	// cost-unit latency proxy: its count and cumulative bucket counts fix
	// every cost quantile. Its float sum is left out because concurrent
	// Observe calls add to it in scheduling order; the counters determine it.
	Latency *costHistogram `json:"engine_statement_cost,omitempty"`
}

// costHistogram is a histogram without its sum. Buckets are cumulative and
// aligned with Bounds; the last one is +Inf.
type costHistogram struct {
	Count   int64     `json:"count"`
	Bounds  []float64 `json:"bounds"`
	Buckets []int64   `json:"buckets"`
}

// counterPrefixes selects the registry counters a snapshot pins. Gauges,
// vectors and *_seconds histograms are never read: they hold wall-clock or
// order-dependent values.
var counterPrefixes = []string{"engine_", "costmodel_", "autoindex_", "mcts_", "fault_", "session_", "bufferpool_", "guardrail_", "loadgen_"}

// BuildBenchSnapshot reads the pinned values from the registry after a run:
// every int64 counter under counterPrefixes and the engine_statement_cost
// histogram's count and buckets.
func BuildBenchSnapshot(exp string, seed int64, quick bool, reg *Registry) BenchSnapshot {
	s := BenchSnapshot{Experiment: exp, Seed: seed, Quick: quick, Counters: map[string]int64{}}
	for name, v := range reg.Snapshot() {
		n, ok := v.(int64)
		if !ok {
			continue
		}
		for _, p := range counterPrefixes {
			if strings.HasPrefix(name, p) {
				s.Counters[name] = n
				break
			}
		}
	}
	if h := reg.LookupHistogram("engine_statement_cost"); h.Count() > 0 {
		bounds, cum := h.Buckets()
		s.Latency = &costHistogram{Count: h.Count(), Bounds: bounds[:len(bounds)-1], Buckets: cum}
	}
	return s
}

// WriteFile serializes the snapshot as indented JSON to path.
func (s BenchSnapshot) WriteFile(path string) error {
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
