package autoindex

import (
	"context"
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/harness"
	"repro/internal/obs"
)

// spanNames flattens a forest into parent→children name lists.
func childNames(n *obs.SpanNode) []string {
	var out []string
	for _, c := range n.Children {
		out = append(out, c.Name)
	}
	return out
}

func TestTuningRoundEmitsSpanTree(t *testing.T) {
	db, reads := readHeavyDB(t)
	reg := obs.NewRegistry()
	db.SetMetrics(reg)
	m := New(db, Options{MCTS: mctsFast()})
	var sink strings.Builder
	tracer := obs.NewTracer(&sink)
	m.Instrument(tracer)

	for _, sql := range reads {
		if err := m.Observe(sql); err != nil {
			t.Fatal(err)
		}
	}
	rec, _, err := m.Tune(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rec == nil || len(rec.Create) == 0 {
		t.Fatalf("tune should recommend something: %+v", rec)
	}

	// One round, one tree: the apply is the round's child, not a root.
	forest := obs.BuildForest(tracer.Recent())
	if len(forest) != 1 {
		t.Fatalf("expected exactly 1 root span, got %d", len(forest))
	}
	round := forest[0]
	if round.Name != "tuning_round" {
		t.Fatalf("root span = %q, want tuning_round", round.Name)
	}
	// Pipeline children in order, apply last. The estimate span only appears
	// when >1 index was created (freeloader pruning runs).
	got := childNames(round)
	want := []string{"workload", "candgen", "mcts", "apply"}
	if len(rec.Create) > 1 {
		want = []string{"workload", "candgen", "mcts", "estimate", "apply"}
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round children = %v, want %v", got, want)
	}
	// Round attributes record what was considered and chosen.
	for _, key := range []string{"round", "candidates", "base_cost", "best_cost", "predicted_benefit", "create"} {
		if _, ok := round.Attrs[key]; !ok {
			t.Errorf("round span missing attr %q (attrs=%v)", key, round.Attrs)
		}
	}
	// The mcts child carries the search summary and best-reward trajectory
	// events.
	var mctsSpan *obs.SpanNode
	for _, c := range round.Children {
		if c.Name == "mcts" {
			mctsSpan = c
		}
	}
	for _, key := range []string{"iterations", "expansions", "evaluations", "best_cost"} {
		if _, ok := mctsSpan.Attrs[key]; !ok {
			t.Errorf("mcts span missing attr %q", key)
		}
	}
	improved := 0
	for _, ev := range mctsSpan.Events {
		if ev.Name == "best_improved" {
			improved++
		}
	}
	if improved == 0 {
		t.Error("mcts span has no best_improved events despite a positive-benefit search")
	}

	// Children must cover nearly all of the round span. The bar is 90%:
	// since the what-if cost cache cut estimation time, a full round here
	// runs in ~2ms, and the tracer's per-span JSONL serialization (done at
	// each child's End, outside the child's own clock) is a fixed ~100µs
	// that no child can absorb on rounds this small.
	var childDur int64
	for _, c := range round.Children {
		childDur += c.DurU
	}
	if round.DurU > 2000 && float64(childDur) < 0.90*float64(round.DurU) {
		for _, c := range round.Children {
			t.Logf("child %s: %dus", c.Name, c.DurU)
		}
		t.Errorf("children cover %dus of %dus round (<90%%)", childDur, round.DurU)
	}

	// The JSONL sink got the same spans, one valid object per line.
	lines := strings.Split(strings.TrimSpace(sink.String()), "\n")
	if len(lines) != len(tracer.Recent()) {
		t.Fatalf("sink has %d lines, ring has %d spans", len(lines), len(tracer.Recent()))
	}
	for _, line := range lines {
		var d obs.SpanData
		if err := json.Unmarshal([]byte(line), &d); err != nil {
			t.Fatalf("bad JSONL line: %v", err)
		}
	}

	// Metrics side: round counted, mcts counters flowed through the shared
	// registry.
	if got := reg.Counter("autoindex_rounds_total", "").Value(); got != 1 {
		t.Errorf("autoindex_rounds_total = %d, want 1", got)
	}
	if reg.Counter("mcts_evaluations_total", "").Value() == 0 {
		t.Error("mcts_evaluations_total not recorded")
	}
	if reg.Counter("autoindex_indexes_created_total", "").Value() == 0 {
		t.Error("autoindex_indexes_created_total not recorded")
	}
}

// TestInstrumentationOffIsDeterministic locks the zero-overhead contract:
// the recommendation with tracing+metrics attached must be identical to the
// one computed bare, and a bare manager must carry no obs state.
func TestInstrumentationOffIsDeterministic(t *testing.T) {
	run := func(instrument bool) *Recommendation {
		db, reads := readHeavyDB(t)
		if instrument {
			db.SetMetrics(obs.NewRegistry())
		}
		m := New(db, Options{MCTS: mctsFast()})
		if instrument {
			m.Instrument(obs.NewTracer(&strings.Builder{}))
		}
		for _, sql := range reads {
			if err := m.Observe(sql); err != nil {
				t.Fatal(err)
			}
		}
		rec, err := m.Recommend(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return rec
	}
	bare := run(false)
	traced := run(true)
	if recKeys(bare) != recKeys(traced) {
		t.Fatalf("instrumentation changed the recommendation: %s vs %s",
			recKeys(bare), recKeys(traced))
	}
	if bare.BaseCost != traced.BaseCost || bare.BestCost != traced.BestCost ||
		bare.Evaluations != traced.Evaluations {
		t.Fatalf("instrumentation changed search numbers: %+v vs %+v", bare, traced)
	}
}

func TestPredictedVsMeasuredBenefit(t *testing.T) {
	db, reads := readHeavyDB(t)
	reg := obs.NewRegistry()
	db.SetMetrics(reg)
	m := New(db, Options{MCTS: mctsFast()})

	for _, sql := range reads {
		if err := m.Observe(sql); err != nil {
			t.Fatal(err)
		}
	}
	before := runCost(t, db, reads)
	m.ObserveMeasuredCost(before)

	rec, err := m.Recommend(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Apply(context.Background(), rec); err != nil {
		t.Fatal(err)
	}

	// Outcome open: predicted known, measured pending.
	outs := m.Outcomes()
	if len(outs) != 1 || outs[0].Complete {
		t.Fatalf("outcomes after apply = %+v", outs)
	}
	if outs[0].PredictedBenefit != rec.EstimatedBenefit || outs[0].CostBefore != before {
		t.Fatalf("outcome fields wrong: %+v", outs[0])
	}
	if _, _, ok := m.PredictionAccuracy(); ok {
		t.Fatal("accuracy should be unavailable before the after-measurement")
	}

	after := runCost(t, db, reads)
	m.ObserveMeasuredCost(after)

	outs = m.Outcomes()
	if !outs[0].Complete {
		t.Fatalf("outcome not completed: %+v", outs[0])
	}
	wantMeasured := before - after
	if math.Abs(outs[0].MeasuredBenefit-wantMeasured) > 1e-9 {
		t.Fatalf("measured benefit = %v, want %v", outs[0].MeasuredBenefit, wantMeasured)
	}
	if outs[0].MeasuredBenefit <= 0 {
		t.Fatalf("applied index should have helped: %+v", outs[0])
	}
	if _, n, ok := m.PredictionAccuracy(); !ok || n != 1 {
		t.Fatalf("accuracy = ok:%v n:%d", ok, n)
	}
	if reg.Gauge("autoindex_measured_benefit", "").Value() != wantMeasured {
		t.Error("measured benefit gauge not set")
	}

	// The state report carries the outcome history in both renderings.
	rep := m.Report()
	if len(rep.Outcomes) != 1 {
		t.Fatalf("report outcomes = %+v", rep.Outcomes)
	}
	js, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var decoded map[string]any
	if err := json.Unmarshal(js, &decoded); err != nil {
		t.Fatalf("report JSON invalid: %v", err)
	}
	if _, ok := decoded["outcomes"]; !ok {
		t.Fatal("report JSON missing outcomes")
	}
	if _, ok := decoded["indexes"]; !ok {
		t.Fatal("report JSON missing indexes")
	}
}

// runCost measures the workload's total engine cost.
func runCost(t *testing.T, db *engine.DB, stmts []string) float64 {
	t.Helper()
	run := harness.Run(db, stmts)
	if run.Errors > 0 {
		t.Fatalf("workload errors: %d", run.Errors)
	}
	return run.TotalCost
}
