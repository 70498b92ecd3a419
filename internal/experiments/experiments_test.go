package experiments

import (
	"testing"
)

func TestFig5ShapeScale1(t *testing.T) {
	p := DefaultFig5Params(1)
	p.WarmTxns, p.EvalTxns = 80, 150
	res, err := Fig5TPCC(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Results) != 3 {
		t.Fatalf("want 3 methods, got %d", len(res.Results))
	}
	byName := map[string]MethodResult{}
	for _, r := range res.Results {
		byName[r.Method] = r
		if r.Run.Errors > r.Run.Statements/10 {
			t.Errorf("%s: too many errors: %d/%d", r.Method, r.Run.Errors, r.Run.Statements)
		}
	}
	def, ai := byName["Default"], byName["AutoIndex"]
	if ai.Latency() >= def.Latency() {
		t.Errorf("AutoIndex should beat Default: latency %.0f vs %.0f", ai.Latency(), def.Latency())
	}
	if ai.Throughput() <= def.Throughput() {
		t.Errorf("AutoIndex throughput should beat Default: %.3f vs %.3f",
			ai.Throughput(), def.Throughput())
	}
	gr := byName["Greedy"]
	if gr.Latency() >= def.Latency() {
		t.Errorf("Greedy should also beat Default: %.0f vs %.0f", gr.Latency(), def.Latency())
	}
	// The paper's ordering: AutoIndex ≥ Greedy. Allow a small tolerance — at
	// tiny scale the methods can tie.
	if ai.Latency() > gr.Latency()*1.05 {
		t.Errorf("AutoIndex should not lose to Greedy by >5%%: %.0f vs %.0f",
			ai.Latency(), gr.Latency())
	}
}

func TestTable1AddedIndexes(t *testing.T) {
	rows, err := Table1AddedIndexes(7)
	if err != nil {
		t.Fatal(err)
	}
	var auto, greedy int
	for _, r := range rows {
		switch r.Method {
		case "AutoIndex":
			auto++
		case "Greedy":
			greedy++
		}
		if r.CostReduction < -0.01 {
			t.Errorf("selected index with negative reduction: %+v", r)
		}
	}
	if auto == 0 {
		t.Error("AutoIndex should add indexes on TPC-C1x")
	}
	if greedy == 0 {
		t.Error("Greedy should add indexes on TPC-C1x")
	}
}

func TestQ32CorrelatedShape(t *testing.T) {
	res, err := Q32Correlated(3)
	if err != nil {
		t.Fatal(err)
	}
	// The defining structure: the pair is far better than either alone.
	if res.BothIndexes >= res.ItemIndexOnly || res.BothIndexes >= res.DateIndexOnly {
		t.Errorf("pair should beat singles: both=%.1f item=%.1f date=%.1f",
			res.BothIndexes, res.ItemIndexOnly, res.DateIndexOnly)
	}
	if res.BothIndexes >= res.BaseCost/2 {
		t.Errorf("pair should be transformative: base=%.1f both=%.1f",
			res.BaseCost, res.BothIndexes)
	}
	if !res.MCTSPicksPair {
		t.Error("MCTS should discover the correlated pair")
	}
}

func TestFig1BankingRemovalShape(t *testing.T) {
	if testing.Short() {
		t.Skip("banking removal in short mode")
	}
	res, err := Fig1BankingRemoval(1, 600)
	if err != nil {
		t.Fatal(err)
	}
	if res.RemovedFraction < 0.5 {
		t.Errorf("should remove most of the over-indexed config: %.0f%%", res.RemovedFraction*100)
	}
	if res.StorageSavedFraction < 0.4 {
		t.Errorf("should free most index storage: %.0f%%", res.StorageSavedFraction*100)
	}
	// Throughput must not regress noticeably (paper: +4%).
	if res.ThroughputAfter < res.ThroughputBefore*0.97 {
		t.Errorf("throughput regressed: %.3f -> %.3f", res.ThroughputBefore, res.ThroughputAfter)
	}
}

func TestFig8TemplateOverheadShape(t *testing.T) {
	if testing.Short() {
		t.Skip("ablation in short mode")
	}
	res, err := Fig8TemplateOverhead(5, 400)
	if err != nil {
		t.Fatal(err)
	}
	if res.Templates >= res.Statements/10 {
		t.Errorf("templates should compress the stream: %d templates for %d stmts",
			res.Templates, res.Statements)
	}
	// Overhead is asserted in counted units (seed-deterministic); the
	// wall-clock OverheadReduction is reported, never asserted on.
	t.Logf("what-if evaluations %d vs %d, planner invocations %d vs %d, wall %d ms vs %d ms",
		res.TemplateEvals, res.QueryLevelEvals, res.TemplatePlans, res.QueryLevelPlans,
		res.TemplateTuneMs, res.QueryLevelTuneMs)
	if res.EvalReduction < 0.9 {
		t.Errorf("template path should cut what-if evaluations by >= 90%%: %d vs %d (%.1f%%)",
			res.TemplateEvals, res.QueryLevelEvals, res.EvalReduction*100)
	}
	if res.PlanReduction < 0.9 {
		t.Errorf("template path should cut planner invocations by >= 90%%: %d vs %d (%.1f%%)",
			res.TemplatePlans, res.QueryLevelPlans, res.PlanReduction*100)
	}
	// Performance parity within 10%.
	if res.PerfDelta < -0.1 {
		t.Errorf("template path lost >10%% performance: delta=%.3f", res.PerfDelta)
	}
}

func TestEstimatorAccuracyLearnedBeatsStatic(t *testing.T) {
	if testing.Short() {
		t.Skip("estimator CV in short mode")
	}
	res, err := EstimatorAccuracy(3, 60)
	if err != nil {
		t.Fatal(err)
	}
	if res.Samples < 100 {
		t.Fatalf("too few samples: %d", res.Samples)
	}
	if res.LearnedError >= res.StaticError {
		t.Errorf("learned model should beat static weights: %.3f vs %.3f",
			res.LearnedError, res.StaticError)
	}
}
