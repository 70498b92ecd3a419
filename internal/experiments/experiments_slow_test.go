package experiments

import "testing"

func TestFig6Fig7TPCDSShape(t *testing.T) {
	if testing.Short() {
		t.Skip("TPC-DS sweep in short mode")
	}
	res, err := Fig6TPCDS(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.AutoIndex) != len(res.Greedy) || len(res.AutoIndex) < 40 {
		t.Fatalf("per-query series sizes: auto=%d greedy=%d", len(res.AutoIndex), len(res.Greedy))
	}
	auto10 := ImprovedOver(res.AutoIndex, 0.10)
	greedy10 := ImprovedOver(res.Greedy, 0.10)
	// Paper Fig. 7: AutoIndex optimizes ~3x more queries by >10% (44 vs 15).
	// Shape requirement: strictly more, and by a clear margin.
	if auto10 <= greedy10 {
		t.Errorf("AutoIndex should improve more queries >10%%: %d vs %d", auto10, greedy10)
	}
	// Paper Fig. 6(iii): AutoIndex selects more indexes than Greedy (9 vs 3).
	if res.AutoIndexCount <= res.GreedyCount {
		t.Errorf("AutoIndex should select more indexes: %d vs %d",
			res.AutoIndexCount, res.GreedyCount)
	}
	// No severe regressions: queries slower by >30% should be rare.
	regressions := 0
	for _, r := range res.AutoIndex {
		if r.Reduction() < -0.3 {
			regressions++
		}
	}
	if regressions > len(res.AutoIndex)/10 {
		t.Errorf("too many regressions: %d", regressions)
	}
}

func TestTable2Table3BankingCreationShape(t *testing.T) {
	if testing.Short() {
		t.Skip("banking creation in short mode")
	}
	t2, t3, err := Table2Table3BankingCreation(1, 500)
	if err != nil {
		t.Fatal(err)
	}
	if t2.IndexesAdded == 0 {
		t.Fatal("AutoIndex should add indexes for the hybrid services")
	}
	if t2.BytesAdded <= 0 {
		t.Error("added indexes should take storage")
	}
	// Both services should improve (paper: +10% summarization, +6% withdraw).
	if t2.SummarizationTpsAfter <= t2.SummarizationTpsBefore {
		t.Errorf("summarization should improve: %.3f -> %.3f",
			t2.SummarizationTpsBefore, t2.SummarizationTpsAfter)
	}
	if t2.WithdrawalTpsAfter <= t2.WithdrawalTpsBefore {
		t.Errorf("withdrawal should improve: %.3f -> %.3f",
			t2.WithdrawalTpsBefore, t2.WithdrawalTpsAfter)
	}
	if len(t3) == 0 {
		t.Fatal("Table III examples missing")
	}
	for _, row := range t3 {
		if row.CostWithIndex >= row.CostNoIndex {
			t.Errorf("showcased index %s should reduce cost: %.1f -> %.1f",
				row.Index, row.CostNoIndex, row.CostWithIndex)
		}
	}
}

func TestFig9DynamicShape(t *testing.T) {
	if testing.Short() {
		t.Skip("dynamic epochs in short mode")
	}
	epochs, err := Fig9Dynamic(1, 120)
	if err != nil {
		t.Fatal(err)
	}
	if len(epochs) != 5 {
		t.Fatalf("want 5 epochs, got %d", len(epochs))
	}
	// After the first epoch's tuning, AutoIndex should not lose to Default
	// in any later epoch, and should win overall. Both variants tune on the
	// epoch they observed, so both may pay a one-epoch adaptation lag on mix
	// swings against one-shot Greedy: the forecast variant's trend still
	// weights the read-heavy epoch one epoch later, as the decayed counts do.
	var aiTotal, aifTotal, defTotal, grTotal float64
	for _, ep := range epochs[1:] {
		by := map[string]MethodResult{}
		for _, r := range ep.Results {
			by[r.Method] = r
		}
		aiTotal += by["AutoIndex"].Latency()
		aifTotal += by["AutoIndex+F"].Latency()
		defTotal += by["Default"].Latency()
		grTotal += by["Greedy"].Latency()
	}
	if aiTotal >= defTotal || aifTotal >= defTotal {
		t.Errorf("AutoIndex should beat Default across epochs: %.0f/%.0f vs %.0f",
			aiTotal, aifTotal, defTotal)
	}
	if aifTotal > grTotal*1.12 {
		t.Errorf("forecasting AutoIndex should stay within lag tolerance of Greedy: %.0f vs %.0f",
			aifTotal, grTotal)
	}
	if aiTotal > grTotal*1.12 {
		t.Errorf("plain AutoIndex should stay within lag tolerance of Greedy: %.0f vs %.0f",
			aiTotal, grTotal)
	}
}

func TestFig10StorageBudgetsShape(t *testing.T) {
	if testing.Short() {
		t.Skip("storage sweep in short mode")
	}
	budgets, err := Fig10StorageBudgets(1, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(budgets) != 4 {
		t.Fatalf("want 4 budget rows, got %d", len(budgets))
	}
	for _, b := range budgets {
		by := map[string]MethodResult{}
		for _, r := range b.Results {
			by[r.Method] = r
		}
		ai, gr := by["AutoIndex"], by["Greedy"]
		// The experiment enforces the budget at apply time internally (it
		// errors on violation). The reported IndexBytes are post-eval: the
		// measured workload inserts rows and grows the trees, so allow that
		// organic growth here.
		if b.Budget > 0 && ai.IndexBytes > b.Budget*115/100 {
			t.Errorf("%s: AutoIndex grew far past budget: %d > %d", b.Label, ai.IndexBytes, b.Budget)
		}
		// Paper Fig. 10: AutoIndex at least matches Greedy at every budget.
		if ai.Latency() > gr.Latency()*1.05 {
			t.Errorf("%s: AutoIndex should not lose to Greedy by >5%%: %.0f vs %.0f",
				b.Label, ai.Latency(), gr.Latency())
		}
	}
	// The paper itself observes (§VI-E) that a *smaller* budget sometimes
	// wins — the constraint pushes the search toward small, high-benefit
	// indexes. So only guard against a blow-out: no-limit must stay within
	// 30% of the tightest budget's latency.
	noLimit := budgets[0].Results[1].Latency()
	tight := budgets[3].Results[1].Latency()
	if noLimit > tight*1.3 {
		t.Errorf("no-limit latency should stay within 30%% of the tightest budget: %.0f vs %.0f",
			noLimit, tight)
	}
}
