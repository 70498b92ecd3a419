package baseline

import (
	"fmt"
	"testing"

	"repro/internal/candgen"
	"repro/internal/catalog"
	"repro/internal/costmodel"
	"repro/internal/engine"
	"repro/internal/floatcmp"
	"repro/internal/harness"
	"repro/internal/workload"
)

// addSQL adds sql to w, failing the test on a parse error.
func addSQL(tb testing.TB, w *workload.Workload, sql string, weight float64) {
	tb.Helper()
	if err := w.Add(sql, weight); err != nil {
		tb.Fatal(err)
	}
}

// greedyDB builds a database with two independent index opportunities of
// different sizes.
func greedyDB(t *testing.T) (*engine.DB, *workload.Workload) {
	t.Helper()
	db := engine.New()
	if _, err := db.Exec("CREATE TABLE ev (id BIGINT, a BIGINT, b BIGINT, c BIGINT, PRIMARY KEY (id))"); err != nil {
		t.Fatal(err)
	}
	var ins []string
	for i := 0; i < 3000; i++ {
		ins = append(ins, fmt.Sprintf(
			"INSERT INTO ev (id, a, b, c) VALUES (%d, %d, %d, %d)", i, i%600, i%500, i%5))
	}
	harness.Run(db, ins)
	if err := db.AnalyzeAll(); err != nil {
		t.Fatal(err)
	}
	w := &workload.Workload{}
	addSQL(t, w, "SELECT * FROM ev WHERE a = 7", 100)
	addSQL(t, w, "SELECT * FROM ev WHERE b = 9", 60)
	return db, w
}

func TestGreedySelectsByMarginalBenefit(t *testing.T) {
	db, w := greedyDB(t)
	est := costmodel.NewEstimator(db.Catalog())
	gen := candgen.NewGenerator(db.Catalog())
	res, err := Greedy(est, gen, w, nil, GreedyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Selected) != 2 {
		t.Fatalf("want both indexes, got %v", keys(res.Selected))
	}
	if res.FinalCost >= res.BaseCost {
		t.Errorf("greedy should improve cost: %v -> %v", res.BaseCost, res.FinalCost)
	}
	for _, b := range res.PerIndexBenefit {
		if b <= 0 {
			t.Errorf("selected index with non-positive marginal benefit: %v", res.PerIndexBenefit)
		}
	}
}

// TestGreedyBenefitStaysWithItsIndex selects two independent indexes whose
// selection order (the heavier template's, b, first) differs from their key
// order: each reported benefit must be the one its own index brings.
func TestGreedyBenefitStaysWithItsIndex(t *testing.T) {
	db, _ := greedyDB(t)
	w := &workload.Workload{}
	addSQL(t, w, "SELECT * FROM ev WHERE a = 7", 60)
	addSQL(t, w, "SELECT * FROM ev WHERE b = 9", 100)
	est := costmodel.NewEstimator(db.Catalog())
	res, err := Greedy(est, candgen.NewGenerator(db.Catalog()), w, nil, GreedyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := keys(res.Selected); len(got) != 2 || got[0] != "ev(a)" || got[1] != "ev(b)" {
		t.Fatalf("want [ev(a) ev(b)], got %v", got)
	}
	for i, spec := range res.Selected {
		// The templates are independent, so an index's marginal benefit is
		// the one it brings alone.
		alone, err := est.WorkloadCost(w, []*catalog.IndexMeta{spec})
		if err != nil {
			t.Fatal(err)
		}
		if want := res.BaseCost - alone; !floatcmp.Eq(res.PerIndexBenefit[i], want) {
			t.Errorf("%s: reported benefit %v, its own %v", spec.Key(), res.PerIndexBenefit[i], want)
		}
	}
}

func TestGreedyRespectsBudget(t *testing.T) {
	db, w := greedyDB(t)
	est := costmodel.NewEstimator(db.Catalog())
	gen := candgen.NewGenerator(db.Catalog())
	unlimited, err := Greedy(est, gen, w, nil, GreedyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(unlimited.Selected) == 0 {
		t.Fatal("need selections to test budget")
	}
	one := unlimited.Selected[0].SizeBytes
	res, err := Greedy(est, gen, w, nil, GreedyOptions{Budget: one + 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.SizeBytes > one+1 {
		t.Errorf("budget exceeded: %d > %d", res.SizeBytes, one+1)
	}
	if len(res.Selected) != 1 {
		t.Errorf("tight budget should cap at one index: %v", keys(res.Selected))
	}
}

func TestGreedyMaxIndexes(t *testing.T) {
	db, w := greedyDB(t)
	est := costmodel.NewEstimator(db.Catalog())
	gen := candgen.NewGenerator(db.Catalog())
	res, err := Greedy(est, gen, w, nil, GreedyOptions{MaxIndexes: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Selected) != 1 {
		t.Errorf("MaxIndexes=1: got %d", len(res.Selected))
	}
	// The single pick must be the higher-benefit one (a, weight 100).
	if res.Selected[0].Key() != "ev(a)" {
		t.Errorf("greedy should pick highest benefit first: %v", keys(res.Selected))
	}
}

func TestGreedyNeverSelectsHarmful(t *testing.T) {
	db, _ := greedyDB(t)
	est := costmodel.NewEstimator(db.Catalog())
	gen := candgen.NewGenerator(db.Catalog())
	// Write-only workload: any index is pure overhead.
	w := &workload.Workload{}
	addSQL(t, w, "INSERT INTO ev (id, a, b, c) VALUES (99999, 1, 2, 3)", 500)
	res, err := Greedy(est, gen, w, nil, GreedyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Selected) != 0 {
		t.Errorf("write-only workload must select nothing: %v", keys(res.Selected))
	}
}

func TestGreedyPerQueryModeMoreExpensive(t *testing.T) {
	db, _ := greedyDB(t)
	est := costmodel.NewEstimator(db.Catalog())
	gen := candgen.NewGenerator(db.Catalog())
	// Many distinct-literal queries: per-query mode does one generator pass
	// each; template mode (the workload here is already compressed) does one.
	w := &workload.Workload{}
	for i := 0; i < 50; i++ {
		addSQL(t, w, fmt.Sprintf("SELECT * FROM ev WHERE a = %d", i), 1)
	}
	tmplRes, err := Greedy(est, gen, w, nil, GreedyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	pqRes, err := Greedy(est, gen, w, nil, GreedyOptions{PerQuery: true})
	if err != nil {
		t.Fatal(err)
	}
	// Both should find ev(a); selections agree.
	if len(tmplRes.Selected) == 0 || len(pqRes.Selected) == 0 {
		t.Fatal("both modes should select ev(a)")
	}
	if tmplRes.Selected[0].Key() != pqRes.Selected[0].Key() {
		t.Error("modes should agree on the winner")
	}
}

func keys(ms []*catalog.IndexMeta) []string {
	out := make([]string, len(ms))
	for i, m := range ms {
		out[i] = m.Key()
	}
	return out
}
