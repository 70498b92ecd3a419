package costmodel

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/catalog"
	"repro/internal/engine"
	"repro/internal/sqlparser"
	"repro/internal/workload"
)

// addSQL adds sql to w, failing the test on a parse error.
func addSQL(tb testing.TB, w *workload.Workload, sql string, weight float64) {
	tb.Helper()
	if err := w.Add(sql, weight); err != nil {
		tb.Fatal(err)
	}
}

// parseSQL parses sql, failing the test on error.
func parseSQL(tb testing.TB, sql string) sqlparser.Statement {
	tb.Helper()
	stmt, err := sqlparser.Parse(sql)
	if err != nil {
		tb.Fatal(err)
	}
	return stmt
}

func TestRegressionLearnsLinearStructure(t *testing.T) {
	// Target: 1*CData + 0.5*CIO + 0.01*CCPU — learnable shape.
	var samples []Sample
	for i := 1; i <= 60; i++ {
		f := Features{CData: float64(i * 10), CIO: float64(i % 7 * 20), CCPU: float64(i % 5 * 100)}
		samples = append(samples, Sample{Features: f, Actual: f.CData + 0.5*f.CIO + 0.01*f.CCPU})
	}
	m := NewRegression(0, 0, 0)
	if err := m.Fit(samples); err != nil {
		t.Fatal(err)
	}
	var relErr float64
	for _, s := range samples {
		relErr += math.Abs(m.Predict(s.Features)-s.Actual) / math.Max(s.Actual, 1)
	}
	relErr /= float64(len(samples))
	if relErr > 0.25 {
		t.Errorf("mean relative error too high: %.3f", relErr)
	}
}

func TestRegressionBeatsStaticWhenWeightsDiffer(t *testing.T) {
	// True weights differ strongly from the static formula's.
	var samples []Sample
	for i := 1; i <= 80; i++ {
		f := Features{CData: float64(i), CIO: float64((i * 3) % 50), CCPU: float64((i * 7) % 90)}
		actual := 0.2*f.CData + 2.0*f.CIO + 1.0*f.CCPU
		samples = append(samples, Sample{Features: f, Actual: actual})
	}
	m := NewRegression(0, 800, 0)
	if err := m.Fit(samples); err != nil {
		t.Fatal(err)
	}
	var learned, static float64
	for _, s := range samples {
		learned += math.Abs(m.Predict(s.Features) - s.Actual)
		static += math.Abs(StaticCost(s.Features) - s.Actual)
	}
	if learned >= static {
		t.Errorf("learned model should beat static weights: %.1f vs %.1f", learned, static)
	}
}

func TestRegressionRequiresSamples(t *testing.T) {
	m := NewRegression(0, 0, 0)
	if err := m.Fit(nil); err == nil {
		t.Error("fit on empty data must fail")
	}
	if m.Trained() {
		t.Error("model must stay untrained after failed fit")
	}
}

func TestUntrainedPredictFallsBackToStatic(t *testing.T) {
	m := NewRegression(0, 0, 0)
	f := Features{CData: 10, CIO: 20, CCPU: 100}
	if got := m.Predict(f); got != StaticCost(f) {
		t.Errorf("untrained predict: %v want static %v", got, StaticCost(f))
	}
}

func TestPredictMonotonicInFeatures(t *testing.T) {
	var samples []Sample
	for i := 1; i <= 50; i++ {
		f := Features{CData: float64(i * 5), CIO: float64(i * 2), CCPU: float64(i)}
		samples = append(samples, Sample{Features: f, Actual: f.CData + f.CIO + 0.1*f.CCPU})
	}
	m := NewRegression(0, 0, 0)
	if err := m.Fit(samples); err != nil {
		t.Fatal(err)
	}
	fn := func(base uint8) bool {
		lo := Features{CData: float64(base), CIO: 10, CCPU: 10}
		hi := Features{CData: float64(base) + 100, CIO: 10, CCPU: 10}
		return m.Predict(hi) >= m.Predict(lo)
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestCrossValidate(t *testing.T) {
	var samples []Sample
	for i := 1; i <= 90; i++ {
		f := Features{CData: float64(i * 10), CIO: float64(i % 9 * 15), CCPU: float64(i % 4 * 50)}
		samples = append(samples, Sample{Features: f, Actual: f.CData + 0.8*f.CIO + 0.05*f.CCPU})
	}
	err9, err := CrossValidate(samples, 9, 0, 300, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err9 > 0.5 {
		t.Errorf("9-fold CV error too high: %.3f", err9)
	}
	if _, err := CrossValidate(samples[:5], 9, 0, 10, 1); err == nil {
		t.Error("too few samples for 9 folds must fail")
	}
}

// liveDB builds an engine DB for estimator integration tests.
func liveDB(t testing.TB) *engine.DB {
	t.Helper()
	db := engine.New()
	stmts := []string{
		"CREATE TABLE item (id BIGINT, cat BIGINT, price DOUBLE, PRIMARY KEY (id))",
	}
	for _, s := range stmts {
		if _, err := db.Exec(s); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2000; i++ {
		sql := fmt.Sprintf("INSERT INTO item (id, cat, price) VALUES (%d, %d, %d.0)", i, i%400, i%100)
		if _, err := db.Exec(sql); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.AnalyzeAll(); err != nil {
		t.Fatal(err)
	}
	return db
}

func TestWorkloadCostReflectsHypotheticalIndex(t *testing.T) {
	db := liveDB(t)
	est := NewEstimator(db.Catalog())
	w := &workload.Workload{}
	addSQL(t, w, "SELECT * FROM item WHERE cat = 7", 100)

	empty, err := est.WorkloadCost(w, nil)
	if err != nil {
		t.Fatal(err)
	}
	spec := &catalog.IndexMeta{Table: "item", Columns: []string{"cat"},
		NumTuples: 2000, NumPages: 25, Height: 2, SizeBytes: 40000}
	withIdx, err := est.WorkloadCost(w, []*catalog.IndexMeta{spec})
	if err != nil {
		t.Fatal(err)
	}
	if withIdx >= empty {
		t.Errorf("hypothetical index should cut workload cost: %.1f -> %.1f", empty, withIdx)
	}
	// catalog must be restored
	if len(db.Catalog().Indexes(true)) != len(db.Catalog().Indexes(false)) {
		t.Error("hypothetical indexes leaked into catalog")
	}
}

func TestWorkloadCostPricesRemoval(t *testing.T) {
	db := liveDB(t)
	if _, err := db.Exec("CREATE INDEX idx_cat ON item (cat)"); err != nil {
		t.Fatal(err)
	}
	est := NewEstimator(db.Catalog())

	// Write-heavy workload: the index is pure maintenance overhead.
	w := &workload.Workload{}
	for i := 0; i < 5; i++ {
		addSQL(t, w, fmt.Sprintf("INSERT INTO item (id, cat, price) VALUES (%d, 1, 1.0)", 100000+i), 200)
	}
	keep := []*catalog.IndexMeta{db.Catalog().Index("idx_cat")}
	withIdx, err := est.WorkloadCost(w, keep)
	if err != nil {
		t.Fatal(err)
	}
	removed, err := est.WorkloadCost(w, nil)
	if err != nil {
		t.Fatal(err)
	}
	if removed >= withIdx {
		t.Errorf("removing the index should cut write-only workload cost: %.1f -> %.1f",
			withIdx, removed)
	}
	if got := db.Catalog().TableIndexes("item", true); len(got) != 2 {
		t.Errorf("pricing the removal changed the catalog: item has %d indexes, want pk_item and idx_cat", len(got))
	}
}

func TestBenefitPositiveForUsefulIndex(t *testing.T) {
	db := liveDB(t)
	est := NewEstimator(db.Catalog())
	w := &workload.Workload{}
	addSQL(t, w, "SELECT * FROM item WHERE cat = 3", 50)
	spec := &catalog.IndexMeta{Table: "item", Columns: []string{"cat"},
		NumTuples: 2000, NumPages: 25, Height: 2}
	b, err := est.Benefit(w, nil, spec)
	if err != nil {
		t.Fatal(err)
	}
	if b <= 0 {
		t.Errorf("useful index should have positive benefit, got %.2f", b)
	}
}

func TestComputeFeaturesWriteVsRead(t *testing.T) {
	db := liveDB(t)
	if _, err := db.Exec("CREATE INDEX idx_cat ON item (cat)"); err != nil {
		t.Fatal(err)
	}
	est := NewEstimator(db.Catalog())

	read := parseSQL(t, "SELECT * FROM item WHERE cat = 1")
	rf, err := est.ComputeFeatures(read)
	if err != nil {
		t.Fatal(err)
	}
	if rf.CIO != 0 || rf.CCPU != 0 {
		t.Error("read queries have no maintenance features")
	}
	if rf.CData <= 0 {
		t.Error("read CData must be positive")
	}

	ins := parseSQL(t, "INSERT INTO item (id, cat, price) VALUES (999999, 1, 1.0)")
	inf, err := est.ComputeFeatures(ins)
	if err != nil {
		t.Fatal(err)
	}
	if inf.CIO <= 0 || inf.CCPU <= 0 {
		t.Errorf("insert must carry maintenance features: %+v", inf)
	}

	del := parseSQL(t, "DELETE FROM item WHERE id = 5")
	df, err := est.ComputeFeatures(del)
	if err != nil {
		t.Fatal(err)
	}
	if df.CIO != 0 || df.CCPU != 0 {
		t.Errorf("delete maintenance is deferred (cost 0): %+v", df)
	}
}

func TestEstimatorTrainedOnEngineData(t *testing.T) {
	db := liveDB(t)
	est := NewEstimator(db.Catalog())

	// Log (features, actual) samples by executing queries.
	var samples []Sample
	for i := 0; i < 40; i++ {
		sql := fmt.Sprintf("SELECT * FROM item WHERE cat = %d", i%40)
		stmt := parseSQL(t, sql)
		f, err := est.ComputeFeatures(stmt)
		if err != nil {
			t.Fatal(err)
		}
		res, err := db.Exec(sql)
		if err != nil {
			t.Fatal(err)
		}
		samples = append(samples, Sample{Features: f, Actual: res.Stats.ActualCost()})
	}
	for i := 0; i < 20; i++ {
		sql := fmt.Sprintf("INSERT INTO item (id, cat, price) VALUES (%d, 1, 2.0)", 50000+i)
		stmt := parseSQL(t, sql)
		f, err := est.ComputeFeatures(stmt)
		if err != nil {
			t.Fatal(err)
		}
		res, err := db.Exec(sql)
		if err != nil {
			t.Fatal(err)
		}
		samples = append(samples, Sample{Features: f, Actual: res.Stats.ActualCost()})
	}
	if err := est.Train(samples); err != nil {
		t.Fatal(err)
	}
	if !est.Model().Trained() {
		t.Fatal("model should be trained")
	}
	// Sanity: trained predictions within the right order of magnitude.
	f, _ := est.ComputeFeatures(parseSQL(t, "SELECT * FROM item WHERE cat = 2"))
	pred := est.Model().Predict(f)
	if pred <= 0 || pred > 10000 {
		t.Errorf("trained prediction out of range: %.2f", pred)
	}
}
