package diagnosis

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/candgen"
	"repro/internal/costmodel"
	"repro/internal/engine"
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

func diagDB(t *testing.T) (*engine.DB, *workload.Workload) {
	t.Helper()
	db := engine.New()
	if _, err := db.Exec("CREATE TABLE ev (id BIGINT, a BIGINT, b BIGINT, PRIMARY KEY (id))"); err != nil {
		t.Fatal(err)
	}
	var ins []string
	for i := 0; i < 2500; i++ {
		ins = append(ins, fmt.Sprintf("INSERT INTO ev (id, a, b) VALUES (%d, %d, %d)", i, i%500, i%400))
	}
	harness.Run(db, ins)
	if err := db.AnalyzeAll(); err != nil {
		t.Fatal(err)
	}
	w := &workload.Workload{}
	addSQL(t, w, "SELECT * FROM ev WHERE a = 3", 200)
	return db, w
}

func TestDiagnoseBeneficialUncreated(t *testing.T) {
	db, w := diagDB(t)
	est := costmodel.NewEstimator(db.Catalog())
	gen := candgen.NewGenerator(db.Catalog())
	rep, err := Diagnose(context.Background(), db.Catalog(), db.IndexUsage(), 200, w, est, gen, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.BeneficialUncreated) == 0 {
		t.Errorf("ev(a) should be flagged beneficial: %+v", rep)
	}
	if !rep.NeedsTuning {
		t.Error("missing beneficial index should trigger tuning")
	}
}

func TestDiagnoseRarelyUsed(t *testing.T) {
	db, w := diagDB(t)
	if _, err := db.Exec("CREATE INDEX idx_dead ON ev (b)"); err != nil {
		t.Fatal(err)
	}
	db.ResetUsage()
	// Run traffic that never touches idx_dead.
	for i := 0; i < 200; i++ {
		if _, err := db.Exec(fmt.Sprintf("SELECT * FROM ev WHERE a = %d", i%500)); err != nil {
			t.Fatal(err)
		}
	}
	est := costmodel.NewEstimator(db.Catalog())
	gen := candgen.NewGenerator(db.Catalog())
	rep, err := Diagnose(context.Background(), db.Catalog(), db.IndexUsage(), db.StatementCount(), w, est, gen, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.RarelyUsed) != 1 || rep.RarelyUsed[0] != "idx_dead" {
		t.Errorf("idx_dead should be rarely used: %+v", rep)
	}
}

func TestDiagnoseNegativeIndex(t *testing.T) {
	db, _ := diagDB(t)
	if _, err := db.Exec("CREATE INDEX idx_b ON ev (b)"); err != nil {
		t.Fatal(err)
	}
	// Write-heavy workload where idx_b is pure maintenance drag.
	w := &workload.Workload{}
	addSQL(t, w, "INSERT INTO ev (id, a, b) VALUES (9999999, 1, 2)", 500)
	est := costmodel.NewEstimator(db.Catalog())
	gen := candgen.NewGenerator(db.Catalog())
	rep, err := Diagnose(context.Background(), db.Catalog(), db.IndexUsage(), 500, w, est, gen, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Negative) != 1 || rep.Negative[0] != "idx_b" {
		t.Errorf("idx_b should be negative: %+v", rep)
	}
}

func TestDiagnoseHealthySystemQuiet(t *testing.T) {
	db, w := diagDB(t)
	if _, err := db.Exec("CREATE INDEX idx_a ON ev (a)"); err != nil {
		t.Fatal(err)
	}
	db.ResetUsage()
	for i := 0; i < 300; i++ {
		if _, err := db.Exec(fmt.Sprintf("SELECT * FROM ev WHERE a = %d", i%500)); err != nil {
			t.Fatal(err)
		}
	}
	est := costmodel.NewEstimator(db.Catalog())
	gen := candgen.NewGenerator(db.Catalog())
	rep, err := Diagnose(context.Background(), db.Catalog(), db.IndexUsage(), db.StatementCount(), w, est, gen, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.NeedsTuning {
		t.Errorf("healthy system should not need tuning: %+v", rep)
	}
}

func TestDiagnoseEmptyWorkload(t *testing.T) {
	db, _ := diagDB(t)
	est := costmodel.NewEstimator(db.Catalog())
	gen := candgen.NewGenerator(db.Catalog())
	rep, err := Diagnose(context.Background(), db.Catalog(), db.IndexUsage(), 0, &workload.Workload{}, est, gen, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.NeedsTuning {
		t.Error("no workload, no tuning")
	}
}
