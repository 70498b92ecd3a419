package harness

import (
	"fmt"
	"testing"

	"repro/internal/costmodel"
	"repro/internal/engine"
)

func harnessDB(t *testing.T) *engine.DB {
	t.Helper()
	db := engine.New()
	if _, err := db.Exec("CREATE TABLE t (id BIGINT, k BIGINT, PRIMARY KEY (id))"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		if _, err := db.Exec(fmt.Sprintf("INSERT INTO t (id, k) VALUES (%d, %d)", i, i%50)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.AnalyzeAll(); err != nil {
		t.Fatal(err)
	}
	return db
}

func TestRunAccumulates(t *testing.T) {
	db := harnessDB(t)
	stmts := []string{
		"SELECT COUNT(*) FROM t",
		"SELECT id FROM t WHERE k = 3",
		"UPDATE t SET k = 9 WHERE id = 1",
	}
	stats := Run(db, stmts)
	if stats.Statements != 3 || stats.Errors != 0 {
		t.Fatalf("stats: %+v", stats)
	}
	if stats.TotalCost <= 0 {
		t.Error("cost should accumulate")
	}
	if stats.Throughput() <= 0 {
		t.Error("throughput should be positive")
	}
}

func TestRunCountsErrorsWithoutStopping(t *testing.T) {
	db := harnessDB(t)
	stats := Run(db, []string{
		"SELECT COUNT(*) FROM t",
		"SELECT * FROM nonexistent",
		"SELECT COUNT(*) FROM t",
	})
	if stats.Statements != 3 || stats.Errors != 1 {
		t.Fatalf("error accounting: %+v", stats)
	}
}

func TestCollectSamplesCapsAndPairs(t *testing.T) {
	db := harnessDB(t)
	est := costmodel.NewEstimator(db.Catalog())
	var stmts []string
	for i := 0; i < 40; i++ {
		stmts = append(stmts, fmt.Sprintf("SELECT id FROM t WHERE k = %d", i%50))
	}
	before := db.StatementCount()
	samples := CollectSamples(db, est, stmts, 10)
	if len(samples) != 10 {
		t.Fatalf("cap: got %d samples", len(samples))
	}
	if ran := db.StatementCount() - before; ran != 40 {
		t.Fatalf("all statements still run: %d", ran)
	}
	for _, s := range samples {
		if s.Actual <= 0 || s.Features.CData <= 0 {
			t.Fatalf("bad sample: %+v", s)
		}
	}
}

func TestPerQueryCostsAlignment(t *testing.T) {
	db := harnessDB(t)
	stmts := []string{
		"SELECT COUNT(*) FROM t",
		"SELECT * FROM broken_table",
		"SELECT id FROM t WHERE k = 1",
	}
	costs := PerQueryCosts(db, stmts)
	if len(costs) != 3 {
		t.Fatalf("alignment: %d", len(costs))
	}
	if costs[0] <= 0 || costs[2] <= 0 {
		t.Error("valid queries must have positive cost")
	}
	if costs[1] != 0 {
		t.Error("failed query reports zero cost")
	}
}

func TestFlatten(t *testing.T) {
	flat := Flatten([][]string{{"a", "b"}, {"c"}, nil, {"d"}})
	if len(flat) != 4 || flat[0] != "a" || flat[3] != "d" {
		t.Fatalf("flatten: %v", flat)
	}
}
