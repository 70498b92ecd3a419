package engine

import (
	"fmt"
	"testing"

	"repro/internal/sqltypes"
)

func makeTuples(n int) []sqltypes.Tuple {
	rows := make([]sqltypes.Tuple, n)
	for i := range rows {
		rows[i] = sqltypes.Tuple{sqltypes.NewInt(int64(i)), sqltypes.NewInt(int64(i % 97))}
	}
	return rows
}

func benchDB(b *testing.B, indexed bool) *DB {
	b.Helper()
	db := New()
	if _, err := db.Exec("CREATE TABLE ev (id BIGINT, k BIGINT, v DOUBLE, s TEXT, PRIMARY KEY (id))"); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 20000; i++ {
		if _, err := db.Exec(fmt.Sprintf(
			"INSERT INTO ev (id, k, v, s) VALUES (%d, %d, %d.0, 's%d')", i, i%4000, i%500, i%10)); err != nil {
			b.Fatal(err)
		}
	}
	if indexed {
		if _, err := db.Exec("CREATE INDEX bk ON ev (k)"); err != nil {
			b.Fatal(err)
		}
	}
	if err := db.AnalyzeAll(); err != nil {
		b.Fatal(err)
	}
	return db
}

// BenchmarkPointLookupIndexed measures the full SQL → rows path with an
// index (parse + plan + probe + fetch).
func BenchmarkPointLookupIndexed(b *testing.B) {
	db := benchDB(b, true)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Exec(fmt.Sprintf("SELECT v FROM ev WHERE k = %d", i%4000)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPointLookupSeqScan is the same lookup without the index.
func BenchmarkPointLookupSeqScan(b *testing.B) {
	db := benchDB(b, false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Exec(fmt.Sprintf("SELECT v FROM ev WHERE k = %d", i%4000)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkInsertWithIndexes measures write cost under index maintenance.
func BenchmarkInsertWithIndexes(b *testing.B) {
	db := benchDB(b, true)
	if _, err := db.Exec("CREATE INDEX bv ON ev (v)"); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Exec(fmt.Sprintf(
			"INSERT INTO ev (id, k, v, s) VALUES (%d, 1, 2.0, 'x')", 1000000+i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGroupByAggregate measures the aggregation path.
func BenchmarkGroupByAggregate(b *testing.B) {
	db := benchDB(b, false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Exec("SELECT s, COUNT(*), SUM(v) FROM ev GROUP BY s"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSeqScan measures the seq-scan pipeline on the dominant filter
// shape (<col> cmp <literal> AND <col> cmp <literal>) and reports tuples
// filtered per op.
func BenchmarkSeqScan(b *testing.B) {
	db := benchDB(b, false)
	q := "SELECT id FROM ev WHERE k > 1000 AND v < 100.0"
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := db.Exec(q)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(res.Stats.TuplesProcessed), "tuples/op")
		}
	}
}

// BenchmarkBulkLoad measures the loader fast path (tuples/op).
func BenchmarkBulkLoad(b *testing.B) {
	db := New()
	if _, err := db.Exec("CREATE TABLE bl (id BIGINT, k BIGINT, PRIMARY KEY (id))"); err != nil {
		b.Fatal(err)
	}
	rows := makeTuples(1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := db.BulkLoad("bl", rows); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkIndexBuildSnapshot100k measures the step of an index build that
// runs under the session reader lock: the heap scan into entry sets.
func BenchmarkIndexBuildSnapshot100k(b *testing.B) {
	db := New()
	if _, err := db.Exec("CREATE TABLE bl (id BIGINT, k BIGINT, PRIMARY KEY (id))"); err != nil {
		b.Fatal(err)
	}
	if err := db.BulkLoad("bl", makeTuples(100000)); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		build, err := db.NewIndexBuild(IndexBuildSpec{Name: "bk", Table: "bl", Columns: []string{"k"}})
		if err != nil {
			b.Fatal(err)
		}
		if err := build.Snapshot(); err != nil {
			b.Fatal(err)
		}
	}
}
