package costmodel

import (
	"fmt"
	"testing"

	"repro/internal/catalog"
	"repro/internal/sqlparser"
	"repro/internal/workload"
)

// benchWorkload mimics a compressed template workload: many templates over
// one table, a few writes.
func benchWorkload(tb testing.TB) *workload.Workload {
	w := &workload.Workload{}
	for i := 0; i < 25; i++ {
		addSQL(tb, w, fmt.Sprintf("SELECT * FROM item WHERE cat = %d", i), 10)
	}
	for i := 0; i < 5; i++ {
		addSQL(tb, w, fmt.Sprintf("INSERT INTO item (id, cat, price) VALUES (%d, 1, 1.0)", 800000+i), 2)
	}
	return w
}

// benchConfigs alternates index configurations the way MCTS does: the same
// sets recur across evaluations.
func benchConfigs() [][]*catalog.IndexMeta {
	cat := &catalog.IndexMeta{Table: "item", Columns: []string{"cat"},
		NumTuples: 2000, NumPages: 25, Height: 2, SizeBytes: 40000}
	price := &catalog.IndexMeta{Table: "item", Columns: []string{"price"},
		NumTuples: 2000, NumPages: 25, Height: 2, SizeBytes: 40000}
	both := []*catalog.IndexMeta{cat, price}
	return [][]*catalog.IndexMeta{nil, {cat}, {price}, both, {cat}, nil, both}
}

func benchmarkWorkloadCost(b *testing.B, disabled bool) {
	db := liveDB(b)
	est := NewEstimator(db.Catalog())
	est.CacheDisabled = disabled
	w := benchWorkload(b)
	configs := benchConfigs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := est.WorkloadCost(w, configs[i%len(configs)]); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	hits, misses, _ := est.CacheStats()
	if hits+misses > 0 {
		b.ReportMetric(float64(hits)/float64(hits+misses), "hit-rate")
	}
}

func BenchmarkWorkloadCostCached(b *testing.B)   { benchmarkWorkloadCost(b, false) }
func BenchmarkWorkloadCostUncached(b *testing.B) { benchmarkWorkloadCost(b, true) }

// BenchmarkWorkloadCostLeaveOneOut259 is the prune loop on the banking
// catalog: each call prices the 259 default indexes less one, a different
// one each time, with the per-query cache warm from the calls before. One op
// is one WorkloadCost call.
func BenchmarkWorkloadCostLeaveOneOut259(b *testing.B) {
	db, w := bankingDB(b)
	est := NewEstimator(db.Catalog())
	all := secondaryIndexes(db.Catalog())
	if _, err := est.WorkloadCost(w, all); err != nil {
		b.Fatal(err)
	}
	without := make([]*catalog.IndexMeta, 0, len(all)-1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := i % len(all)
		without = append(append(without[:0], all[:out]...), all[out+1:]...)
		if _, err := est.WorkloadCost(w, without); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCloneVsReparse compares the AST deep copy against the SQL
// round-trip it replaced on the estimator's hot path.
func BenchmarkCloneVsReparse(b *testing.B) {
	stmt := parseSQL(b,
		"SELECT a, b AS bb, COUNT(*) FROM t JOIN u ON t.id = u.tid "+
			"WHERE a IN (1, 2, 3) AND b BETWEEN 5 AND 9 AND c IS NOT NULL AND s = 'x' "+
			"GROUP BY a, bb HAVING COUNT(*) > 2 ORDER BY bb DESC LIMIT 10")
	b.Run("clone", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if stmt.Clone() == nil {
				b.Fatal("nil clone")
			}
		}
	})
	b.Run("reparse", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := sqlparser.Parse(stmt.String()); err != nil {
				b.Fatal(err)
			}
		}
	})
}
