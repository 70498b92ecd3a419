package costmodel

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/catalog"
	"repro/internal/obs"
	"repro/internal/workload"
)

// catSpec builds the hypothetical (cat) index spec used across cache tests.
func catSpec() *catalog.IndexMeta {
	return &catalog.IndexMeta{Table: "item", Columns: []string{"cat"},
		NumTuples: 2000, NumPages: 25, Height: 2, SizeBytes: 40000}
}

func cacheWorkload(tb testing.TB) *workload.Workload {
	w := &workload.Workload{}
	for i := 0; i < 20; i++ {
		addSQL(tb, w, fmt.Sprintf("SELECT * FROM item WHERE cat = %d", i), 10)
	}
	addSQL(tb, w, "SELECT * FROM item WHERE price > 50.0", 3)
	addSQL(tb, w, "INSERT INTO item (id, cat, price) VALUES (900001, 1, 1.0)", 2)
	addSQL(tb, w, "UPDATE item SET price = 2.0 WHERE cat = 3", 2)
	addSQL(tb, w, "DELETE FROM item WHERE cat = 399", 1)
	return w
}

// TestCachedWorkloadCostBitIdenticalToUncached pins the correctness
// contract of the what-if fast path: with the per-query cache on, every
// configuration's workload cost is bit-for-bit the number the uncached
// estimator computes — across repeated evaluations and config changes.
func TestCachedWorkloadCostBitIdenticalToUncached(t *testing.T) {
	db := liveDB(t)
	if _, err := db.Exec("CREATE INDEX idx_price ON item (price)"); err != nil {
		t.Fatal(err)
	}
	cached := NewEstimator(db.Catalog())
	uncached := NewEstimator(db.Catalog())
	uncached.CacheDisabled = true
	w := cacheWorkload(t)

	price := db.Catalog().Index("idx_price")
	configs := [][]*catalog.IndexMeta{
		nil,
		{catSpec()},
		{price},
		{catSpec(), price},
		{catSpec()}, // repeat: served from cache
		nil,         // repeat
	}
	for i, cfg := range configs {
		a, err := cached.WorkloadCost(w, cfg)
		if err != nil {
			t.Fatal(err)
		}
		b, err := uncached.WorkloadCost(w, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(a) != math.Float64bits(b) {
			t.Errorf("config %d: cached=%v uncached=%v (bits %x vs %x)",
				i, a, b, math.Float64bits(a), math.Float64bits(b))
		}
	}
	hits, misses, size := cached.CacheStats()
	if hits == 0 {
		t.Error("repeated configurations should produce cache hits")
	}
	if misses == 0 || size == 0 {
		t.Errorf("cache should hold entries: hits=%d misses=%d size=%d", hits, misses, size)
	}
	if h, m, s := uncached.CacheStats(); h != 0 || m != 0 || s != 0 {
		t.Errorf("disabled cache must stay empty: hits=%d misses=%d size=%d", h, m, s)
	}
}

// TestCacheSharesAcrossConfigurations verifies the atomic-configuration
// decomposition: evaluating a second configuration that differs only by an
// index on another table re-plans nothing for queries off that table.
func TestCacheSharesAcrossConfigurations(t *testing.T) {
	db := liveDB(t)
	if _, err := db.Exec("CREATE TABLE orders (oid BIGINT, item_id BIGINT, qty BIGINT, PRIMARY KEY (oid))"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if _, err := db.Exec(fmt.Sprintf("INSERT INTO orders (oid, item_id, qty) VALUES (%d, %d, 1)", i, i%40)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.AnalyzeAll(); err != nil {
		t.Fatal(err)
	}
	est := NewEstimator(db.Catalog())
	w := &workload.Workload{}
	for i := 0; i < 10; i++ {
		addSQL(t, w, fmt.Sprintf("SELECT * FROM item WHERE cat = %d", i), 10)
	}

	if _, err := est.WorkloadCost(w, nil); err != nil {
		t.Fatal(err)
	}
	_, missesBefore, _ := est.CacheStats()
	// An orders-only index cannot affect item queries: all hits, no misses.
	ordersIdx := &catalog.IndexMeta{Table: "orders", Columns: []string{"item_id"},
		NumTuples: 100, NumPages: 2, Height: 1, SizeBytes: 2000}
	if _, err := est.WorkloadCost(w, []*catalog.IndexMeta{ordersIdx}); err != nil {
		t.Fatal(err)
	}
	hits, misses, _ := est.CacheStats()
	if misses != missesBefore {
		t.Errorf("orders-only config re-planned item queries: misses %d -> %d", missesBefore, misses)
	}
	if hits < int64(len(w.Queries)) {
		t.Errorf("expected >= %d hits, got %d", len(w.Queries), hits)
	}
}

// TestCacheInvalidationOnStatsRefresh locks the staleness contract: an
// ANALYZE-style statistics refresh bumps the catalog generation and the
// next WorkloadCost call flushes every cached cost.
func TestCacheInvalidationOnStatsRefresh(t *testing.T) {
	db := liveDB(t)
	est := NewEstimator(db.Catalog())
	w := cacheWorkload(t)
	cfg := []*catalog.IndexMeta{catSpec()}

	if _, err := est.WorkloadCost(w, cfg); err != nil {
		t.Fatal(err)
	}
	if _, err := est.WorkloadCost(w, cfg); err != nil {
		t.Fatal(err)
	}
	hits1, _, size1 := est.CacheStats()
	if hits1 == 0 || size1 == 0 {
		t.Fatalf("warm cache expected: hits=%d size=%d", hits1, size1)
	}

	// Grow the table and refresh statistics: cached costs are now stale.
	gen := db.Catalog().Generation()
	for i := 0; i < 500; i++ {
		if _, err := db.Exec(fmt.Sprintf("INSERT INTO item (id, cat, price) VALUES (%d, %d, 1.0)", 10000+i, i%400)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.AnalyzeAll(); err != nil {
		t.Fatal(err)
	}
	if db.Catalog().Generation() == gen {
		t.Fatal("writes + ANALYZE must bump the catalog generation")
	}

	after, err := est.WorkloadCost(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	uncached := NewEstimator(db.Catalog())
	uncached.CacheDisabled = true
	want, err := uncached.WorkloadCost(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(after) != math.Float64bits(want) {
		t.Errorf("post-ANALYZE cost served stale cache entry: got %v want %v", after, want)
	}
	if after <= 0 {
		t.Error("workload cost must stay positive")
	}
}

// TestCacheInvalidationOnRetrain: retraining the regression model changes
// Predict, so cached (post-model) costs must flush.
func TestCacheInvalidationOnRetrain(t *testing.T) {
	db := liveDB(t)
	est := NewEstimator(db.Catalog())
	w := cacheWorkload(t)
	cfg := []*catalog.IndexMeta{catSpec()}

	before, err := est.WorkloadCost(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var samples []Sample
	for i := 1; i <= 30; i++ {
		f := Features{CData: float64(i * 10), CIO: float64(i % 7 * 20), CCPU: float64(i % 5 * 100)}
		samples = append(samples, Sample{Features: f, Actual: 3*f.CData + f.CIO + f.CCPU})
	}
	if err := est.Train(samples); err != nil {
		t.Fatal(err)
	}
	after, err := est.WorkloadCost(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(before) == math.Float64bits(after) {
		t.Error("retraining must invalidate cached costs (cost unchanged)")
	}
	uncached := NewEstimator(db.Catalog())
	uncached.CacheDisabled = true
	if err := uncached.Train(samples); err != nil {
		t.Fatal(err)
	}
	want, err := uncached.WorkloadCost(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(after) != math.Float64bits(want) {
		t.Errorf("post-retrain cost: got %v want %v", after, want)
	}
}

// TestCacheKnobChangesFlush: flipping IgnoreWriteCosts between calls must
// not serve costs computed under the other setting.
func TestCacheKnobChangesFlush(t *testing.T) {
	db := liveDB(t)
	est := NewEstimator(db.Catalog())
	w := cacheWorkload(t)
	cfg := []*catalog.IndexMeta{catSpec()}

	before, err := est.WorkloadCost(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	est.IgnoreWriteCosts = true
	got, err := est.WorkloadCost(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	uncached := NewEstimator(db.Catalog())
	uncached.CacheDisabled = true
	uncached.IgnoreWriteCosts = true
	want, err := uncached.WorkloadCost(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Errorf("IgnoreWriteCosts flip served stale entries: got %v want %v", got, want)
	}
	if got >= before {
		t.Errorf("ignoring index maintenance must lower the cost of a workload with writes: %v -> %v", before, got)
	}
}

// TestTableMemoDroppedWithTheCache: an incremental loop re-prices the same
// templates round after round under fresh sample literals, with writes in
// between. The referenced-tables memo is keyed by that literal-bearing SQL,
// so it must leave with the cost cache at each new epoch and never hold more
// than one round's templates.
func TestTableMemoDroppedWithTheCache(t *testing.T) {
	db := liveDB(t)
	est := NewEstimator(db.Catalog())
	cfg := []*catalog.IndexMeta{catSpec()}
	const templates = 12
	for round := 0; round < 20; round++ {
		w := &workload.Workload{}
		for i := 0; i < templates; i++ {
			addSQL(t, w, fmt.Sprintf("SELECT * FROM item WHERE cat = %d AND price > %d.5", round*templates+i, i), 10)
		}
		for _, c := range [][]*catalog.IndexMeta{nil, cfg, nil} {
			if _, err := est.WorkloadCost(w, c); err != nil {
				t.Fatal(err)
			}
		}
		est.mu.RLock()
		memo := len(est.tables)
		est.mu.RUnlock()
		if memo > templates {
			t.Fatalf("round %d: memo holds %d entries for %d live templates", round, memo, templates)
		}
		// The foreground traffic between rounds: a write moves the epoch.
		if _, err := db.Exec(fmt.Sprintf("INSERT INTO item (id, cat, price) VALUES (%d, 1, 1.0)", 500000+round)); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCacheMetricsExported: the obs registry sees hit/miss/size signals.
func TestCacheMetricsExported(t *testing.T) {
	db := liveDB(t)
	est := NewEstimator(db.Catalog())
	reg := obs.NewRegistry()
	est.Instrument(reg)
	w := cacheWorkload(t)
	cfg := []*catalog.IndexMeta{catSpec()}
	for i := 0; i < 3; i++ {
		if _, err := est.WorkloadCost(w, cfg); err != nil {
			t.Fatal(err)
		}
	}
	snap := reg.Snapshot()
	if v, _ := snap["costmodel_whatif_cache_hits_total"].(int64); v == 0 {
		t.Errorf("expected hit metric > 0, snapshot=%v", snap)
	}
	if v, _ := snap["costmodel_whatif_cache_misses_total"].(int64); v == 0 {
		t.Errorf("expected miss metric > 0, snapshot=%v", snap)
	}
	if v, _ := snap["costmodel_whatif_cache_size"].(float64); v == 0 {
		t.Errorf("expected size gauge > 0, snapshot=%v", snap)
	}
}
