package costmodel

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/catalog"
	"repro/internal/engine"
	"repro/internal/hypo"
	"repro/internal/planner"
	"repro/internal/sqlparser"
	"repro/internal/workload"
	"repro/internal/workload/banking"
	"repro/internal/workload/tpcc"
)

// tpccDB is TPC-C1x with a few real secondary indexes to remove, plus a
// hash-partitioned table so configurations can hold LOCAL and GLOBAL specs.
func tpccDB(t testing.TB) (*engine.DB, *workload.Workload) {
	t.Helper()
	db := engine.New()
	l := tpcc.NewLoader(1, 1)
	if err := l.Load(db); err != nil {
		t.Fatal(err)
	}
	ddl := []string{
		"CREATE TABLE acct (id BIGINT, owner BIGINT, region BIGINT, bal DOUBLE, PRIMARY KEY (id)) PARTITION BY HASH (owner) PARTITIONS 8",
		"CREATE INDEX r_cust_last ON customer (c_last)",
		"CREATE INDEX r_ol_order ON orderline (ol_o_id)",
		"CREATE INDEX r_stock_item ON stock (s_i_id, s_w_id)",
		"CREATE INDEX r_orders_cust ON orders (o_c_id)",
	}
	for _, s := range ddl {
		if _, err := db.Exec(s); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2000; i++ {
		if _, err := db.Exec(fmt.Sprintf("INSERT INTO acct (id, owner, region, bal) VALUES (%d, %d, %d, 1.0)", i, i%500, i%40)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.AnalyzeAll(); err != nil {
		t.Fatal(err)
	}
	w := &workload.Workload{}
	seen := map[string]bool{}
	for _, txn := range l.Transactions(40, tpcc.StandardMix()) {
		for _, sql := range txn {
			if !seen[sql] {
				seen[sql] = true
				addSQL(t, w, sql, float64(1+len(seen)%7))
			}
		}
	}
	addSQL(t, w, "SELECT * FROM acct WHERE owner = 7", 9)
	addSQL(t, w, "SELECT * FROM acct WHERE region = 3 AND bal > 0.5", 4)
	addSQL(t, w, "UPDATE acct SET region = 2 WHERE owner = 11", 3)
	addSQL(t, w, "INSERT INTO acct (id, owner, region, bal) VALUES (900001, 3, 3, 2.0)", 5)
	return db, w
}

// bankingDB is the over-indexed banking catalog of the removal experiment.
func bankingDB(t testing.TB) (*engine.DB, *workload.Workload) {
	t.Helper()
	db := engine.New()
	l := banking.NewLoader(1)
	if err := l.Load(db); err != nil {
		t.Fatal(err)
	}
	if _, err := l.InstallDefaultIndexes(db); err != nil {
		t.Fatal(err)
	}
	w := &workload.Workload{}
	seen := map[string]bool{}
	for _, sql := range append(l.SummarizationService(30), l.WithdrawalService(60)...) {
		if !seen[sql] {
			seen[sql] = true
			addSQL(t, w, sql, float64(1+len(seen)%5))
		}
	}
	return db, w
}

func secondaryIndexes(cat *catalog.Catalog) []*catalog.IndexMeta {
	var out []*catalog.IndexMeta
	for _, m := range cat.Indexes(false) {
		if !m.IsPrimary() {
			out = append(out, m)
		}
	}
	return out
}

// randomSpec estimates a candidate on random columns of a table the
// workload touches, LOCAL on a partitioned table half the time.
func randomSpec(t testing.TB, rng *rand.Rand, cat *catalog.Catalog, tables []string) *catalog.IndexMeta {
	t.Helper()
	tbl := cat.Table(tables[rng.Intn(len(tables))])
	names := make([]string, len(tbl.Columns))
	for i, c := range tbl.Columns {
		names[i] = c.Name
	}
	rng.Shuffle(len(names), func(i, j int) { names[i], names[j] = names[j], names[i] })
	cols := names[:1+rng.Intn(min(3, len(names)))]
	estimate := hypo.Estimate
	if tbl.IsPartitioned() && rng.Intn(2) == 0 {
		estimate = hypo.EstimateLocal
	}
	m, err := estimate(tbl, cols)
	if err != nil {
		t.Fatal(err)
	}
	m.Name = "cand_" + strings.NewReplacer("(", "_", ")", "", ",", "_", "/", "_").Replace(m.Key())
	return &m
}

// randomConfig mixes kept real indexes (the rest are removals), new specs,
// both localities of one column list on a partitioned table, a spec that
// duplicates a real index under another name and other statistics, and a
// duplicated entry — then shuffles.
func randomConfig(t testing.TB, rng *rand.Rand, cat *catalog.Catalog, tables []string) []*catalog.IndexMeta {
	t.Helper()
	var cfg []*catalog.IndexMeta
	real := secondaryIndexes(cat)
	keep := rng.Float64()
	for _, m := range real {
		if rng.Float64() < keep {
			cfg = append(cfg, m)
		}
	}
	for n := rng.Intn(6); n > 0; n-- {
		cfg = append(cfg, randomSpec(t, rng, cat, tables))
	}
	for _, name := range tables {
		if tbl := cat.Table(name); tbl.IsPartitioned() && rng.Intn(2) == 0 {
			global, err := hypo.Estimate(tbl, []string{"region"})
			if err != nil {
				t.Fatal(err)
			}
			local, err := hypo.EstimateLocal(tbl, []string{"region"})
			if err != nil {
				t.Fatal(err)
			}
			global.Name, local.Name = "cand_acct_region", "cand_acct_region_local"
			cfg = append(cfg, &global, &local)
		}
	}
	if rng.Intn(2) == 0 {
		like := *real[rng.Intn(len(real))]
		like.Name, like.Height, like.NumPages, like.Hypothetical = "cand_like_"+like.Name, like.Height+3, like.NumPages*7+1, true
		cfg = append(cfg, &like)
	}
	if len(cfg) > 0 && rng.Intn(2) == 0 {
		again := *cfg[rng.Intn(len(cfg))]
		again.Name = "zz_again_" + again.Name
		cfg = append(cfg, &again, cfg[rng.Intn(len(cfg))])
	}
	rng.Shuffle(len(cfg), func(i, j int) { cfg[i], cfg[j] = cfg[j], cfg[i] })
	return cfg
}

// referenceCost prices the workload the long way round: it builds, from
// nothing, a catalog with src's tables and statistics in which exactly the
// configuration (plus primary keys) is registered as real indexes — a real
// index of src wherever the configuration names its key, the first entry of
// a key otherwise — and plans every statement against it.
func referenceCost(t testing.TB, src *catalog.Catalog, config []*catalog.IndexMeta, w *workload.Workload) float64 {
	t.Helper()
	ref := catalog.New()
	for _, tbl := range src.Tables() {
		nt, err := ref.CreateTable(tbl.Name, append([]catalog.Column(nil), tbl.Columns...), tbl.PrimaryKey)
		if err != nil {
			t.Fatal(err)
		}
		nt.Stats, nt.NumRows, nt.AvgTupleBytes = tbl.Stats, tbl.NumRows, tbl.AvgTupleBytes
		nt.PartitionBy, nt.Partitions = tbl.PartitionBy, tbl.Partitions
	}
	register := func(m *catalog.IndexMeta) {
		c := *m
		c.Columns = append([]string(nil), m.Columns...)
		c.Hypothetical = false
		if err := ref.AddIndex(&c); err != nil {
			t.Fatal(err)
		}
	}
	realByKey := map[string][]*catalog.IndexMeta{}
	seen := map[string]bool{}
	for _, m := range src.Indexes(false) {
		if m.IsPrimary() {
			register(m)
			seen[m.Key()] = true // an entry on the primary key's columns is the primary key
		} else {
			realByKey[m.Key()] = append(realByKey[m.Key()], m)
		}
	}
	for _, m := range config {
		if seen[m.Key()] {
			continue
		}
		seen[m.Key()] = true
		if real := realByKey[m.Key()]; len(real) > 0 {
			for _, r := range real {
				register(r)
			}
		} else {
			register(m)
		}
	}
	est := NewEstimator(ref)
	var total float64
	for i := range w.Queries {
		f, err := est.ComputeFeatures(w.Queries[i].Stmt)
		if err != nil {
			t.Fatal(err)
		}
		total += est.Model().Predict(f) * w.Queries[i].Weight
	}
	return total
}

// TestViewCostEqualsCostOfTheRealConfiguration is the what-if contract:
// pricing a configuration without building it gives, bit for bit, the cost
// the planner computes once that configuration really is the index set.
func TestViewCostEqualsCostOfTheRealConfiguration(t *testing.T) {
	for _, tc := range []struct {
		name string
		load func(testing.TB) (*engine.DB, *workload.Workload)
	}{{"tpcc", tpccDB}, {"banking", bankingDB}} {
		t.Run(tc.name, func(t *testing.T) {
			db, w := tc.load(t)
			cat := db.Catalog()
			touched := map[string]bool{}
			for i := range w.Queries {
				for _, name := range sqlparser.ReferencedTables(w.Queries[i].Stmt) {
					touched[name] = true
				}
			}
			var tables []string
			for _, tbl := range cat.Tables() { // name order: the draw is seed-stable
				if touched[tbl.Name] {
					tables = append(tables, tbl.Name)
				}
			}
			before := catalogState(cat)
			cached, uncached := NewEstimator(cat), NewEstimator(cat)
			uncached.CacheDisabled = true
			rng := rand.New(rand.NewSource(16))
			for i := 0; i < 30; i++ {
				cfg := randomConfig(t, rng, cat, tables)
				want := referenceCost(t, cat, cfg, w)
				for name, est := range map[string]*Estimator{"cached": cached, "uncached": uncached} {
					got, err := est.WorkloadCost(w, cfg)
					if err != nil {
						t.Fatal(err)
					}
					if math.Float64bits(got) != math.Float64bits(want) {
						t.Errorf("config %d (%d entries), %s: view %v, real configuration %v", i, len(cfg), name, got, want)
					}
				}
			}
			if hits, _, _ := cached.CacheStats(); hits == 0 {
				t.Error("the cached estimator never hit: the differential did not cover the cache")
			}
			if after := catalogState(cat); !reflect.DeepEqual(before, after) {
				t.Error("what-if costing changed the catalog")
			}
		})
	}
}

// catalogState is everything a what-if call could have disturbed: the
// generation and every index, by value, in catalog order.
func catalogState(cat *catalog.Catalog) []any {
	state := []any{cat.Generation()}
	for _, m := range cat.Indexes(true) {
		c := *m
		c.Columns = append([]string(nil), m.Columns...)
		state = append(state, c)
	}
	return state
}

// TestWhatIfNeverWritesSharedCatalog: what-if costing shares the catalog
// with foreground planning and takes no lock against it, so it may only
// read. This goroutine prices rotating configurations — removals and
// additions — while another plans statements and lists indexes on the live
// catalog; the race detector sees any write, and the catalog must come out
// as it went in.
func TestWhatIfNeverWritesSharedCatalog(t *testing.T) {
	db, w := tpccDB(t)
	cat := db.Catalog()
	rng := rand.New(rand.NewSource(16))
	tables := []string{"acct", "customer", "orderline", "orders", "stock"}
	configs := make([][]*catalog.IndexMeta, 12)
	for i := range configs {
		configs[i] = randomConfig(t, rng, cat, tables)
	}
	before := catalogState(cat)
	listed := len(cat.Indexes(true))

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for planned := 0; ; planned++ {
			select {
			case <-stop:
				return
			default:
			}
			q := &w.Queries[planned%len(w.Queries)]
			var err error
			if sel, ok := q.Stmt.Clone().(*sqlparser.SelectStmt); ok {
				_, err = planner.PlanSelect(cat, sel)
			} else {
				_, err = planner.PlanWrite(cat, q.Stmt.Clone())
			}
			if err != nil {
				t.Errorf("foreground plan of %q: %v", q.SQL, err)
				return
			}
			if n := len(cat.Indexes(true)); n != listed {
				t.Errorf("a foreground reader saw %d indexes, the catalog holds %d", n, listed)
				return
			}
		}
	}()
	est := NewEstimator(cat)
	for i := 0; i < 120; i++ {
		if _, err := est.WorkloadCost(w, configs[i%len(configs)]); err != nil {
			t.Error(err)
			break
		}
	}
	close(stop)
	wg.Wait()
	if after := catalogState(cat); !reflect.DeepEqual(before, after) {
		t.Error("what-if costing changed the catalog")
	}
}
