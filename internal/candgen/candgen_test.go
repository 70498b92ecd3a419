package candgen

import (
	"context"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/sqlparser"
	"repro/internal/sqltypes"
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

func testCatalog(t *testing.T) *catalog.Catalog {
	t.Helper()
	cat := catalog.New()
	big, err := cat.CreateTable("orders", []catalog.Column{
		{Name: "oid", Type: sqltypes.KindInt},
		{Name: "cid", Type: sqltypes.KindInt},
		{Name: "amount", Type: sqltypes.KindFloat},
		{Name: "status", Type: sqltypes.KindString},
		{Name: "region", Type: sqltypes.KindString},
	}, []string{"oid"})
	if err != nil {
		t.Fatal(err)
	}
	big.NumRows = 100000
	for col, ndv := range map[string]int64{"oid": 100000, "cid": 5000, "amount": 10000, "status": 4, "region": 20} {
		big.Stats[col] = &catalog.ColumnStats{NumRows: 100000, NumDistinct: ndv, AvgWidth: 8}
	}
	small, err := cat.CreateTable("customer", []catalog.Column{
		{Name: "id", Type: sqltypes.KindInt},
		{Name: "city", Type: sqltypes.KindString},
	}, []string{"id"})
	if err != nil {
		t.Fatal(err)
	}
	small.NumRows = 5000
	small.Stats["id"] = &catalog.ColumnStats{NumRows: 5000, NumDistinct: 5000, AvgWidth: 8}
	small.Stats["city"] = &catalog.ColumnStats{NumRows: 5000, NumDistinct: 50, AvgWidth: 12}
	return cat
}

func generate(t *testing.T, cat *catalog.Catalog, sqls ...string) []*Candidate {
	t.Helper()
	w := &workload.Workload{}
	for _, s := range sqls {
		addSQL(t, w, s, 1)
	}
	return NewGenerator(cat).Generate(context.Background(), w)
}

func keys(cands []*Candidate) []string {
	out := make([]string, len(cands))
	for i, c := range cands {
		out[i] = c.Key()
	}
	return out
}

func hasKey(cands []*Candidate, key string) bool {
	for _, c := range cands {
		if c.Key() == key {
			return true
		}
	}
	return false
}

func TestFilterPredicateSingleColumn(t *testing.T) {
	cat := testCatalog(t)
	cands := generate(t, cat, "SELECT * FROM orders WHERE cid = 5")
	if !hasKey(cands, "orders(cid)") {
		t.Errorf("want orders(cid), got %v", keys(cands))
	}
}

func TestCompositeFromConjunction(t *testing.T) {
	cat := testCatalog(t)
	cands := generate(t, cat, "SELECT * FROM orders WHERE cid = 5 AND amount > 100")
	found := false
	for _, c := range cands {
		if c.Meta.Table == "orders" && len(c.Meta.Columns) == 2 {
			found = true
		}
	}
	if !found {
		t.Errorf("AND-composite should yield multi-column candidate: %v", keys(cands))
	}
}

func TestDNFDistribution(t *testing.T) {
	cat := testCatalog(t)
	// (cid AND amount) OR (cid AND region) → candidates (cid,amount), (cid,region)
	cands := generate(t, cat,
		"SELECT * FROM orders WHERE (cid = 1 AND amount > 5) OR (cid = 1 AND region = 'eu')")
	if !hasKey(cands, "orders(cid,amount)") || !hasKey(cands, "orders(cid,region)") {
		t.Errorf("DNF branches should each yield a composite: %v", keys(cands))
	}
}

func TestDNFFactoredForm(t *testing.T) {
	cat := testCatalog(t)
	// cid AND (amount OR region): distribution yields the same two composites.
	cands := generate(t, cat,
		"SELECT * FROM orders WHERE cid = 1 AND (amount > 5 OR region = 'eu')")
	if !hasKey(cands, "orders(cid,amount)") || !hasKey(cands, "orders(cid,region)") {
		t.Errorf("factored form should distribute like its DNF: %v", keys(cands))
	}
}

func TestLowSelectivityPredicateSkipped(t *testing.T) {
	cat := testCatalog(t)
	// status has 4 distinct values → eq selectivity 0.25 < 1/3 threshold,
	// so it qualifies; but a NE predicate is never indexable.
	cands := generate(t, cat, "SELECT * FROM orders WHERE status <> 'open'")
	if hasKey(cands, "orders(status)") {
		t.Errorf("<> predicate must not yield a candidate: %v", keys(cands))
	}
}

func TestSelectivityThreshold(t *testing.T) {
	cat := testCatalog(t)
	g := NewGenerator(cat)
	g.SelectivityThreshold = 0.01 // stricter than status eq sel (0.25)
	w := &workload.Workload{}
	addSQL(t, w, "SELECT * FROM orders WHERE status = 'open'", 1)
	cands := g.Generate(context.Background(), w)
	if hasKey(cands, "orders(status)") {
		t.Errorf("status eq sel 0.25 exceeds 0.01 threshold: %v", keys(cands))
	}
}

func TestJoinDrivenTableIndex(t *testing.T) {
	cat := testCatalog(t)
	cands := generate(t, cat,
		"SELECT * FROM orders o JOIN customer c ON o.cid = c.id WHERE o.amount > 999")
	// customer (5000 rows) is smaller than orders (100000): driven table.
	// c.id is covered by pk_customer? No PK indexes registered in this
	// catalog, so customer(id) must be proposed.
	if !hasKey(cands, "customer(id)") {
		t.Errorf("driven-table join index missing: %v", keys(cands))
	}
}

func TestGroupOrderCandidates(t *testing.T) {
	cat := testCatalog(t)
	cands := generate(t, cat,
		"SELECT region, COUNT(*) FROM orders GROUP BY region")
	if !hasKey(cands, "orders(region)") {
		t.Errorf("GROUP BY column should yield candidate: %v", keys(cands))
	}
	cands2 := generate(t, cat, "SELECT * FROM orders ORDER BY amount")
	if !hasKey(cands2, "orders(amount)") {
		t.Errorf("ORDER BY column should yield candidate: %v", keys(cands2))
	}
}

func TestGroupByUniqueColumnSkipped(t *testing.T) {
	cat := testCatalog(t)
	// oid is unique: grouping by it has no effect, no index needed.
	cands := generate(t, cat, "SELECT oid, COUNT(*) FROM orders GROUP BY oid")
	if hasKey(cands, "orders(oid)") {
		t.Errorf("unique-column GROUP BY must not yield candidate: %v", keys(cands))
	}
}

func TestLeftmostMerge(t *testing.T) {
	cat := testCatalog(t)
	cands := generate(t, cat,
		"SELECT * FROM orders WHERE cid = 1",
		"SELECT * FROM orders WHERE cid = 1 AND amount > 5")
	if hasKey(cands, "orders(cid)") {
		t.Errorf("orders(cid) must merge into orders(cid,amount): %v", keys(cands))
	}
	if !hasKey(cands, "orders(cid,amount)") {
		t.Errorf("composite should survive: %v", keys(cands))
	}
	// Merged weight = both templates.
	for _, c := range cands {
		if c.Key() == "orders(cid,amount)" && c.TemplateWeight != 2 {
			t.Errorf("merged weight: %v", c.TemplateWeight)
		}
	}
}

func TestExistingIndexSuppressesCandidate(t *testing.T) {
	cat := testCatalog(t)
	if err := cat.AddIndex(&catalog.IndexMeta{Name: "idx_cid_amount", Table: "orders",
		Columns: []string{"cid", "amount"}}); err != nil {
		t.Fatal(err)
	}
	cands := generate(t, cat, "SELECT * FROM orders WHERE cid = 1")
	if hasKey(cands, "orders(cid)") {
		t.Errorf("prefix of existing index must be suppressed: %v", keys(cands))
	}
}

func TestUpdateDeleteWhereYieldsCandidates(t *testing.T) {
	cat := testCatalog(t)
	cands := generate(t, cat, "UPDATE orders SET amount = 0 WHERE cid = 9")
	if !hasKey(cands, "orders(cid)") {
		t.Errorf("UPDATE WHERE should yield candidate: %v", keys(cands))
	}
	cands2 := generate(t, cat, "DELETE FROM orders WHERE region = 'eu'")
	if !hasKey(cands2, "orders(region)") {
		t.Errorf("DELETE WHERE should yield candidate: %v", keys(cands2))
	}
}

func TestInsertYieldsNothing(t *testing.T) {
	cat := testCatalog(t)
	cands := generate(t, cat, "INSERT INTO orders (oid, cid) VALUES (1, 2)")
	if len(cands) != 0 {
		t.Errorf("INSERT must yield no candidates: %v", keys(cands))
	}
}

func TestMaxIndexColumnsBound(t *testing.T) {
	cat := testCatalog(t)
	cands := generate(t, cat,
		"SELECT * FROM orders WHERE cid = 1 AND amount > 2 AND region = 'x' AND status = 'open' AND oid > 5")
	for _, c := range cands {
		if len(c.Meta.Columns) > 3 {
			t.Errorf("candidate exceeds MaxIndexColumns: %v", c.Key())
		}
	}
}

func TestCandidatesCarryHypoStats(t *testing.T) {
	cat := testCatalog(t)
	cands := generate(t, cat, "SELECT * FROM orders WHERE cid = 1")
	for _, c := range cands {
		if !c.Meta.Hypothetical {
			t.Errorf("candidate %s must be hypothetical", c.Key())
		}
		if c.Meta.SizeBytes <= 0 || c.Meta.Height < 1 {
			t.Errorf("candidate %s missing estimated stats: %+v", c.Key(), c.Meta)
		}
	}
}

func TestWeightAggregationAcrossTemplates(t *testing.T) {
	cat := testCatalog(t)
	w := &workload.Workload{}
	addSQL(t, w, "SELECT * FROM orders WHERE cid = 1", 100)
	addSQL(t, w, "UPDATE orders SET amount = 1 WHERE cid = 2", 50)
	cands := NewGenerator(cat).Generate(context.Background(), w)
	for _, c := range cands {
		if c.Key() == "orders(cid)" && c.TemplateWeight != 150 {
			t.Errorf("weights should aggregate: %v", c.TemplateWeight)
		}
	}
}

func TestDNFRewriteShapes(t *testing.T) {
	parse := func(s string) sqlparser.Expr {
		stmt := parseSQL(t, "SELECT * FROM t WHERE "+s).(*sqlparser.SelectStmt)
		return stmt.Where
	}
	// a AND (b OR c) → 2 branches
	if got := len(toDNF(parse("a = 1 AND (b = 2 OR c = 3)"))); got != 2 {
		t.Errorf("AND-over-OR branches: %d", got)
	}
	// (a OR b) AND (c OR d) → 4 branches
	if got := len(toDNF(parse("(a = 1 OR b = 2) AND (c = 3 OR d = 4)"))); got != 4 {
		t.Errorf("cross-distribution branches: %d", got)
	}
	// NOT (a AND b) → NOT a OR NOT b → 2 branches
	if got := len(toDNF(parse("NOT (a = 1 AND b = 2)"))); got != 2 {
		t.Errorf("De Morgan branches: %d", got)
	}
	// plain atom → 1 branch of 1
	branches := toDNF(parse("a = 1"))
	if len(branches) != 1 || len(branches[0]) != 1 {
		t.Errorf("atom shape: %v", branches)
	}
}

func TestGeneratedNamesAreValidIdentifiers(t *testing.T) {
	cat := testCatalog(t)
	cands := generate(t, cat, "SELECT * FROM orders WHERE cid = 1 AND amount > 2")
	for _, c := range cands {
		if strings.ContainsAny(c.Meta.Name, "(),. ") {
			t.Errorf("candidate name %q not identifier-safe", c.Meta.Name)
		}
	}
}

func TestPartitionedTableYieldsBothVariants(t *testing.T) {
	cat := testCatalog(t)
	tbl, err := cat.CreateTable("part", []catalog.Column{
		{Name: "id", Type: sqltypes.KindInt},
		{Name: "owner", Type: sqltypes.KindInt},
	}, []string{"id"})
	if err != nil {
		t.Fatal(err)
	}
	tbl.NumRows = 50000
	tbl.PartitionBy = "owner"
	tbl.Partitions = 8
	tbl.Stats["owner"] = &catalog.ColumnStats{NumRows: 50000, NumDistinct: 5000, AvgWidth: 8}
	tbl.Stats["id"] = &catalog.ColumnStats{NumRows: 50000, NumDistinct: 50000, AvgWidth: 8}

	cands := generate(t, cat, "SELECT * FROM part WHERE owner = 5")
	var global, local *Candidate
	for _, c := range cands {
		if c.Meta.Table != "part" {
			continue
		}
		if c.Meta.Local {
			local = c
		} else {
			global = c
		}
	}
	if global == nil || local == nil {
		t.Fatalf("want both variants, got %v", keys(cands))
	}
	if local.Meta.SizeBytes >= global.Meta.SizeBytes {
		t.Errorf("local estimate should be smaller: %d vs %d",
			local.Meta.SizeBytes, global.Meta.SizeBytes)
	}
	if local.Meta.Height > global.Meta.Height {
		t.Errorf("local trees should not be deeper: %d vs %d",
			local.Meta.Height, global.Meta.Height)
	}
}

func TestUnpartitionedTableSingleVariant(t *testing.T) {
	cat := testCatalog(t)
	cands := generate(t, cat, "SELECT * FROM orders WHERE cid = 5")
	for _, c := range cands {
		if c.Meta.Local {
			t.Errorf("unpartitioned table must not yield local candidates: %v", c.Key())
		}
	}
}
