package planner

import (
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/sqlparser"
	"repro/internal/sqltypes"
)

// testCatalog builds a catalog with stats but no live data (planning only).
func testCatalog(t *testing.T) *catalog.Catalog {
	t.Helper()
	cat := catalog.New()
	tbl, err := cat.CreateTable("orders", []catalog.Column{
		{Name: "oid", Type: sqltypes.KindInt},
		{Name: "cid", Type: sqltypes.KindInt},
		{Name: "amount", Type: sqltypes.KindFloat},
		{Name: "status", Type: sqltypes.KindString},
	}, []string{"oid"})
	if err != nil {
		t.Fatal(err)
	}
	tbl.NumRows = 100000
	tbl.Stats["oid"] = &catalog.ColumnStats{NumRows: 100000, NumDistinct: 100000,
		Min: sqltypes.NewInt(0), Max: sqltypes.NewInt(99999)}
	tbl.Stats["cid"] = &catalog.ColumnStats{NumRows: 100000, NumDistinct: 5000,
		Min: sqltypes.NewInt(0), Max: sqltypes.NewInt(4999)}
	tbl.Stats["amount"] = &catalog.ColumnStats{NumRows: 100000, NumDistinct: 10000,
		Min: sqltypes.NewFloat(0), Max: sqltypes.NewFloat(1000)}
	tbl.Stats["status"] = &catalog.ColumnStats{NumRows: 100000, NumDistinct: 4,
		Min: sqltypes.NewString("a"), Max: sqltypes.NewString("z")}

	cust, err := cat.CreateTable("customer", []catalog.Column{
		{Name: "id", Type: sqltypes.KindInt},
		{Name: "city", Type: sqltypes.KindString},
	}, []string{"id"})
	if err != nil {
		t.Fatal(err)
	}
	cust.NumRows = 5000
	cust.Stats["id"] = &catalog.ColumnStats{NumRows: 5000, NumDistinct: 5000,
		Min: sqltypes.NewInt(0), Max: sqltypes.NewInt(4999)}
	cust.Stats["city"] = &catalog.ColumnStats{NumRows: 5000, NumDistinct: 50,
		Min: sqltypes.NewString("a"), Max: sqltypes.NewString("z")}

	if err := cat.AddIndex(&catalog.IndexMeta{Name: "pk_orders", Table: "orders",
		Columns: []string{"oid"}, Unique: true,
		NumTuples: 100000, NumPages: 1600, Height: 3, SizeBytes: 2 << 20}); err != nil {
		t.Fatal(err)
	}
	if err := cat.AddIndex(&catalog.IndexMeta{Name: "pk_customer", Table: "customer",
		Columns: []string{"id"}, Unique: true,
		NumTuples: 5000, NumPages: 80, Height: 2, SizeBytes: 120 << 10}); err != nil {
		t.Fatal(err)
	}
	return cat
}

// parseStmt parses sql, failing the test on error.
func parseStmt(t *testing.T, sql string) sqlparser.Statement {
	t.Helper()
	stmt, err := sqlparser.Parse(sql)
	if err != nil {
		t.Fatalf("Parse(%q): %v", sql, err)
	}
	return stmt
}

func plan(t *testing.T, cat *catalog.Catalog, sql string) *SelectPlan {
	t.Helper()
	stmt := parseStmt(t, sql).(*sqlparser.SelectStmt)
	p, err := PlanSelect(cat, stmt)
	if err != nil {
		t.Fatalf("PlanSelect(%q): %v", sql, err)
	}
	return p
}

func TestPKLookupPlansIndexScan(t *testing.T) {
	cat := testCatalog(t)
	p := plan(t, cat, "SELECT * FROM orders WHERE oid = 5")
	if !strings.Contains(Explain(p.Root), "IndexScan(orders via pk_orders") {
		t.Errorf("expected pk index scan:\n%s", Explain(p.Root))
	}
	if len(p.IndexesUsed) != 1 || p.IndexesUsed[0] != "pk_orders" {
		t.Errorf("IndexesUsed: %v", p.IndexesUsed)
	}
}

func TestNoUsableIndexPlansSeqScan(t *testing.T) {
	cat := testCatalog(t)
	p := plan(t, cat, "SELECT * FROM orders WHERE status = 'open'")
	if !strings.Contains(Explain(p.Root), "SeqScan") {
		t.Errorf("expected seqscan:\n%s", Explain(p.Root))
	}
}

func TestHypotheticalIndexIsPlannable(t *testing.T) {
	cat := testCatalog(t)
	if err := cat.AddIndex(&catalog.IndexMeta{Name: "hypo_cid", Table: "orders",
		Columns: []string{"cid"}, Hypothetical: true,
		NumTuples: 100000, NumPages: 1600, Height: 3, SizeBytes: 2 << 20}); err != nil {
		t.Fatal(err)
	}
	p := plan(t, cat, "SELECT * FROM orders WHERE cid = 42")
	if !strings.Contains(Explain(p.Root), "hypo_cid") {
		t.Errorf("hypothetical index should be chosen:\n%s", Explain(p.Root))
	}
}

func TestWhatIfCostDropsWithHypotheticalIndex(t *testing.T) {
	cat := testCatalog(t)
	before := plan(t, cat, "SELECT * FROM orders WHERE cid = 42").EstCost()
	if err := cat.AddIndex(&catalog.IndexMeta{Name: "hypo_cid", Table: "orders",
		Columns: []string{"cid"}, Hypothetical: true,
		NumTuples: 100000, NumPages: 1600, Height: 3}); err != nil {
		t.Fatal(err)
	}
	after := plan(t, cat, "SELECT * FROM orders WHERE cid = 42").EstCost()
	if after >= before {
		t.Errorf("hypothetical index should reduce cost: %.1f -> %.1f", before, after)
	}
}

func TestCompositePrefixPlanning(t *testing.T) {
	cat := testCatalog(t)
	if err := cat.AddIndex(&catalog.IndexMeta{Name: "idx_cs", Table: "orders",
		Columns:   []string{"cid", "status"},
		NumTuples: 100000, NumPages: 1700, Height: 3}); err != nil {
		t.Fatal(err)
	}
	p := plan(t, cat, "SELECT * FROM orders WHERE cid = 9 AND status = 'paid'")
	scan, ok := findIndexScan(p.Root)
	if !ok {
		t.Fatalf("no index scan:\n%s", Explain(p.Root))
	}
	if len(scan.EqVals) != 2 {
		t.Errorf("want 2 equality columns bound, got %d", len(scan.EqVals))
	}
	// prefix-only query also matches
	p2 := plan(t, cat, "SELECT * FROM orders WHERE cid = 9")
	if _, ok := findIndexScan(p2.Root); !ok {
		t.Errorf("prefix query should use composite index:\n%s", Explain(p2.Root))
	}
	// non-prefix column alone must not match
	p3 := plan(t, cat, "SELECT * FROM orders WHERE status = 'paid'")
	if _, ok := findIndexScan(p3.Root); ok {
		t.Errorf("status-only must not use (cid,status) index:\n%s", Explain(p3.Root))
	}
}

func TestEqPlusRangeBound(t *testing.T) {
	cat := testCatalog(t)
	if err := cat.AddIndex(&catalog.IndexMeta{Name: "idx_ca", Table: "orders",
		Columns:   []string{"cid", "amount"},
		NumTuples: 100000, NumPages: 1700, Height: 3}); err != nil {
		t.Fatal(err)
	}
	p := plan(t, cat, "SELECT * FROM orders WHERE cid = 9 AND amount > 500")
	scan, ok := findIndexScan(p.Root)
	if !ok {
		t.Fatalf("no index scan:\n%s", Explain(p.Root))
	}
	if len(scan.EqVals) != 1 || scan.Lo == nil {
		t.Errorf("want eq prefix + lo bound, got eq=%d lo=%v", len(scan.EqVals), scan.Lo)
	}
}

func TestJoinPlanPicksHashOrINL(t *testing.T) {
	cat := testCatalog(t)
	p := plan(t, cat, "SELECT * FROM customer c JOIN orders o ON c.id = o.cid WHERE c.city = 'rome'")
	if !strings.Contains(Explain(p.Root), "Join") {
		t.Fatalf("expected a join:\n%s", Explain(p.Root))
	}
}

func TestINLJoinChosenWithInnerIndex(t *testing.T) {
	cat := testCatalog(t)
	if err := cat.AddIndex(&catalog.IndexMeta{Name: "idx_cid", Table: "orders",
		Columns:   []string{"cid"},
		NumTuples: 100000, NumPages: 1600, Height: 3}); err != nil {
		t.Fatal(err)
	}
	p := plan(t, cat, "SELECT * FROM customer c JOIN orders o ON o.cid = c.id WHERE c.id = 7")
	txt := Explain(p.Root)
	if !strings.Contains(txt, "IndexNL") {
		t.Errorf("expected index nested loop:\n%s", txt)
	}
}

func TestAmbiguousColumnError(t *testing.T) {
	cat := testCatalog(t)
	// "cid" exists only in orders, "id" only in customer — make ambiguity
	stmt := parseStmt(t, "SELECT oid FROM orders o1, orders o2 WHERE oid = 3").(*sqlparser.SelectStmt)
	if _, err := PlanSelect(cat, stmt); err == nil {
		t.Error("ambiguous column must error")
	}
}

func TestUnknownTableAndColumnErrors(t *testing.T) {
	cat := testCatalog(t)
	for _, sql := range []string{
		"SELECT * FROM ghost",
		"SELECT ghost FROM orders",
		"SELECT o.ghost FROM orders o",
		"SELECT * FROM orders WHERE ghost = 1",
	} {
		stmt := parseStmt(t, sql).(*sqlparser.SelectStmt)
		if _, err := PlanSelect(cat, stmt); err == nil {
			t.Errorf("PlanSelect(%q) should fail", sql)
		}
	}
}

func TestOrderBySatisfiedByIndex(t *testing.T) {
	cat := testCatalog(t)
	if err := cat.AddIndex(&catalog.IndexMeta{Name: "idx_ca", Table: "orders",
		Columns:   []string{"cid", "amount"},
		NumTuples: 100000, NumPages: 1700, Height: 3}); err != nil {
		t.Fatal(err)
	}
	p := plan(t, cat, "SELECT * FROM orders WHERE cid = 3 ORDER BY amount")
	sort, ok := findSort(p.Root)
	if !ok {
		t.Fatalf("no sort node:\n%s", Explain(p.Root))
	}
	if !sort.Satisfied {
		t.Errorf("index order should satisfy ORDER BY amount:\n%s", Explain(p.Root))
	}
	p2 := plan(t, cat, "SELECT * FROM orders WHERE cid = 3 ORDER BY amount DESC")
	sort2, _ := findSort(p2.Root)
	if sort2.Satisfied {
		t.Error("DESC must not be satisfied by ascending index")
	}
}

func TestWritePlanInsertMaintenanceGrowsWithIndexes(t *testing.T) {
	cat := testCatalog(t)
	ins := parseStmt(t, "INSERT INTO orders (oid, cid, amount, status) VALUES (1, 2, 3.0, 'x')")
	wp1, err := PlanWrite(cat, ins)
	if err != nil {
		t.Fatal(err)
	}
	if err := cat.AddIndex(&catalog.IndexMeta{Name: "i1", Table: "orders",
		Columns: []string{"cid"}, NumTuples: 100000, NumPages: 1600, Height: 3}); err != nil {
		t.Fatal(err)
	}
	if err := cat.AddIndex(&catalog.IndexMeta{Name: "i2", Table: "orders",
		Columns: []string{"amount"}, NumTuples: 100000, NumPages: 1600, Height: 3}); err != nil {
		t.Fatal(err)
	}
	wp2, err := PlanWrite(cat, ins)
	if err != nil {
		t.Fatal(err)
	}
	if wp2.TotalCost <= wp1.TotalCost {
		t.Errorf("insert cost should grow with indexes: %.3f vs %.3f", wp2.TotalCost, wp1.TotalCost)
	}
	if len(wp2.MaintainIndexes) != len(wp1.MaintainIndexes)+2 {
		t.Errorf("maintenance entries: %d vs %d", len(wp2.MaintainIndexes), len(wp1.MaintainIndexes))
	}
}

func TestWritePlanUpdateOnlyTouchedIndexes(t *testing.T) {
	cat := testCatalog(t)
	if err := cat.AddIndex(&catalog.IndexMeta{Name: "i_cid", Table: "orders",
		Columns: []string{"cid"}, NumTuples: 100000, Height: 3}); err != nil {
		t.Fatal(err)
	}
	if err := cat.AddIndex(&catalog.IndexMeta{Name: "i_amt", Table: "orders",
		Columns: []string{"amount"}, NumTuples: 100000, Height: 3}); err != nil {
		t.Fatal(err)
	}
	upd := parseStmt(t, "UPDATE orders SET amount = 5 WHERE oid = 3")
	wp, err := PlanWrite(cat, upd)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range wp.MaintainIndexes {
		if m.Index.Name == "i_cid" {
			t.Error("update of amount must not maintain i_cid")
		}
	}
	found := false
	for _, m := range wp.MaintainIndexes {
		if m.Index.Name == "i_amt" {
			found = true
			if m.Total() <= 0 {
				t.Error("maintenance cost must be positive")
			}
		}
	}
	if !found {
		t.Error("i_amt must be maintained")
	}
}

func TestWritePlanDeleteHasNoMaintenance(t *testing.T) {
	cat := testCatalog(t)
	if err := cat.AddIndex(&catalog.IndexMeta{Name: "i_cid", Table: "orders",
		Columns: []string{"cid"}, NumTuples: 100000, Height: 3}); err != nil {
		t.Fatal(err)
	}
	del := parseStmt(t, "DELETE FROM orders WHERE oid = 3")
	wp, err := PlanWrite(cat, del)
	if err != nil {
		t.Fatal(err)
	}
	if len(wp.MaintainIndexes) != 0 {
		t.Errorf("deletes defer index maintenance (paper §V): %d entries", len(wp.MaintainIndexes))
	}
}

func findIndexScan(n Node) (*IndexScanNode, bool) {
	switch v := n.(type) {
	case *IndexScanNode:
		return v, true
	case *FilterNode:
		return findIndexScan(v.Input)
	case *ProjectNode:
		return findIndexScan(v.Input)
	case *SortNode:
		return findIndexScan(v.Input)
	case *AggNode:
		return findIndexScan(v.Input)
	case *LimitNode:
		return findIndexScan(v.Input)
	case *JoinNode:
		if s, ok := findIndexScan(v.Left); ok {
			return s, true
		}
		return findIndexScan(v.Right)
	default:
		return nil, false
	}
}

func findSort(n Node) (*SortNode, bool) {
	switch v := n.(type) {
	case *SortNode:
		return v, true
	case *ProjectNode:
		return findSort(v.Input)
	case *LimitNode:
		return findSort(v.Input)
	default:
		return nil, false
	}
}

// TestPlanningCloneLeavesOriginalUntouched pins the contract the estimator's
// Clone()-based fast path relies on: the planner may qualify column
// references and rewrite ORDER BY aliases in place, but only ever on the
// clone it is handed — the original statement's rendering (the template the
// cost cache keys on) must never change, however many times its clones are
// planned under different configurations.
func TestPlanningCloneLeavesOriginalUntouched(t *testing.T) {
	cat := testCatalog(t)
	queries := []string{
		"SELECT cid, amount AS a FROM orders WHERE cid = 7 ORDER BY a",
		"SELECT o.cid, c.city FROM orders o JOIN customer c ON o.cid = c.id WHERE c.city = 'x'",
		"SELECT cid FROM orders WHERE amount BETWEEN 1.0 AND 2.0 AND status IN ('a', 'b')",
		"UPDATE orders SET amount = amount + 1.0 WHERE cid = 3",
		"DELETE FROM orders WHERE cid = 9",
		"INSERT INTO orders (oid, cid, amount, status) VALUES (1, 2, 3.0, 'n')",
	}
	for _, sql := range queries {
		stmt, err := sqlparser.Parse(sql)
		if err != nil {
			t.Fatal(err)
		}
		before := stmt.String()
		for round := 0; round < 3; round++ {
			switch s := stmt.(type) {
			case *sqlparser.SelectStmt:
				if _, err := PlanSelect(cat, s.CloneSelect()); err != nil {
					t.Fatalf("%s: %v", sql, err)
				}
			default:
				if _, err := PlanWrite(cat, stmt.Clone()); err != nil {
					t.Fatalf("%s: %v", sql, err)
				}
			}
			if got := stmt.String(); got != before {
				t.Fatalf("planning a clone mutated the original of %q:\n  before: %s\n  after:  %s", sql, before, got)
			}
		}
	}
}
