package planner

import (
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/sqlparser"
	"repro/internal/sqltypes"
)

// partitionedCatalog builds stats for a 16-way hash-partitioned table with
// both a local and a global index on the same column.
func partitionedCatalog(t *testing.T) *catalog.Catalog {
	t.Helper()
	cat := catalog.New()
	tbl, err := cat.CreateTable("acct", []catalog.Column{
		{Name: "id", Type: sqltypes.KindInt},
		{Name: "owner", Type: sqltypes.KindInt},
		{Name: "region", Type: sqltypes.KindInt},
	}, []string{"id"})
	if err != nil {
		t.Fatal(err)
	}
	tbl.NumRows = 64000
	tbl.PartitionBy = "owner"
	tbl.Partitions = 16
	for col, ndv := range map[string]int64{"id": 64000, "owner": 16000, "region": 9000} {
		tbl.Stats[col] = &catalog.ColumnStats{NumRows: 64000, NumDistinct: ndv,
			Min: sqltypes.NewInt(0), Max: sqltypes.NewInt(ndv - 1)}
	}
	return cat
}

func addPair(t *testing.T, cat *catalog.Catalog, col string) (local, global *catalog.IndexMeta) {
	t.Helper()
	local = &catalog.IndexMeta{Name: "l_" + col, Table: "acct", Columns: []string{col},
		Local: true, NumTuples: 64000, NumPages: 720, Height: 2, SizeBytes: 1 << 20}
	global = &catalog.IndexMeta{Name: "g_" + col, Table: "acct", Columns: []string{col},
		NumTuples: 64000, NumPages: 720, Height: 3, SizeBytes: 5 << 20 / 4}
	if err := cat.AddIndex(local); err != nil {
		t.Fatal(err)
	}
	if err := cat.AddIndex(global); err != nil {
		t.Fatal(err)
	}
	return local, global
}

func TestPlannerPrefersLocalForPartitionKeyLookup(t *testing.T) {
	cat := partitionedCatalog(t)
	addPair(t, cat, "owner")
	p := plan(t, cat, "SELECT * FROM acct WHERE owner = 42")
	if !strings.Contains(Explain(p.Root), "l_owner") {
		t.Errorf("partition-key lookup should pick the local index:\n%s", Explain(p.Root))
	}
}

func TestPlannerPrefersGlobalForNonKeyLookup(t *testing.T) {
	cat := partitionedCatalog(t)
	addPair(t, cat, "region")
	p := plan(t, cat, "SELECT * FROM acct WHERE region = 99")
	if !strings.Contains(Explain(p.Root), "g_region") {
		t.Errorf("non-key lookup should pick the global index:\n%s", Explain(p.Root))
	}
}

func TestLocalAndGlobalAreDistinctIdentities(t *testing.T) {
	l := &catalog.IndexMeta{Table: "t", Columns: []string{"a"}, Local: true}
	g := &catalog.IndexMeta{Table: "t", Columns: []string{"a"}}
	if l.Key() == g.Key() {
		t.Error("local and global variants must have distinct keys")
	}
}

func TestPlannerUsesIndexForInList(t *testing.T) {
	cat := testCatalog(t)
	if err := cat.AddIndex(&catalog.IndexMeta{Name: "idx_cid", Table: "orders",
		Columns: []string{"cid"}, NumTuples: 100000, NumPages: 1600, Height: 3}); err != nil {
		t.Fatal(err)
	}
	p := plan(t, cat, "SELECT * FROM orders WHERE cid IN (1, 2, 3)")
	scan, ok := findIndexScan(p.Root)
	if !ok {
		t.Fatalf("IN should use the index on a large table:\n%s", Explain(p.Root))
	}
	if len(scan.In) != 3 {
		t.Errorf("want 3 probe values, got %d", len(scan.In))
	}
}

func TestPlannerInListCostGrowsWithListSize(t *testing.T) {
	cat := testCatalog(t)
	if err := cat.AddIndex(&catalog.IndexMeta{Name: "idx_cid", Table: "orders",
		Columns: []string{"cid"}, NumTuples: 100000, NumPages: 1600, Height: 3}); err != nil {
		t.Fatal(err)
	}
	small := plan(t, cat, "SELECT * FROM orders WHERE cid IN (1, 2)").EstCost()
	large := plan(t, cat, "SELECT * FROM orders WHERE cid IN (1, 2, 3, 4, 5, 6, 7, 8)").EstCost()
	if large <= small {
		t.Errorf("more probes must cost more: %f vs %f", large, small)
	}
}

func TestPlannerInListWithVariablesFallsBack(t *testing.T) {
	cat := testCatalog(t)
	if err := cat.AddIndex(&catalog.IndexMeta{Name: "idx_cid", Table: "orders",
		Columns: []string{"cid"}, NumTuples: 100000, NumPages: 1600, Height: 3}); err != nil {
		t.Fatal(err)
	}
	// IN list referencing a column is not a constant bound.
	stmt := parseStmt(t, "SELECT * FROM orders WHERE cid IN (oid, 2)").(*sqlparser.SelectStmt)
	p, err := PlanSelect(cat, stmt)
	if err != nil {
		t.Fatal(err)
	}
	if scan, ok := findIndexScan(p.Root); ok && len(scan.In) > 0 {
		t.Error("non-constant IN list must not become probe bounds")
	}
}
