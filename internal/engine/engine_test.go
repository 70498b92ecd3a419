package engine

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/sqltypes"
)

// newTestDB builds a small database with two related tables and stats.
func newTestDB(t *testing.T) *DB {
	t.Helper()
	db := New()
	mustExec(t, db, "CREATE TABLE customer (id BIGINT, name TEXT, city TEXT, balance DOUBLE, PRIMARY KEY (id))")
	mustExec(t, db, "CREATE TABLE orders (oid BIGINT, cid BIGINT, amount DOUBLE, status TEXT, PRIMARY KEY (oid))")
	cities := []string{"rome", "tokyo", "lima", "oslo", "cairo"}
	for i := 0; i < 200; i++ {
		mustExec(t, db, fmt.Sprintf(
			"INSERT INTO customer (id, name, city, balance) VALUES (%d, 'cust%d', '%s', %d.5)",
			i, i, cities[i%len(cities)], i*10))
	}
	statuses := []string{"open", "paid", "void"}
	for i := 0; i < 1000; i++ {
		mustExec(t, db, fmt.Sprintf(
			"INSERT INTO orders (oid, cid, amount, status) VALUES (%d, %d, %d.0, '%s')",
			i, i%200, i%500, statuses[i%3]))
	}
	if err := db.AnalyzeAll(); err != nil {
		t.Fatal(err)
	}
	return db
}

func mustExec(t *testing.T, db *DB, sql string) *Result {
	t.Helper()
	res, err := db.Exec(sql)
	if err != nil {
		t.Fatalf("Exec(%q): %v", sql, err)
	}
	return res
}

func TestSelectSeqScanFilter(t *testing.T) {
	db := newTestDB(t)
	res := mustExec(t, db, "SELECT id, name FROM customer WHERE city = 'rome'")
	if len(res.Rows) != 40 {
		t.Fatalf("want 40 rome customers, got %d", len(res.Rows))
	}
	if res.Stats.IO.HeapPagesRead == 0 {
		t.Error("seqscan must charge heap reads")
	}
}

func TestSelectWithIndex(t *testing.T) {
	db := newTestDB(t)
	noIdx := mustExec(t, db, "SELECT * FROM orders WHERE cid = 7")
	mustExec(t, db, "CREATE INDEX idx_cid ON orders (cid)")
	withIdx := mustExec(t, db, "SELECT * FROM orders WHERE cid = 7")
	if len(noIdx.Rows) != len(withIdx.Rows) {
		t.Fatalf("index changed results: %d vs %d", len(noIdx.Rows), len(withIdx.Rows))
	}
	if len(withIdx.Rows) != 5 {
		t.Fatalf("want 5 orders for cid=7, got %d", len(withIdx.Rows))
	}
	if withIdx.Stats.ActualCost() >= noIdx.Stats.ActualCost() {
		t.Errorf("index scan should be cheaper: %.2f vs %.2f",
			withIdx.Stats.ActualCost(), noIdx.Stats.ActualCost())
	}
}

func TestPrimaryKeyLookupUsesIndex(t *testing.T) {
	db := newTestDB(t)
	res := mustExec(t, db, "SELECT status FROM orders WHERE oid = 421")
	if len(res.Rows) != 1 {
		t.Fatalf("pk lookup: %v", res.Rows)
	}
	if res.Stats.IO.HeapPagesRead > 3 {
		t.Errorf("pk lookup should fetch few heap pages, got %d", res.Stats.IO.HeapPagesRead)
	}
}

func TestRangeScanWithIndex(t *testing.T) {
	db := newTestDB(t)
	mustExec(t, db, "CREATE INDEX idx_amount ON orders (amount)")
	res := mustExec(t, db, "SELECT oid FROM orders WHERE amount >= 100 AND amount < 110")
	if len(res.Rows) != 20 {
		t.Fatalf("want 20 rows in [100,110), got %d", len(res.Rows))
	}
}

func TestCompositeIndexPrefixMatch(t *testing.T) {
	db := newTestDB(t)
	mustExec(t, db, "CREATE INDEX idx_cs ON orders (cid, status)")
	full := mustExec(t, db, "SELECT oid FROM orders WHERE cid = 9 AND status = 'paid'")
	for _, r := range full.Rows {
		oid := r[0].Int
		if oid%200 != 9 {
			t.Fatalf("wrong cid for oid %d", oid)
		}
	}
	prefix := mustExec(t, db, "SELECT oid FROM orders WHERE cid = 9")
	if len(prefix.Rows) != 5 {
		t.Fatalf("prefix match: want 5, got %d", len(prefix.Rows))
	}
}

func TestHashJoin(t *testing.T) {
	db := newTestDB(t)
	res := mustExec(t, db,
		"SELECT c.name, o.amount FROM customer c JOIN orders o ON c.id = o.cid WHERE c.city = 'lima' AND o.status = 'open'")
	if len(res.Rows) == 0 {
		t.Fatal("join should produce rows")
	}
	for _, r := range res.Rows {
		if r[0].Kind != sqltypes.KindString {
			t.Fatal("first column should be name")
		}
	}
}

func TestIndexNestedLoopJoin(t *testing.T) {
	db := newTestDB(t)
	mustExec(t, db, "CREATE INDEX idx_cid ON orders (cid)")
	res := mustExec(t, db,
		"SELECT o.oid FROM customer c JOIN orders o ON o.cid = c.id WHERE c.id = 3")
	if len(res.Rows) != 5 {
		t.Fatalf("INL join: want 5 rows, got %d", len(res.Rows))
	}
}

func TestJoinResultsMatchWithAndWithoutIndexes(t *testing.T) {
	db := newTestDB(t)
	q := "SELECT c.id, o.oid FROM customer c JOIN orders o ON c.id = o.cid WHERE c.balance > 500 AND o.amount < 50"
	before := mustExec(t, db, q)
	mustExec(t, db, "CREATE INDEX idx_cid ON orders (cid)")
	mustExec(t, db, "CREATE INDEX idx_bal ON customer (balance)")
	after := mustExec(t, db, q)
	if len(before.Rows) != len(after.Rows) {
		t.Fatalf("indexes changed join results: %d vs %d", len(before.Rows), len(after.Rows))
	}
}

func TestGroupByAggregates(t *testing.T) {
	db := newTestDB(t)
	res := mustExec(t, db,
		"SELECT status, COUNT(*), SUM(amount), AVG(amount) FROM orders GROUP BY status")
	if len(res.Rows) != 3 {
		t.Fatalf("want 3 status groups, got %d", len(res.Rows))
	}
	var total int64
	for _, r := range res.Rows {
		total += r[1].Int
	}
	if total != 1000 {
		t.Errorf("counts should sum to 1000, got %d", total)
	}
}

func TestPlainAggregate(t *testing.T) {
	db := newTestDB(t)
	res := mustExec(t, db, "SELECT COUNT(*), MIN(amount), MAX(amount) FROM orders")
	if len(res.Rows) != 1 {
		t.Fatal("plain aggregate returns one row")
	}
	r := res.Rows[0]
	if r[0].Int != 1000 {
		t.Errorf("count: %d", r[0].Int)
	}
	if r[1].AsFloat() != 0 || r[2].AsFloat() != 499 {
		t.Errorf("min/max: %v %v", r[1], r[2])
	}
}

func TestHaving(t *testing.T) {
	db := newTestDB(t)
	res := mustExec(t, db,
		"SELECT cid, COUNT(*) FROM orders GROUP BY cid HAVING COUNT(*) >= 5")
	if len(res.Rows) != 200 {
		t.Fatalf("every cid has exactly 5 orders; got %d groups", len(res.Rows))
	}
}

func TestOrderByAndLimit(t *testing.T) {
	db := newTestDB(t)
	res := mustExec(t, db, "SELECT oid FROM orders WHERE cid = 11 ORDER BY amount DESC LIMIT 3")
	if len(res.Rows) != 3 {
		t.Fatalf("limit: got %d", len(res.Rows))
	}
}

func TestOrderByAscendingValues(t *testing.T) {
	db := newTestDB(t)
	res := mustExec(t, db, "SELECT amount FROM orders WHERE cid = 4 ORDER BY amount")
	prev := -1.0
	for _, r := range res.Rows {
		v := r[0].AsFloat()
		if v < prev {
			t.Fatalf("not sorted: %v after %v", v, prev)
		}
		prev = v
	}
}

func TestDistinct(t *testing.T) {
	db := newTestDB(t)
	res := mustExec(t, db, "SELECT DISTINCT status FROM orders")
	if len(res.Rows) != 3 {
		t.Fatalf("distinct statuses: got %d", len(res.Rows))
	}
}

func TestUpdateBasic(t *testing.T) {
	db := newTestDB(t)
	res := mustExec(t, db, "UPDATE customer SET balance = 0 WHERE city = 'oslo'")
	if res.Stats.RowsAffected != 40 {
		t.Fatalf("affected: %d", res.Stats.RowsAffected)
	}
	check := mustExec(t, db, "SELECT COUNT(*) FROM customer WHERE balance = 0 AND city = 'oslo'")
	if check.Rows[0][0].Int != 40 {
		t.Error("update not visible")
	}
}

func TestUpdateMaintainsIndex(t *testing.T) {
	db := newTestDB(t)
	mustExec(t, db, "CREATE INDEX idx_status ON orders (status)")
	mustExec(t, db, "UPDATE orders SET status = 'archived' WHERE oid = 500")
	res := mustExec(t, db, "SELECT oid FROM orders WHERE status = 'archived'")
	if len(res.Rows) != 1 || res.Rows[0][0].Int != 500 {
		t.Fatalf("index should reflect update: %v", res.Rows)
	}
	old := mustExec(t, db, "SELECT COUNT(*) FROM orders WHERE status = 'void' AND oid = 500")
	if old.Rows[0][0].Int != 0 {
		t.Error("old index entry should be gone")
	}
}

func TestUpdateOfNonKeyColumnSkipsIndexMaintenance(t *testing.T) {
	db := newTestDB(t)
	mustExec(t, db, "CREATE INDEX idx_status ON orders (status)")
	tree := db.IndexTrees("idx_status")[0]
	before := tree.Len()
	mustExec(t, db, "UPDATE orders SET amount = 999 WHERE oid = 1")
	if tree.Len() != before {
		t.Error("non-key update must not touch idx_status")
	}
}

func TestDeleteBasic(t *testing.T) {
	db := newTestDB(t)
	res := mustExec(t, db, "DELETE FROM orders WHERE cid = 5")
	if res.Stats.RowsAffected != 5 {
		t.Fatalf("affected: %d", res.Stats.RowsAffected)
	}
	check := mustExec(t, db, "SELECT COUNT(*) FROM orders WHERE cid = 5")
	if check.Rows[0][0].Int != 0 {
		t.Error("delete not visible")
	}
	all := mustExec(t, db, "SELECT COUNT(*) FROM orders")
	if all.Rows[0][0].Int != 995 {
		t.Errorf("total after delete: %d", all.Rows[0][0].Int)
	}
}

func TestDeleteThenIndexScanSkipsStaleEntries(t *testing.T) {
	db := newTestDB(t)
	mustExec(t, db, "CREATE INDEX idx_cid ON orders (cid)")
	mustExec(t, db, "DELETE FROM orders WHERE cid = 8")
	res := mustExec(t, db, "SELECT * FROM orders WHERE cid = 8")
	if len(res.Rows) != 0 {
		t.Fatalf("stale index entries visible: %d rows", len(res.Rows))
	}
}

func TestInsertMaintainsAllIndexes(t *testing.T) {
	db := newTestDB(t)
	mustExec(t, db, "CREATE INDEX idx_cid ON orders (cid)")
	mustExec(t, db, "CREATE INDEX idx_amt ON orders (amount)")
	mustExec(t, db, "INSERT INTO orders (oid, cid, amount, status) VALUES (5000, 77, 123.0, 'open')")
	r1 := mustExec(t, db, "SELECT oid FROM orders WHERE cid = 77 AND amount = 123.0")
	found := false
	for _, r := range r1.Rows {
		if r[0].Int == 5000 {
			found = true
		}
	}
	if !found {
		t.Error("new row not reachable via idx_cid")
	}
}

func TestWriteCostGrowsWithIndexCount(t *testing.T) {
	db := newTestDB(t)
	ins := func(oid int) ExecStats {
		res := mustExec(t, db, fmt.Sprintf(
			"INSERT INTO orders (oid, cid, amount, status) VALUES (%d, 1, 1.0, 'x')", oid))
		return res.Stats
	}
	base := ins(9001)
	mustExec(t, db, "CREATE INDEX w1 ON orders (cid)")
	mustExec(t, db, "CREATE INDEX w2 ON orders (amount)")
	mustExec(t, db, "CREATE INDEX w3 ON orders (status)")
	loaded := ins(9002)
	if loaded.ActualCost() <= base.ActualCost() {
		t.Errorf("more indexes must make inserts dearer: %.3f vs %.3f",
			loaded.ActualCost(), base.ActualCost())
	}
}

func TestDropIndex(t *testing.T) {
	db := newTestDB(t)
	mustExec(t, db, "CREATE INDEX idx_cid ON orders (cid)")
	mustExec(t, db, "DROP INDEX idx_cid")
	if db.Catalog().Index("idx_cid") != nil {
		t.Error("index still in catalog")
	}
	res := mustExec(t, db, "SELECT COUNT(*) FROM orders WHERE cid = 3")
	if res.Rows[0][0].Int != 5 {
		t.Error("query after drop should still work")
	}
}

func TestDropPrimaryKeyIndexRefused(t *testing.T) {
	db := newTestDB(t)
	if _, err := db.Exec("DROP INDEX pk_orders"); err == nil {
		t.Error("dropping pk index must fail")
	}
}

func TestAnalyzeStats(t *testing.T) {
	db := newTestDB(t)
	tbl := db.Catalog().Table("orders")
	if tbl.NumRows != 1000 {
		t.Errorf("row count: %d", tbl.NumRows)
	}
	st := tbl.ColumnStatsFor("cid")
	if st.NumDistinct != 200 {
		t.Errorf("cid distinct: %d", st.NumDistinct)
	}
	if st.Min.Int != 0 || st.Max.Int != 199 {
		t.Errorf("cid bounds: %v %v", st.Min, st.Max)
	}
	if len(st.Histogram) == 0 {
		t.Error("histogram missing")
	}
}

func TestBetweenAndInAndLike(t *testing.T) {
	db := newTestDB(t)
	r1 := mustExec(t, db, "SELECT COUNT(*) FROM orders WHERE amount BETWEEN 10 AND 12")
	if r1.Rows[0][0].Int != 6 {
		t.Errorf("between: %d", r1.Rows[0][0].Int)
	}
	r2 := mustExec(t, db, "SELECT COUNT(*) FROM orders WHERE status IN ('open', 'void')")
	if r2.Rows[0][0].Int < 600 {
		t.Errorf("in-list: %d", r2.Rows[0][0].Int)
	}
	if _, err := db.Exec("SELECT COUNT(*) FROM customer WHERE name LIKE 'cust1%'"); err == nil {
		t.Error("LIKE executed; the dialect has no LIKE")
	}
}

func TestErrorPaths(t *testing.T) {
	db := newTestDB(t)
	for _, sql := range []string{
		"SELECT * FROM nosuch",
		"SELECT ghost FROM orders",
		"SELECT o.ghost FROM orders o",
		"INSERT INTO orders (oid) VALUES (1, 2)",
		"UPDATE orders SET ghost = 1",
		"DROP INDEX nosuch",
		"CREATE INDEX dup ON nosuch (a)",
		// an aggregate ORDER BY key outside the select list
		"SELECT city, COUNT(*) FROM customer GROUP BY city ORDER BY MAX(balance)",
	} {
		if _, err := db.Exec(sql); err == nil {
			t.Errorf("Exec(%q) should fail", sql)
		}
	}
}

func TestThreeWayJoin(t *testing.T) {
	db := New()
	mustExec(t, db, "CREATE TABLE a (x BIGINT, PRIMARY KEY (x))")
	mustExec(t, db, "CREATE TABLE b (x BIGINT, y BIGINT, PRIMARY KEY (x))")
	mustExec(t, db, "CREATE TABLE c (y BIGINT, z BIGINT, PRIMARY KEY (y))")
	for i := 0; i < 30; i++ {
		mustExec(t, db, fmt.Sprintf("INSERT INTO a VALUES (%d)", i))
		mustExec(t, db, fmt.Sprintf("INSERT INTO b VALUES (%d, %d)", i, i*2))
		mustExec(t, db, fmt.Sprintf("INSERT INTO c VALUES (%d, %d)", i*2, i*3))
	}
	if err := db.AnalyzeAll(); err != nil {
		t.Fatal(err)
	}
	res := mustExec(t, db,
		"SELECT a.x, c.z FROM a JOIN b ON a.x = b.x JOIN c ON b.y = c.y WHERE a.x < 5")
	if len(res.Rows) != 5 {
		t.Fatalf("3-way join: want 5, got %d", len(res.Rows))
	}
	for _, r := range res.Rows {
		if r[1].Int != r[0].Int*3 {
			t.Fatalf("join chain broken: %v", r)
		}
	}
}

func TestExplainSelect(t *testing.T) {
	db := newTestDB(t)
	res := mustExec(t, db, "EXPLAIN SELECT * FROM orders WHERE oid = 5")
	if len(res.Rows) == 0 {
		t.Fatal("explain should return plan rows")
	}
	joined := ""
	for _, r := range res.Rows {
		joined += r[0].Str + "\n"
	}
	if !strings.Contains(joined, "IndexScan(orders via pk_orders") {
		t.Errorf("explain should show the pk index scan:\n%s", joined)
	}
}

func TestExplainWrite(t *testing.T) {
	db := newTestDB(t)
	mustExec(t, db, "CREATE INDEX idx_cid ON orders (cid)")
	res := mustExec(t, db, "EXPLAIN UPDATE orders SET cid = 1 WHERE oid = 2")
	joined := ""
	for _, r := range res.Rows {
		joined += r[0].Str + "\n"
	}
	if !strings.Contains(joined, "maintain=1") {
		t.Errorf("explain update should count maintained indexes:\n%s", joined)
	}
	// EXPLAIN must not execute: the row is unchanged.
	check := mustExec(t, db, "SELECT cid FROM orders WHERE oid = 2")
	if check.Rows[0][0].Int == 1 {
		t.Error("EXPLAIN must not execute the update")
	}
}

func TestOrderByAggregate(t *testing.T) {
	db := newTestDB(t)
	res := mustExec(t, db,
		"SELECT status, COUNT(*) FROM orders GROUP BY status ORDER BY COUNT(*) DESC")
	if len(res.Rows) != 3 {
		t.Fatalf("want 3 groups, got %d", len(res.Rows))
	}
	prev := int64(1 << 62)
	for _, r := range res.Rows {
		if r[1].Int > prev {
			t.Fatalf("not sorted by count desc: %v", res.Rows)
		}
		prev = r[1].Int
	}
}

func TestOrderByAlias(t *testing.T) {
	db := newTestDB(t)
	res := mustExec(t, db,
		"SELECT cid, SUM(amount) AS total FROM orders GROUP BY cid ORDER BY total DESC LIMIT 5")
	if len(res.Rows) != 5 {
		t.Fatalf("want 5 rows, got %d", len(res.Rows))
	}
	prev := res.Rows[0][1].AsFloat()
	for _, r := range res.Rows[1:] {
		if r[1].AsFloat() > prev {
			t.Fatalf("alias sort broken: %v", res.Rows)
		}
		prev = r[1].AsFloat()
	}
}

func TestInListUsesIndexMultiProbe(t *testing.T) {
	// Needs a table large enough that 3 point probes beat a full scan
	// (multi-probe descents are priced realistically, so small tables
	// correctly prefer the seqscan).
	db := New()
	mustExec(t, db, "CREATE TABLE big (id BIGINT, k BIGINT, PRIMARY KEY (id))")
	rows := make([]sqltypes.Tuple, 20000)
	for i := range rows {
		rows[i] = sqltypes.Tuple{sqltypes.NewInt(int64(i)), sqltypes.NewInt(int64(i % 4000))}
	}
	if err := db.BulkLoad("big", rows); err != nil {
		t.Fatal(err)
	}
	if err := db.AnalyzeAll(); err != nil {
		t.Fatal(err)
	}
	base := mustExec(t, db, "SELECT id FROM big WHERE k IN (3, 9, 44)")
	mustExec(t, db, "CREATE INDEX idx_k ON big (k)")
	idx := mustExec(t, db, "SELECT id FROM big WHERE k IN (3, 9, 44)")
	if len(base.Rows) != len(idx.Rows) || len(idx.Rows) != 15 {
		t.Fatalf("IN results: base=%d idx=%d", len(base.Rows), len(idx.Rows))
	}
	if idx.Stats.ActualCost() >= base.Stats.ActualCost() {
		t.Errorf("IN list should use the index: %.1f vs %.1f",
			idx.Stats.ActualCost(), base.Stats.ActualCost())
	}
	exp := mustExec(t, db, "EXPLAIN SELECT id FROM big WHERE k IN (3, 9, 44)")
	if !strings.Contains(exp.PlanText(), "idx_k") {
		t.Errorf("plan should use idx_k:\n%s", exp.PlanText())
	}
}

func TestInListDuplicateValuesDeduped(t *testing.T) {
	db := newTestDB(t)
	mustExec(t, db, "CREATE INDEX idx_cid ON orders (cid)")
	res := mustExec(t, db, "SELECT oid FROM orders WHERE cid IN (7, 7, 7)")
	if len(res.Rows) != 5 {
		t.Fatalf("duplicate IN values must not duplicate rows: %d", len(res.Rows))
	}
}

func TestInListWithEqPrefixOnComposite(t *testing.T) {
	db := newTestDB(t)
	mustExec(t, db, "CREATE INDEX idx_cs ON orders (cid, status)")
	res := mustExec(t, db, "SELECT oid FROM orders WHERE cid = 9 AND status IN ('paid', 'void')")
	for _, r := range res.Rows {
		if r[0].Int%200 != 9 {
			t.Fatalf("wrong row: %v", r)
		}
	}
	base := mustExec(t, db, "SELECT COUNT(*) FROM orders WHERE cid = 9 AND status IN ('paid', 'void')")
	if base.Rows[0][0].Int != int64(len(res.Rows)) {
		t.Errorf("count mismatch: %d vs %d", base.Rows[0][0].Int, len(res.Rows))
	}
}

// TestIndexSplitsCountedPerStatement pins ExecStats.IndexSplits to the splits
// the statement's own inserts caused, summed over every tree it touched, and
// to zero for statements that add or remove whole trees.
func TestIndexSplitsCountedPerStatement(t *testing.T) {
	db, err := NewWithConfig(Config{BTreeOrder: 4})
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, "CREATE TABLE s (id BIGINT, k BIGINT, PRIMARY KEY (id))")
	mustExec(t, db, "CREATE INDEX idx_s_k ON s (k)")
	total := func() int64 {
		return db.IndexTrees("pk_s")[0].Splits() + db.IndexTrees("idx_s_k")[0].Splits()
	}
	var reported int64
	for i := 0; i < 200; i++ {
		before := total()
		res := mustExec(t, db, fmt.Sprintf("INSERT INTO s (id, k) VALUES (%d, %d), (%d, %d)", 2*i, i%7, 2*i+1, i%11))
		if got, want := res.Stats.IndexSplits, total()-before; got != want {
			t.Fatalf("insert %d: IndexSplits=%d, trees split %d times", i, got, want)
		}
		reported += res.Stats.IndexSplits
	}
	if reported == 0 || reported != total() {
		t.Fatalf("statements reported %d splits, trees count %d", reported, total())
	}
	for _, sql := range []string{
		"SELECT id FROM s WHERE k = 3",
		"CREATE INDEX idx_s_k2 ON s (k, id)",
		"DROP INDEX idx_s_k",
	} {
		if res := mustExec(t, db, sql); res.Stats.IndexSplits != 0 {
			t.Errorf("%s: IndexSplits=%d", sql, res.Stats.IndexSplits)
		}
	}
}

// TestObserverSeesDMLOnly pins what reaches the statement observer: the text
// of every SELECT, INSERT, UPDATE and DELETE that parses — in any case, with
// leading whitespace, and also when execution fails — and nothing else.
func TestObserverSeesDMLOnly(t *testing.T) {
	db := newTestDB(t)
	var seen []string
	db.SetObserver(func(sql string) { seen = append(seen, sql) })
	defer db.SetObserver(nil)
	dml := []string{
		"SELECT name FROM customer WHERE id = 1",
		"  \n\tselect city from customer where id = 2",
		"InSeRt INTO orders (oid, cid, amount, status) VALUES (5000, 1, 1.0, 'open')",
		"update customer set balance = 1.0 where id = 3",
		"DELETE FROM orders WHERE oid = 5000",
		"SELECT ghost FROM customer WHERE id = 1", // no such column
	}
	other := []string{
		"CREATE TABLE extra (a BIGINT, PRIMARY KEY (a))",
		"CREATE INDEX cust_city ON customer (city)",
		"EXPLAIN SELECT name FROM customer WHERE city = 'rome'",
		"DROP INDEX cust_city",
		"SELEC name FROM customer", // does not parse
	}
	for i, sql := range dml {
		_, err := db.Exec(sql)
		if fails := i == len(dml)-1; (err != nil) != fails {
			t.Fatalf("Exec(%q): err = %v, want failure %v", sql, err, fails)
		}
		if i < len(other) {
			_, _ = db.Exec(other[i])
		}
	}
	if strings.Join(seen, "\n") != strings.Join(dml, "\n") {
		t.Errorf("observer saw %q, want %q", seen, dml)
	}
}
