package engine

import (
	"fmt"
	"testing"

	"repro/internal/planner"
	"repro/internal/sqlparser"
	"repro/internal/sqltypes"
)

// filterDB builds a table with int, float, string, and NULL-bearing rows so
// every predicate shape and null path gets exercised.
func filterDB(t *testing.T) *DB {
	t.Helper()
	db := New()
	if _, err := db.Exec("CREATE TABLE ft (a BIGINT, b BIGINT, f DOUBLE, s VARCHAR, PRIMARY KEY (a))"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		sql := fmt.Sprintf("INSERT INTO ft (a, b, f, s) VALUES (%d, %d, %d.5, 'row%d')", i, i%7, i%11, i%5)
		if _, err := db.Exec(sql); err != nil {
			t.Fatal(err)
		}
	}
	// Rows with NULL b, f, s.
	for i := 50; i < 60; i++ {
		if _, err := db.Exec(fmt.Sprintf("INSERT INTO ft (a) VALUES (%d)", i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.AnalyzeAll(); err != nil {
		t.Fatal(err)
	}
	return db
}

// TestCompiledFilterMatchesInterpreter holds every single-table predicate
// shape, one subtest each, to what the tree-walking interpreter produced for
// it — rows and the ops total over all tuples — as the golden ledger's
// "predicates" section recorded before the interpreter was deleted. This is
// what pins the fused <col> cmp <lit> / BETWEEN / IN leaves to the charges
// of the node-per-node evaluation they replace.
func TestCompiledFilterMatchesInterpreter(t *testing.T) {
	db := filterDB(t)
	script := make([]string, len(filterPreds))
	for i, p := range filterPreds {
		script[i] = "SELECT * FROM ft WHERE " + p
	}
	if *updateGolden {
		replayGolden(t, "predicates", db, script)
		return
	}
	want := goldenSection(t, "predicates")
	if len(want) != len(script) {
		t.Fatalf("ledger has %d predicates, list has %d (regenerate with -update?)", len(want), len(script))
	}
	for i, pred := range filterPreds {
		t.Run(pred, func(t *testing.T) { holdToLedger(t, db, script[i], want[i]) })
	}
}

// TestCompileRejectsUnknownNames: a reference the statement's layout cannot
// resolve is a compile error — never a nil closure, never a per-row failure.
func TestCompileRejectsUnknownNames(t *testing.T) {
	db := filterDB(t)
	stmt, err := sqlparser.Parse("SELECT a FROM ft WHERE b = 1")
	if err != nil {
		t.Fatal(err)
	}
	plan, err := planner.PlanSelect(db.cat, stmt.(*sqlparser.SelectStmt))
	if err != nil {
		t.Fatal(err)
	}
	ctx, err := db.newEvalCtx(&stmtState{}, plan.Root)
	if err != nil {
		t.Fatal(err)
	}
	one := &sqlparser.Literal{Value: sqltypes.NewInt(1)}
	for name, e := range map[string]sqlparser.Expr{
		"unknown column":   &sqlparser.ColumnRef{Table: "ft", Column: "nope"},
		"unknown binding":  &sqlparser.ColumnRef{Table: "other", Column: "a"},
		"unqualified":      &sqlparser.ColumnRef{Column: "a"},
		"nested":           &sqlparser.BinaryExpr{Op: sqlparser.OpEQ, L: &sqlparser.ColumnRef{Table: "other", Column: "a"}, R: one},
		"fused shape":      &sqlparser.BetweenExpr{E: &sqlparser.ColumnRef{Table: "ft", Column: "nope"}, Lo: one, Hi: one},
		"aggregate in row": &sqlparser.FuncExpr{Name: "SUM", Args: []sqlparser.Expr{one}},
	} {
		if _, err := ctx.compile(e); err == nil {
			t.Errorf("%s: compile returned no error", name)
		}
		if _, err := ctx.compilePred(e); err == nil {
			t.Errorf("%s: compilePred returned no error", name)
		}
	}
	if _, err := ctx.compile(&sqlparser.ColumnRef{Table: "ft", Column: "b"}); err != nil {
		t.Errorf("known column: %v", err)
	}
}

// TestAggregatesResolveBeneathAnyNode: the group evaluator this compiler
// replaced could only see an aggregate through a chain of binary operators;
// HAVING NOT (...) and ABS(SUM(...)) were errors. They now evaluate.
func TestAggregatesResolveBeneathAnyNode(t *testing.T) {
	db := newTestDB(t)
	res := mustExec(t, db, "SELECT cid, SUM(amount) FROM orders GROUP BY cid HAVING NOT (SUM(amount) > 1005)")
	for _, r := range res.Rows {
		if r[1].AsFloat() > 1005 {
			t.Fatalf("HAVING NOT let through %v", r)
		}
	}
	if len(res.Rows) == 0 || len(res.Rows) == 200 {
		t.Fatalf("HAVING NOT kept %d of 200 groups", len(res.Rows))
	}
	res = mustExec(t, db, "SELECT status, ABS(SUM(amount) - 100000), SUM(amount) FROM orders GROUP BY status")
	for _, r := range res.Rows {
		if d := r[2].AsFloat() - 100000; r[1].AsFloat() != max(d, -d) {
			t.Fatalf("ABS over an aggregate: %v", r)
		}
	}
}

// TestIndexNLCompilesOncePerNode: under an index nested-loop join the inner
// scan runs once per outer row, but its bound and residual closures and the
// join condition are built once per statement. The plan is assembled by hand
// so that 1,000 outer rows probe whatever the optimizer would have preferred.
func TestIndexNLCompilesOncePerNode(t *testing.T) {
	db := newTestDB(t)
	col := func(b, c string) sqlparser.Expr { return &sqlparser.ColumnRef{Table: b, Column: c} }
	join := &planner.JoinNode{
		Strategy: planner.JoinIndexNL,
		Left:     &planner.SeqScanNode{Table: "orders", Binding: "o"},
		Right: &planner.IndexScanNode{
			Table: "customer", Binding: "c", Index: db.cat.Index("pk_customer"),
			EqVals:   []sqlparser.Expr{col("o", "cid")},
			Residual: &sqlparser.BinaryExpr{Op: sqlparser.OpLT, L: col("c", "balance"), R: col("o", "amount")},
		},
		Cond: &sqlparser.BinaryExpr{Op: sqlparser.OpEQ, L: col("o", "cid"), R: col("c", "id")},
	}
	ctx, err := db.newEvalCtx(&stmtState{}, join)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := db.runNode(ctx, join)
	if err != nil {
		t.Fatal(err)
	}
	want := mustExec(t, db, "SELECT o.oid FROM orders o JOIN customer c ON o.cid = c.id WHERE c.balance < o.amount")
	if len(rows) != len(want.Rows) || len(rows) == 0 {
		t.Fatalf("hand-built IndexNL plan returned %d rows, SQL returns %d", len(rows), len(want.Rows))
	}
	if ctx.st.indexDescents < 1000 {
		t.Fatalf("expected one probe per outer row, saw %d descents", ctx.st.indexDescents)
	}
	// Join condition, probe key, residual.
	if ctx.compiles > 3 {
		t.Fatalf("%d expression compiles for 1000 outer rows, want 3", ctx.compiles)
	}
}
