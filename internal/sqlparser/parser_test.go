package sqlparser

import (
	"strings"
	"testing"

	"repro/internal/sqltypes"
)

// parse parses sql, failing the test on error.
func parse(t testing.TB, sql string) Statement {
	t.Helper()
	s, err := Parse(sql)
	if err != nil {
		t.Fatalf("Parse(%q): %v", sql, err)
	}
	return s
}

func TestParseSimpleSelect(t *testing.T) {
	s, err := Parse("SELECT a, b FROM t WHERE a = 1 AND b > 2.5")
	if err != nil {
		t.Fatal(err)
	}
	sel := s.(*SelectStmt)
	if len(sel.Select) != 2 {
		t.Fatalf("want 2 select items, got %d", len(sel.Select))
	}
	if sel.From[0].Name != "t" {
		t.Errorf("from table: got %q", sel.From[0].Name)
	}
	and, ok := sel.Where.(*BinaryExpr)
	if !ok || and.Op != OpAnd {
		t.Fatalf("where should be AND, got %T", sel.Where)
	}
	left := and.L.(*BinaryExpr)
	if left.Op != OpEQ || left.L.(*ColumnRef).Column != "a" {
		t.Error("left conjunct should be a = 1")
	}
}

func TestParseSelectStar(t *testing.T) {
	s := parse(t, "SELECT * FROM orders").(*SelectStmt)
	if !s.Select[0].Star {
		t.Error("expected star projection")
	}
}

func TestParseJoinOn(t *testing.T) {
	s := parse(t, "SELECT o.id FROM orders o JOIN customer c ON o.cid = c.id WHERE c.name = 'x'").(*SelectStmt)
	if len(s.Joins) != 1 {
		t.Fatalf("want 1 join, got %d", len(s.Joins))
	}
	if s.Joins[0].Table.Binding() != "c" {
		t.Errorf("join binding: got %q", s.Joins[0].Table.Binding())
	}
	on := s.Joins[0].On.(*BinaryExpr)
	if on.Op != OpEQ {
		t.Error("join condition should be equality")
	}
}

func TestParseImplicitJoinCommaList(t *testing.T) {
	s := parse(t, "SELECT * FROM a, b WHERE a.x = b.y").(*SelectStmt)
	if len(s.From) != 2 {
		t.Fatalf("want 2 from tables, got %d", len(s.From))
	}
}

func TestParseGroupOrderLimit(t *testing.T) {
	s := parse(t, "SELECT c, COUNT(*) FROM t GROUP BY c HAVING COUNT(*) > 5 ORDER BY c DESC LIMIT 10").(*SelectStmt)
	if len(s.GroupBy) != 1 {
		t.Error("group by missing")
	}
	if s.Having == nil {
		t.Error("having missing")
	}
	if len(s.OrderBy) != 1 || !s.OrderBy[0].Desc {
		t.Error("order by desc missing")
	}
	if s.Limit != 10 {
		t.Errorf("limit: got %d", s.Limit)
	}
}

func TestParseAggregates(t *testing.T) {
	s := parse(t, "SELECT SUM(amount), AVG(price), MIN(a), MAX(b), COUNT(*) FROM t").(*SelectStmt)
	names := []string{"SUM", "AVG", "MIN", "MAX", "COUNT"}
	for i, n := range names {
		fn := s.Select[i].Expr.(*FuncExpr)
		if fn.Name != n {
			t.Errorf("agg %d: want %s got %s", i, n, fn.Name)
		}
	}
}

// TestParseInBetweenLikeIsNull: IN lists, BETWEEN and IS [NOT] NULL parse;
// the same predicate with a LIKE conjunct is rejected.
func TestParseInBetweenLikeIsNull(t *testing.T) {
	where := "a IN (1,2,3) AND b BETWEEN 1 AND 9 AND d IS NOT NULL"
	s := parse(t, "SELECT * FROM t WHERE "+where).(*SelectStmt)
	if s.Where == nil {
		t.Fatal("where missing")
	}
	str := s.Where.String()
	for _, frag := range []string{"IN (1, 2, 3)", "BETWEEN 1 AND 9", "IS NOT NULL"} {
		if !strings.Contains(str, frag) {
			t.Errorf("where %q missing fragment %q", str, frag)
		}
	}
	if _, err := Parse("SELECT * FROM t WHERE c LIKE 'ab%' AND " + where); err == nil {
		t.Error("LIKE parsed")
	}
}

func TestParseInsert(t *testing.T) {
	s := parse(t, "INSERT INTO t (a, b, c) VALUES (1, 'x', 2.5)").(*InsertStmt)
	if s.Table != "t" || len(s.Columns) != 3 || len(s.Values) != 1 {
		t.Fatal("insert shape wrong")
	}
	v := s.Values[0][1].(*Literal).Value
	if v.Str != "x" {
		t.Errorf("string value: got %q", v.Str)
	}
}

func TestParseInsertMultiRow(t *testing.T) {
	s := parse(t, "INSERT INTO t VALUES (1, 2), (3, 4)").(*InsertStmt)
	if len(s.Values) != 2 {
		t.Fatalf("want 2 rows, got %d", len(s.Values))
	}
}

func TestParseUpdate(t *testing.T) {
	s := parse(t, "UPDATE t SET a = 5, b = b + 1 WHERE id = 3").(*UpdateStmt)
	if len(s.Set) != 2 {
		t.Fatal("want 2 assignments")
	}
	if s.Set[0].Column != "a" {
		t.Error("first assignment column")
	}
	if s.Where == nil {
		t.Error("where missing")
	}
}

func TestParseDelete(t *testing.T) {
	s := parse(t, "DELETE FROM t WHERE a < 10").(*DeleteStmt)
	if s.Table != "t" || s.Where == nil {
		t.Fatal("delete shape wrong")
	}
}

func TestParseCreateTable(t *testing.T) {
	s := parse(t, "CREATE TABLE t (id BIGINT, name VARCHAR(20), score DOUBLE, PRIMARY KEY (id))").(*CreateTableStmt)
	if len(s.Columns) != 3 {
		t.Fatalf("want 3 columns, got %d", len(s.Columns))
	}
	if s.Columns[1].Type != sqltypes.KindString {
		t.Error("varchar should map to string kind")
	}
	if len(s.PrimaryKey) != 1 || s.PrimaryKey[0] != "id" {
		t.Error("primary key")
	}
}

func TestParseCreateDropIndex(t *testing.T) {
	ci := parse(t, "CREATE INDEX idx_ab ON t (a, b)").(*CreateIndexStmt)
	if ci.Name != "idx_ab" || len(ci.Columns) != 2 {
		t.Fatal("create index shape")
	}
	ui := parse(t, "CREATE UNIQUE INDEX u ON t (a)").(*CreateIndexStmt)
	if !ui.Unique {
		t.Error("unique flag")
	}
	di := parse(t, "DROP INDEX idx_ab").(*DropIndexStmt)
	if di.Name != "idx_ab" {
		t.Error("drop index name")
	}
}

func TestParsePlaceholders(t *testing.T) {
	s := parse(t, "SELECT * FROM t WHERE a = $ AND b > ?").(*SelectStmt)
	and := s.Where.(*BinaryExpr)
	eq := and.L.(*BinaryExpr)
	if _, ok := eq.R.(*Placeholder); !ok {
		t.Error("$ should parse as placeholder")
	}
}

func TestParseNegativeNumbers(t *testing.T) {
	s := parse(t, "SELECT * FROM t WHERE a = -5 AND b = -2.5").(*SelectStmt)
	and := s.Where.(*BinaryExpr)
	eq := and.L.(*BinaryExpr)
	if eq.R.(*Literal).Value.Int != -5 {
		t.Error("negative int literal")
	}
}

func TestParseStringEscapes(t *testing.T) {
	s := parse(t, "SELECT * FROM t WHERE name = 'o''brien'").(*SelectStmt)
	eq := s.Where.(*BinaryExpr)
	if eq.R.(*Literal).Value.Str != "o'brien" {
		t.Error("escaped quote in string")
	}
}

func TestParseOrPrecedence(t *testing.T) {
	s := parse(t, "SELECT * FROM t WHERE a = 1 OR b = 2 AND c = 3").(*SelectStmt)
	or := s.Where.(*BinaryExpr)
	if or.Op != OpOr {
		t.Fatal("top must be OR (AND binds tighter)")
	}
	and := or.R.(*BinaryExpr)
	if and.Op != OpAnd {
		t.Error("right side must be AND")
	}
}

func TestParseParenthesesOverridePrecedence(t *testing.T) {
	s := parse(t, "SELECT * FROM t WHERE (a = 1 OR b = 2) AND c = 3").(*SelectStmt)
	and := s.Where.(*BinaryExpr)
	if and.Op != OpAnd {
		t.Fatal("top must be AND with parens")
	}
}

func TestParseErrors(t *testing.T) {
	// Each bad statement, with the text its error must contain ("" when any
	// error will do). A statement is one scope over base tables, so the
	// constructs that would nest one statement in another, and LIKE, are
	// rejected by name.
	bad := []struct{ sql, names string }{
		{"", ""},
		{"SELEC * FROM t", ""},
		{"SELECT FROM t", ""},
		{"SELECT * FROM", ""},
		{"SELECT * FROM t WHERE", ""},
		{"INSERT INTO", ""},
		{"UPDATE t", ""},
		{"CREATE INDEX ON t (a)", ""},
		{"SELECT * FROM t WHERE a = 'unterminated", ""},
		{"SELECT * FROM t WHERE a @ 3", ""},
		{"SELECT * FROM t extra garbage here (", ""},
		{"SELECT * FROM t WHERE name LIKE 'ab%'", "LIKE"},
		{"SELECT * FROM t WHERE a IN (SELECT x FROM u)", "IN (SELECT ...) subqueries"},
		{"SELECT * FROM t WHERE a = (SELECT MAX(x) FROM u)", "scalar subqueries"},
		{"SELECT * FROM t, (SELECT a FROM u) sub WHERE t.a = sub.a", "derived tables"},
		{"UPDATE t SET a = (SELECT MAX(x) FROM u) WHERE id = 1", "scalar subqueries"},
		{"DELETE FROM t WHERE a IN (SELECT x FROM u)", "IN (SELECT ...) subqueries"},
	}
	for _, c := range bad {
		_, err := Parse(c.sql)
		if err == nil {
			t.Errorf("Parse(%q) should fail", c.sql)
			continue
		}
		if !strings.Contains(err.Error(), c.names) {
			t.Errorf("Parse(%q): error %q does not name %q", c.sql, err, c.names)
		}
	}
}

func TestStringRoundTrip(t *testing.T) {
	queries := []string{
		"SELECT a, b FROM t WHERE (a = 1 AND b > 2)",
		"SELECT * FROM orders o JOIN customer c ON (o.cid = c.id)",
		"INSERT INTO t (a, b) VALUES (1, 'x')",
		"UPDATE t SET a = 2 WHERE (id = 1)",
		"DELETE FROM t WHERE (a < 5)",
		"SELECT c, COUNT(*) FROM t GROUP BY c ORDER BY c LIMIT 5",
	}
	for _, q := range queries {
		s1 := parse(t, q)
		rendered := s1.String()
		s2, err := Parse(rendered)
		if err != nil {
			t.Errorf("re-parse of %q failed: %v", rendered, err)
			continue
		}
		if s2.String() != rendered {
			t.Errorf("round-trip unstable:\n  first:  %s\n  second: %s", rendered, s2.String())
		}
	}
}

func TestTemplateRoundTrip(t *testing.T) {
	// Templates with placeholders must re-parse (SQL2Template requirement).
	tmpl := "SELECT * FROM t WHERE ((a = $) AND (b > $))"
	s := parse(t, tmpl)
	if s.String() != tmpl {
		t.Errorf("template round trip: got %s", s.String())
	}
}
