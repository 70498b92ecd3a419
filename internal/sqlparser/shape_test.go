package sqlparser

import "testing"

func TestShapeExamples(t *testing.T) {
	for _, c := range []struct{ sql, want string }{
		{"SELECT c_last FROM customer WHERE c_id = 1001 AND c_name = 'o''neil'",
			"select c_last from customer where c_id = # and c_name = @"},
		{"select  C_LAST\n from Customer where c_id!=1.5;",
			"select c_last from customer where c_id <> ~ ;"},
		{"UPDATE t SET a = a - 1 WHERE b IN (1, 'x', 2.5) AND c IN (SELECT d FROM u) LIMIT 10",
			"update t set a = a - # where b in ( & ) and c in ( select d from u ) limit 10"},
		{"SELECT * FROM t WHERE a = ? AND b = $ AND c = NULL AND d = 9223372036854775808 AND e = 1e999",
			"select * from t where a = $ and b = $ and c = null and d = 9223372036854775808 and e = 1e999"},
		{"SELECT * FROM t WHERE a IN (1, b) AND c IN ()",
			"select * from t where a in ( # , b ) and c in ( )"},
		{"EXPLAIN SELECT * FROM t WHERE a = 7 AND s = 'It''s'",
			"explain select * from t where a = 7 and s = 'It''s'"},
		{"CREATE TABLE T (a VARCHAR(10)) PARTITION BY HASH (a) PARTITIONS 4",
			"create table t ( a varchar ( 10 ) ) partition by hash ( a ) partitions 4"},
		{"", ""},
	} {
		got, err := Shape(nil, c.sql)
		if err != nil {
			t.Errorf("Shape(%q): %v", c.sql, err)
			continue
		}
		if string(got) != c.want {
			t.Errorf("Shape(%q)\n got %q\nwant %q", c.sql, got, c.want)
		}
	}
}

// checkShapeFailsWithLex asserts Shape and lex run on one token grammar:
// one fails exactly when the other does, with the same error.
func checkShapeFailsWithLex(t *testing.T, sql string) {
	t.Helper()
	_, lerr := lex(sql)
	_, serr := Shape(nil, sql)
	if (lerr == nil) != (serr == nil) || (lerr != nil && lerr.Error() != serr.Error()) {
		t.Fatalf("%q: lex error %v, Shape error %v", sql, lerr, serr)
	}
}

func TestShapeFailsWithLex(t *testing.T) {
	for _, sql := range append(fuzzSeeds,
		"SELECT 'open", "SELECT a ! b", "SELECT a # b", "SELECT * FROM t WHERE a IN (1, 'open",
		"SELECT * FROM t WHERE a IN (1, #)", "SELECT \xe6") {
		checkShapeFailsWithLex(t, sql)
	}
}

func TestShapeAllocatesNothing(t *testing.T) {
	buf := make([]byte, 0, 1024)
	for _, sql := range benchQueries {
		allocs := testing.AllocsPerRun(100, func() {
			if _, err := Shape(buf[:0], sql); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("Shape(%q) allocates %v times", sql, allocs)
		}
	}
}

// TestLexAllocations pins the lexer's allocation budget: the token slice,
// plus one copy per string literal and per identifier spelt in upper case.
func TestLexAllocations(t *testing.T) {
	for _, c := range []struct {
		sql  string
		want float64
	}{
		{"SELECT c_last, c_credit FROM customer WHERE c_id = 1001 AND c_w_id <= 5", 1},
		{"select c_last from customer where c_name = 'x' and c_city = 'it''s'", 3},
		{"SELECT C_LAST FROM customer WHERE c_id = 1", 2},
	} {
		got := testing.AllocsPerRun(100, func() {
			if _, err := lex(c.sql); err != nil {
				t.Fatal(err)
			}
		})
		if got != c.want {
			t.Errorf("lex(%q) allocates %v times, want %v", c.sql, got, c.want)
		}
	}
}
