package sqlparser

import "testing"

var benchQueries = []string{
	"SELECT c_last, c_credit, c_balance FROM customer WHERE c_id = 1001",
	"UPDATE stock SET s_quantity = s_quantity - 1, s_ytd = s_ytd + 1 WHERE s_i_id = 5 AND s_w_id = 2",
	"INSERT INTO orderline (ol_id, ol_o_id, ol_d_id, ol_w_id, ol_i_id, ol_quantity, ol_amount) VALUES (1, 2, 3, 4, 5, 6, 7.5)",
	"SELECT s.s_state, i.i_category, SUM(ss.ss_price) FROM store_sales ss JOIN store s ON ss.ss_store_id = s.s_id JOIN item i ON ss.ss_item_id = i.i_id WHERE ss.ss_discount < 4 GROUP BY s.s_state, i.i_category ORDER BY s.s_state LIMIT 40",
	"SELECT * FROM t1, (SELECT a, b FROM t2 WHERE c = 2) sub WHERE t1.a = 1 AND t1.b = sub.b AND t1.d IN (1,2,3)",
}

// BenchmarkParse measures statement parsing across representative shapes.
func BenchmarkParse(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := Parse(benchQueries[i%len(benchQueries)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkParsePointLookup isolates the hottest OLTP shape.
func BenchmarkParsePointLookup(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := Parse(benchQueries[0]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRenderSQL measures AST → SQL rendering (used by templates).
func BenchmarkRenderSQL(b *testing.B) {
	stmts := make([]Statement, len(benchQueries))
	for i, q := range benchQueries {
		stmts[i] = MustParse(q)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = stmts[i%len(stmts)].String()
	}
}

// BenchmarkShape measures the literal-free statement shape SQL2Template keys
// its store by: one token scan, no parse.
func BenchmarkShape(b *testing.B) {
	buf := make([]byte, 0, 1024)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Shape(buf[:0], benchQueries[i%len(benchQueries)]); err != nil {
			b.Fatal(err)
		}
	}
}
