package sqlparser

import (
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// cloneCorpus is a representative statement set covering every node type
// Clone must deep-copy.
var cloneCorpus = []string{
	"SELECT * FROM item",
	"SELECT DISTINCT a, b AS bb FROM t WHERE a = 1 AND b > 2 OR NOT c < 3",
	"SELECT a FROM t WHERE a IN (1, 2, 3) AND b BETWEEN 1 AND 9",
	"SELECT a FROM t WHERE a IS NULL OR b IS NOT NULL",
	"SELECT a FROM t WHERE name = 'ab' LIMIT 7",
	"SELECT COUNT(*), SUM(x + 1) FROM t GROUP BY y HAVING COUNT(*) > 2 ORDER BY y DESC",
	"SELECT t.a, u.b FROM t JOIN u ON t.id = u.tid WHERE u.k = 5",
	"SELECT ABS(a - b) FROM t WHERE a * 2 + b / 3 >= 10",
	"INSERT INTO t (a, b) VALUES (1, 'x'), (2, 'y')",
	"UPDATE t SET a = a + 1, b = 'z' WHERE c = 3",
	"DELETE FROM t WHERE a BETWEEN 1 AND 5",
	"CREATE TABLE t (a BIGINT, b VARCHAR, PRIMARY KEY (a))",
	"CREATE INDEX idx_ab ON t (a, b)",
	"DROP INDEX idx_ab",
	"EXPLAIN SELECT a FROM t WHERE b = 1",
	"SELECT a FROM t WHERE b = ?",
}

// fuzzCorpusInputs loads the checked-in go-fuzz seed corpus so parser
// corners found by fuzzing also pin Clone.
func fuzzCorpusInputs(t *testing.T) []string {
	t.Helper()
	dir := filepath.Join("testdata", "fuzz", "FuzzParse")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("read fuzz corpus: %v", err)
	}
	var out []string
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(string(data), "\n") {
			line = strings.TrimSpace(line)
			if !strings.HasPrefix(line, "string(") {
				continue
			}
			q, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(line, "string("), ")"))
			if err != nil {
				continue
			}
			out = append(out, q)
		}
	}
	return out
}

func TestCloneRoundTrips(t *testing.T) {
	inputs := append(append([]string{}, cloneCorpus...), fuzzCorpusInputs(t)...)
	parsed := 0
	for _, sql := range inputs {
		stmt, err := Parse(sql)
		if err != nil {
			continue // fuzz seeds include invalid SQL
		}
		parsed++
		orig := stmt.String()
		clone := stmt.Clone()
		if got := clone.String(); got != orig {
			t.Errorf("clone round-trip mismatch for %q:\n  orig:  %s\n  clone: %s", sql, orig, got)
		}
		// The clone must be re-parseable to the same canonical form, like
		// the reparse path it replaced.
		re, err := Parse(orig)
		if err != nil {
			t.Errorf("canonical form of %q does not re-parse: %v", sql, err)
			continue
		}
		if re.String() != orig {
			t.Errorf("canonical form unstable for %q: %s -> %s", sql, orig, re.String())
		}
	}
	if parsed < len(cloneCorpus) {
		t.Fatalf("only %d inputs parsed; the hand-written corpus must all parse", parsed)
	}
}

// TestCloneIsDeep mutates every reachable part of a cloned SELECT and
// verifies the original's rendering is untouched — the property the
// planner relies on when it rewrites clones in place.
func TestCloneIsDeep(t *testing.T) {
	sql := "SELECT a, b AS bb FROM t JOIN u ON t.id = u.tid " +
		"WHERE a IN (1, 2) AND b BETWEEN 3 AND 4 AND c IS NULL AND NOT d = ABS(x) " +
		"GROUP BY a HAVING COUNT(*) > 1 ORDER BY b LIMIT 5"
	stmt, err := Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	orig := stmt.(*SelectStmt)
	before := orig.String()
	cp := orig.CloneSelect()

	// Scribble over every layer of the clone: structure fields plus every
	// reachable column reference (what the planner's name resolution
	// qualifies in place).
	cp.Distinct = !cp.Distinct
	cp.Select[0].Alias = "mutated"
	cp.From[0].Name = "mutated"
	cp.Joins[0].Table.Name = "mutated"
	cp.GroupBy = append(cp.GroupBy, &Literal{})
	cp.Having = nil
	cp.OrderBy[0].Desc = !cp.OrderBy[0].Desc
	cp.Limit = 999
	mutateSelect(cp)
	if orig.String() != before {
		t.Fatalf("clone mutation leaked into original:\n  before: %s\n  after:  %s", before, orig.String())
	}
}

// mutateSelect rewrites every ColumnRef reachable from s, including through
// joins and all expression forms.
func mutateSelect(s *SelectStmt) {
	for i := range s.Select {
		mutateExpr(s.Select[i].Expr)
	}
	for i := range s.Joins {
		mutateExpr(s.Joins[i].On)
	}
	mutateExpr(s.Where)
	for _, g := range s.GroupBy {
		mutateExpr(g)
	}
	mutateExpr(s.Having)
	for i := range s.OrderBy {
		mutateExpr(s.OrderBy[i].Expr)
	}
}

func mutateExpr(e Expr) {
	Walk(e, func(x Expr) bool {
		if c, ok := x.(*ColumnRef); ok {
			c.Table, c.Column = "mut", "mut"
		}
		return true
	})
}
