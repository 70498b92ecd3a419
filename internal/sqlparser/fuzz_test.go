package sqlparser

import (
	"strings"
	"testing"
)

// fuzzSeeds is the seed corpus: representative statements from the
// workload templates plus known-nasty shapes (deep nesting, escape
// sequences, numeric edge cases).
var fuzzSeeds = []string{
	// Workload-template shapes (cmd/benchrunner and harness workloads).
	"SELECT * FROM ev WHERE id = $",
	"SELECT id, score FROM ev WHERE user_id = $ AND kind = $",
	"SELECT user_id, COUNT(*) FROM ev WHERE score > $ GROUP BY user_id ORDER BY user_id LIMIT 10",
	"SELECT e.id, u.name FROM ev e JOIN users u ON e.user_id = u.id WHERE u.region = $",
	"SELECT * FROM ev WHERE score BETWEEN $ AND $ ORDER BY score DESC",
	"SELECT * FROM ev WHERE kind IN ('click', 'view', 'purchase')",
	"SELECT * FROM (SELECT id, score FROM ev WHERE score > 0.5) t WHERE t.id < 100",
	"SELECT * FROM ev WHERE id IN (SELECT id FROM hot)",
	"INSERT INTO ev (id, user_id, kind, score) VALUES (1, 2, 'click', 0.5), (2, 3, 'view', 0.25)",
	"UPDATE ev SET score = score + 1.5, kind = 'seen' WHERE id = $",
	"DELETE FROM ev WHERE score < 0.1",
	"CREATE TABLE ev (id BIGINT, user_id BIGINT, kind TEXT, score DOUBLE, PRIMARY KEY (id)) PARTITION BY HASH (id) PARTITIONS 4",
	"CREATE UNIQUE INDEX ux ON ev (user_id, kind)",
	"CREATE LOCAL INDEX lx ON ev (kind)",
	"DROP INDEX ux",
	"EXPLAIN SELECT * FROM ev WHERE user_id = 7",
	// Adversarial shapes.
	"SELECT * FROM t WHERE NOT NOT NOT a = 1",
	"SELECT ----1 FROM t",
	"SELECT ((((a)))) FROM t",
	"SELECT * FROM t WHERE s = 'it''s' AND x IS NOT NULL",
	"SELECT 1e308, .5, 0.0, 9223372036854775807 FROM t",
	strings.Repeat("(", 600),
	"SELECT " + strings.Repeat("NOT ", 600) + "a FROM t",
	"EXPLAIN " + strings.Repeat("EXPLAIN ", 600) + "DROP INDEX i",
}

// FuzzParse asserts Parse never panics, and that anything it accepts
// survives a render → reparse → render round trip (the normalized String
// form is a fixed point). SQL2Template relies on that stability: the
// rendered normalized statement is the template identity. Shape, the
// template store's parse-free key, must fail on exactly the inputs the lexer
// fails on.
func FuzzParse(f *testing.F) {
	for _, s := range fuzzSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, sql string) {
		checkShapeFailsWithLex(t, sql)
		stmt, err := Parse(sql)
		if err != nil {
			return
		}
		rendered := stmt.String()
		again, err := Parse(rendered)
		if err != nil {
			t.Fatalf("rendered form does not reparse: %q -> %q: %v", sql, rendered, err)
		}
		if got := again.String(); got != rendered {
			t.Fatalf("render not a fixed point: %q -> %q -> %q", sql, rendered, got)
		}
	})
}
