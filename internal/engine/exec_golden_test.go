package engine

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"
)

// The golden ledger (testdata/exec_golden.json) is the executor's
// behavioural contract: for every statement of every script below it pins
// error-or-not, the ordered result rows and the full ExecStats. It was
// generated on the commit where the batch scan path, the tuple scan path and
// the tree-walking interpreter were proven equal to each other by
// differential tests; it is now the reference those three were for one
// another. Regenerate only when a ledger is meant to move:
//
//	go test ./internal/engine -run 'TestExecGolden|TestBatchTupleParity|TestCompiledFilterMatchesInterpreter' -update
var updateGolden = flag.Bool("update", false, "rewrite testdata/exec_golden.json from the current executor")

const goldenPath = "testdata/exec_golden.json"

// goldenEntry is one statement's recorded outcome. Rows are pinned by a
// digest over their ordered, kind-tagged rendering (so 2 and 2.0 differ);
// Head keeps the first few readable for a failing diff.
type goldenEntry struct {
	SQL    string    `json:"sql"`
	Err    bool      `json:"err,omitempty"`
	Head   []string  `json:"head,omitempty"`
	Digest string    `json:"digest,omitempty"`
	Stats  ExecStats `json:"stats"`
}

// golden is the ledger, loaded on first use (the engine's tests do not run
// in parallel).
var golden struct {
	loaded   bool
	sections map[string][]goldenEntry
}

// goldenSection returns the recorded entries of one section.
func goldenSection(t *testing.T, section string) []goldenEntry {
	t.Helper()
	if !golden.loaded {
		golden.sections = make(map[string][]goldenEntry)
		raw, err := os.ReadFile(goldenPath)
		if err == nil {
			err = json.Unmarshal(raw, &golden.sections)
		}
		if err != nil && !*updateGolden {
			t.Fatalf("golden ledger: %v (generate with -update)", err)
		}
		golden.loaded = true
	}
	return golden.sections[section]
}

// storeGoldenSection records a section and rewrites the ledger file.
func storeGoldenSection(t *testing.T, section string, entries []goldenEntry) {
	t.Helper()
	golden.sections[section] = entries
	raw, err := json.MarshalIndent(golden.sections, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(goldenPath, append(raw, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}

// observe executes one statement and renders its outcome as a ledger entry.
func observe(db *DB, sql string) goldenEntry {
	e := goldenEntry{SQL: sql}
	res, err := db.Exec(sql)
	if err != nil {
		e.Err = true
		return e
	}
	e.Stats = res.Stats
	h := sha256.New()
	for i, r := range res.Rows {
		parts := make([]string, len(r))
		for j, v := range r {
			parts[j] = fmt.Sprintf("%d:%s", v.Kind, v.String())
		}
		line := strings.Join(parts, "|")
		if i < 6 {
			e.Head = append(e.Head, line)
		}
		h.Write([]byte(line))
		h.Write([]byte{'\n'})
	}
	e.Digest = hex.EncodeToString(h.Sum(nil))
	return e
}

// replayGolden runs script on db statement by statement and holds every
// outcome to the ledger section (or records it under -update).
func replayGolden(t *testing.T, section string, db *DB, script []string) {
	t.Helper()
	want := goldenSection(t, section)
	if *updateGolden {
		got := make([]goldenEntry, len(script))
		for i, sql := range script {
			got[i] = observe(db, sql)
		}
		storeGoldenSection(t, section, got)
		return
	}
	if len(want) != len(script) {
		t.Fatalf("section %q: ledger has %d statements, script has %d (regenerate with -update?)",
			section, len(want), len(script))
	}
	for i, sql := range script {
		holdToLedger(t, db, sql, want[i])
	}
}

// holdToLedger executes one statement and fails the test on any departure
// from its recorded outcome.
func holdToLedger(t *testing.T, db *DB, sql string, want goldenEntry) {
	t.Helper()
	got := observe(db, sql)
	if want.SQL != sql {
		t.Fatalf("ledger recorded %q, script runs %q", want.SQL, sql)
	}
	if got.Err != want.Err {
		t.Fatalf("%q: error=%v, ledger says error=%v", sql, got.Err, want.Err)
	}
	if got.Digest != want.Digest {
		t.Fatalf("%q: rows moved\n got head: %v\nwant head: %v", sql, got.Head, want.Head)
	}
	if got.Stats != want.Stats {
		t.Fatalf("%q: ExecStats moved\n got: %+v\nwant: %+v", sql, got.Stats, want.Stats)
	}
}

// filterPreds is every single-table predicate shape the executor evaluates:
// comparisons on each kind, LIKE, short-circuit trees, NOT, IN, BETWEEN,
// IS [NOT] NULL, arithmetic (including division by zero) and mixes.
var filterPreds = []string{
	"a = 7",
	"a != 7",
	"b < 3",
	"b <= 3",
	"b > 3",
	"b >= 3",
	"f = 2.5",
	"s = 'row1'",
	"s LIKE 'row%'",
	"s LIKE '_ow3'",
	"a = 1 AND b = 1",
	"b = 99 AND a = 1",
	"a = 3 OR b = 5",
	"b = 5 OR a = 3",
	"NOT a = 3",
	"a IN (1, 5, 9)",
	"b IN (1, 2)",
	"a BETWEEN 10 AND 20",
	"f BETWEEN 1.0 AND 3.0",
	"b IS NULL",
	"b IS NOT NULL",
	"s IS NULL",
	"a + b = 10",
	"a - b > 20",
	"a * 2 = 40",
	"a / 7 > 3.0",
	"b / 0 = 1",
	"a = 1 AND (b = 1 OR f > 2.0) AND s IS NOT NULL",
	"b + 1 = 2 AND NOT s LIKE 'row9%'",
}

// TestExecGolden replays the statement shapes the three retired evaluators
// used to split between them: subqueries, scalar functions, cross-binding
// join residuals, arithmetic and HAVING over aggregates, ORDER BY over
// aggregates and aliases, SELECT * over joins, DISTINCT, derived tables,
// and writes whose SET/WHERE need more than one bound tuple. (The ledger's
// other sections belong to TestBatchTupleParity[Randomized] and
// TestCompiledFilterMatchesInterpreter.)
func TestExecGolden(t *testing.T) {
	db := newTestDB(t)
	mustExec(t, db, "CREATE INDEX g_cid ON orders (cid)")
	mustExec(t, db, "CREATE INDEX g_city ON customer (city)")
	if err := db.AnalyzeAll(); err != nil {
		t.Fatal(err)
	}
	// The cross-binding residual must run under an index nested loop,
	// or the shape this section names is not the one being pinned.
	inl := "SELECT c.id, o.oid FROM customer c JOIN orders o ON c.id = o.cid AND o.amount > c.balance WHERE c.id < 3"
	if res := mustExec(t, db, inl); !strings.Contains(res.PlanText(), "IndexNLJoin") {
		t.Fatalf("expected an IndexNL plan, got:\n%s", res.PlanText())
	}
	replayGolden(t, "shapes", db, []string{
		// subqueries: IN, scalar, both in one predicate, empty, failing
		"SELECT name FROM customer WHERE id IN (SELECT cid FROM orders WHERE amount = 499)",
		"SELECT oid FROM orders WHERE amount = (SELECT MAX(amount) FROM orders)",
		"SELECT id FROM customer WHERE id IN (SELECT cid FROM orders WHERE amount > 495) AND balance > (SELECT AVG(balance) FROM customer)",
		"SELECT id FROM customer WHERE id IN (3, (SELECT MIN(cid) FROM orders), 7)",
		"SELECT id FROM customer WHERE balance = (SELECT balance FROM customer WHERE id < 0)",
		"SELECT id FROM customer WHERE id IN (SELECT x FROM missing_table)",
		// scalar function in filter and projection
		"SELECT id, ABS(balance - 1000) FROM customer WHERE ABS(id - 100) < 3",
		"SELECT ABS(0 - id) FROM customer WHERE id < 4",
		"SELECT id FROM customer WHERE ABS(id, 2) = 1",
		// joins: IndexNL with cross-binding residual, hash, nested loop,
		// leftover cross filter, three-way, derived table
		inl,
		"SELECT c.name, o.amount FROM customer c JOIN orders o ON c.id = o.cid WHERE o.status = 'void' AND o.amount > 480",
		"SELECT c.id, o.oid FROM customer c, orders o WHERE c.id < 3 AND o.oid < 4",
		"SELECT c.id, o.oid FROM customer c, orders o WHERE c.id < 5 AND o.oid < 40 AND c.id + 1 > o.oid",
		"SELECT c.id, o.oid FROM customer c JOIN orders o ON c.id = o.cid WHERE c.balance < o.amount AND c.id < 20",
		"SELECT c.name FROM customer c, (SELECT cid FROM orders WHERE amount > 490) big WHERE c.id = big.cid",
		"SELECT a.id, b.id FROM customer a JOIN customer b ON a.id = b.id JOIN orders o ON o.cid = b.id WHERE o.amount = 7",
		// SELECT * over a join expands bindings in sorted-name order
		"SELECT * FROM customer c JOIN orders o ON c.id = o.cid WHERE o.oid < 3",
		"SELECT * FROM orders z JOIN customer y ON y.id = z.cid WHERE z.oid = 5",
		// aggregates: arithmetic in projection, HAVING, empty input,
		// star under aggregation, group key not projected
		"SELECT status, SUM(amount) / COUNT(*), MAX(amount) - MIN(amount) FROM orders GROUP BY status",
		"SELECT cid, COUNT(*) FROM orders GROUP BY cid HAVING COUNT(*) > 4 AND SUM(amount) > 1000",
		"SELECT cid, SUM(amount) FROM orders GROUP BY cid HAVING SUM(amount) > 2400 OR cid = 3",
		"SELECT status, COUNT(*) + 1 FROM orders WHERE amount < 0 GROUP BY status",
		"SELECT COUNT(*), SUM(amount), AVG(amount), MIN(status), MAX(oid) FROM orders WHERE oid < 0",
		"SELECT COUNT(*), AVG(balance) FROM customer WHERE city = 'oslo'",
		"SELECT COUNT(*) FROM orders GROUP BY status",
		"SELECT *, COUNT(*) FROM orders GROUP BY status",
		// ORDER BY: aggregate, alias, expression, column outside the
		// projection, DESC with LIMIT, over a join
		"SELECT status, COUNT(*) FROM orders GROUP BY status ORDER BY COUNT(*) DESC",
		"SELECT cid, SUM(amount) AS total FROM orders GROUP BY cid ORDER BY total DESC LIMIT 5",
		"SELECT cid, COUNT(*) AS n FROM orders GROUP BY cid ORDER BY cid DESC LIMIT 4",
		"SELECT city, COUNT(*) FROM customer GROUP BY city ORDER BY MAX(balance)",
		"SELECT id, balance * 2 AS dbl FROM customer WHERE id < 30 ORDER BY dbl DESC LIMIT 7",
		"SELECT name FROM customer WHERE city = 'lima' ORDER BY balance DESC, id LIMIT 6",
		"SELECT o.oid FROM customer c JOIN orders o ON c.id = o.cid WHERE c.city = 'cairo' ORDER BY o.amount DESC, o.oid LIMIT 9",
		// DISTINCT
		"SELECT DISTINCT status FROM orders",
		"SELECT DISTINCT city, balance > 1000 FROM customer",
		// projection arithmetic, NULL propagation, placeholder
		"SELECT id + 1, balance / 0, name FROM customer WHERE id < 3",
		// writes: SET over the old tuple, subquery in WHERE and SET,
		// multi-row VALUES with expressions, failing subquery
		"UPDATE customer SET balance = balance * 2 + id WHERE city = 'oslo' AND id < 50",
		"UPDATE orders SET amount = (SELECT MAX(balance) FROM customer) WHERE cid IN (SELECT id FROM customer WHERE city = 'lima' AND id < 30)",
		"INSERT INTO customer (id, name, city, balance) VALUES (900, 'x', 'rome', 1 + 2 * 3), (901, 'y', 'oslo', ABS(0 - 4))",
		"DELETE FROM orders WHERE cid IN (SELECT id FROM customer WHERE balance > 1500)",
		"DELETE FROM orders WHERE cid IN (SELECT x FROM missing_table)",
		"UPDATE orders SET amount = 1 WHERE cid IN (SELECT x FROM missing_table)",
		"UPDATE customer SET nope = 1 WHERE id = 3",
		"SELECT COUNT(*), SUM(amount), SUM(balance) FROM customer c JOIN orders o ON c.id = o.cid",
	})
}
