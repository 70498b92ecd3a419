package template

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/sqlparser"
	"repro/internal/workload/banking"
	"repro/internal/workload/epidemic"
	"repro/internal/workload/tpcc"
	"repro/internal/workload/tpcds"
)

// generatorStreams returns one statement stream per workload generator.
func generatorStreams(tb testing.TB) map[string][]string {
	tb.Helper()
	streams := make(map[string][]string)

	tl := tpcc.NewLoader(1, 1)
	if err := tl.Load(engine.New()); err != nil {
		tb.Fatal(err)
	}
	for _, mix := range []tpcc.Mix{tpcc.StandardMix(), tpcc.ReadHeavyMix(), tpcc.WriteHeavyMix()} {
		for _, txn := range tl.Transactions(80, mix) {
			streams["tpcc"] = append(streams["tpcc"], txn...)
		}
	}

	// The query set twice over, so every template is matched at least once.
	for round := 0; round < 2; round++ {
		for _, q := range tpcds.QuerySet() {
			streams["tpcds"] = append(streams["tpcds"], q.SQL)
		}
	}

	bl := banking.NewLoader(1)
	streams["banking"] = append(bl.SummarizationService(200), bl.WithdrawalService(600)...)

	el := epidemic.NewLoader(1)
	if err := el.Load(engine.New()); err != nil {
		tb.Fatal(err)
	}
	streams["epidemic"] = append(append(el.W1(100), el.W2(300)...), el.W3(200)...)
	return streams
}

// referenceFingerprint is the fingerprint as it was computed before
// Fingerprint cloned the tree: deep copy by rendering and parsing again.
func referenceFingerprint(stmt sqlparser.Statement) (string, error) {
	cp, err := sqlparser.Parse(stmt.String())
	if err != nil {
		return "", err
	}
	stripStatement(cp)
	return cp.String(), nil
}

// outcome is what the canonical path makes of sql: its fingerprint, or the
// fact that it does not parse.
func outcome(sql string) string {
	stmt, err := sqlparser.Parse(sql)
	if err != nil {
		return "parse error"
	}
	fp, _, _ := Fingerprint(stmt)
	return "fingerprint " + fp
}

// shapeMerges are spellings of one statement form that must share a shape: a
// shape as fine as the text would satisfy every trap and match nothing.
var shapeMerges = [][2]string{
	{"SELECT * FROM t WHERE a = - 5", "SELECT * FROM t WHERE a = -7"},
	{"SELECT * FROM t WHERE a IN (1,2,3)", "SELECT * FROM t WHERE a IN ('x', 2.5)"},
	{"SELECT * FROM t WHERE s = 'it''s'", "SELECT * FROM t WHERE s = 'x'"},
	{"select  A\tfrom T where B != 1", "SELECT a FROM t WHERE b <> 2"},
	{"SELECT * FROM t WHERE a = $", "SELECT * FROM t WHERE a = ?"},
}

// shapeTraps are pairs a careless shape would merge (or a careless store
// would split): each must come out "equal shapes ⇒ equal outcomes".
var shapeTraps = [][2]string{
	// Unary minus folds into a numeric literal only.
	{"SELECT * FROM t WHERE a = -'x'", "SELECT * FROM t WHERE a = -5"},
	{"SELECT * FROM t WHERE a = -NULL", "SELECT * FROM t WHERE a = -5.5"},
	{"SELECT * FROM t WHERE a = -$", "SELECT * FROM t WHERE a = -(5)"},
	// 19 digits may overflow int64 (parse error); 18 never do.
	{"SELECT * FROM t WHERE a = 9223372036854775808", "SELECT * FROM t WHERE a = 5"},
	{"SELECT * FROM t WHERE a = 9223372036854775807", "SELECT * FROM t WHERE a = 9223372036854775808"},
	{"SELECT * FROM t WHERE a = 99999999999999999999999", "SELECT * FROM t WHERE a = 999999999999999999"},
	{"SELECT * FROM t WHERE a = 1e999", "SELECT * FROM t WHERE a = 1e5"},
	{"SELECT * FROM t WHERE a = 1e", "SELECT * FROM t WHERE a = 1e1"},
	// LIMIT is part of the template.
	{"SELECT a FROM t ORDER BY a LIMIT 5", "SELECT a FROM t ORDER BY a LIMIT 10"},
	{"SELECT a FROM t LIMIT 5", "SELECT a FROM t LIMIT 5.0"},
	{"SELECT a FROM t LIMIT 99999999999999999999", "SELECT a FROM t LIMIT 9"},
	// IN lists: literal-only ones merge whatever their length; a subquery
	// or a mixed list does not collapse.
	{"SELECT * FROM t WHERE a IN (1,2,3)", "SELECT * FROM t WHERE a IN (SELECT b FROM u)"},
	{"SELECT * FROM t WHERE a IN (1, (SELECT b FROM u))", "SELECT * FROM t WHERE a IN (2, (SELECT b FROM u))"},
	{"SELECT * FROM t WHERE a IN (1, b)", "SELECT * FROM t WHERE a IN (2, b)"},
	{"SELECT * FROM t WHERE a IN (1, -2)", "SELECT * FROM t WHERE a IN (3, -4)"},
	{"SELECT * FROM t WHERE a IN ()", "SELECT * FROM t WHERE a IN (1)"},
	{"SELECT * FROM t WHERE a IN (1,", "SELECT * FROM t WHERE a IN (1,2"},
	// Multi-row VALUES keep their row count.
	{"INSERT INTO t (a, b) VALUES (1, 'x'), (2, 'y')", "INSERT INTO t (a, b) VALUES (3, 'z')"},
	{"INSERT INTO t (a, b) VALUES (1, 'x'), (2, 'y')", "INSERT INTO t (a, b) VALUES (3, 'z'), (4, 'w')"},
	// Placeholders already in the text.
	{"SELECT * FROM t WHERE a = $ AND b = 1", "SELECT * FROM t WHERE a = 2 AND b = $"},
	// NULL is a literal to the parser and a keyword to the lexer.
	{"SELECT * FROM t WHERE a = NULL", "SELECT * FROM t WHERE a = 1"},
	{"SELECT * FROM t WHERE a IS NULL", "SELECT * FROM t WHERE a IS NOT NULL"},
	// Quote escapes stay inside one literal.
	{"SELECT * FROM t WHERE s = '' AND u = ''''", "SELECT * FROM t WHERE s = 'a' AND u = 'b'"},
	{"SELECT * FROM t WHERE s = 'a' 'b'", "SELECT * FROM t WHERE s = 'a''b'"},
	// Float spellings.
	{"SELECT * FROM t WHERE a = .5", "SELECT * FROM t WHERE a = 1e5"},
	{"SELECT * FROM t WHERE a = 5.", "SELECT * FROM t WHERE a = 5"},
	{"SELECT -.0 FROM a", "SELECT -0.0 FROM a"},
	// Literals of a statement the fingerprint does not strip stay.
	{"EXPLAIN SELECT * FROM t WHERE a = 1", "EXPLAIN SELECT * FROM t WHERE a = 2"},
	{"CREATE TABLE t (a INT) PARTITION BY HASH (a) PARTITIONS 1", "CREATE TABLE t (a INT) PARTITION BY HASH (a) PARTITIONS 4"},
	{"CREATE TABLE t (a VARCHAR(10))", "CREATE TABLE t (a VARCHAR(1.5))"},
}

// fuzzParseCorpus reads the committed FuzzParse corpus of internal/sqlparser.
func fuzzParseCorpus(tb testing.TB) []string {
	tb.Helper()
	files, err := filepath.Glob("../sqlparser/testdata/fuzz/FuzzParse/*")
	if err != nil {
		tb.Fatal(err)
	}
	var out []string
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			tb.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(string(data)), "\n")
		if len(lines) != 2 || !strings.HasPrefix(lines[1], "string(") {
			tb.Fatalf("%s: not a one-string corpus file", f)
		}
		s, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lines[1], "string("), ")"))
		if err != nil {
			tb.Fatalf("%s: %v", f, err)
		}
		out = append(out, s)
	}
	return out
}

// checkShapePair asserts the contract of sqlparser.Shape on one pair.
func checkShapePair(t *testing.T, a, b string) {
	t.Helper()
	sa, erra := sqlparser.Shape(nil, a)
	sb, errb := sqlparser.Shape(nil, b)
	for _, c := range []struct {
		sql string
		err error
	}{{a, erra}, {b, errb}} {
		stmt, perr := sqlparser.Parse(c.sql)
		if c.err != nil && perr == nil {
			t.Fatalf("Shape fails (%v) on a statement that parses: %q", c.err, c.sql)
		}
		if perr != nil {
			continue
		}
		// Cloning must not have moved the canonical fingerprint.
		want, err := referenceFingerprint(stmt)
		if err != nil {
			t.Fatalf("%q: rendered form does not reparse: %v", c.sql, err)
		}
		if got, _, _ := Fingerprint(stmt); got != want {
			t.Fatalf("%q: fingerprint by clone %q, by reparse %q", c.sql, got, want)
		}
	}
	if erra != nil || errb != nil || !bytes.Equal(sa, sb) {
		return
	}
	if oa, ob := outcome(a), outcome(b); oa != ob {
		t.Fatalf("equal shapes, different templates:\n shape %q\n %q -> %s\n %q -> %s", sa, a, oa, b, ob)
	}
}

func TestShapeTraps(t *testing.T) {
	for _, p := range append(shapeMerges, shapeTraps...) {
		checkShapePair(t, p[0], p[1])
	}
	for _, p := range shapeMerges {
		sa, _ := sqlparser.Shape(nil, p[0])
		sb, _ := sqlparser.Shape(nil, p[1])
		if !bytes.Equal(sa, sb) {
			t.Errorf("shapes should be equal:\n %q -> %q\n %q -> %q", p[0], sa, p[1], sb)
		}
	}
}

// FuzzShapeAgreesWithFingerprint guards the one direction the shape-keyed
// store depends on: two statements with equal shapes either both fail to
// parse or have equal canonical fingerprints. (The converse is not needed:
// several shapes may lead to one template.)
func FuzzShapeAgreesWithFingerprint(f *testing.F) {
	for _, p := range append(shapeMerges, shapeTraps...) {
		f.Add(p[0], p[1])
	}
	for _, s := range fuzzParseCorpus(f) {
		f.Add(s, s)
	}
	// From each generator, one pair per shape: its first two spellings.
	for _, stream := range generatorStreams(f) {
		first := make(map[string]string)
		paired := make(map[string]bool)
		for _, sql := range stream {
			shape, err := sqlparser.Shape(nil, sql)
			if err != nil {
				f.Fatal(err)
			}
			key := string(shape)
			switch prev, ok := first[key]; {
			case !ok:
				first[key] = sql
			case !paired[key] && prev != sql:
				paired[key] = true
				f.Add(prev, sql)
			}
		}
	}
	f.Fuzz(checkShapePair)
}

// storeState renders everything the rest of the system can read out of a
// store.
func storeState(s *Store) string {
	var b strings.Builder
	matches, misses := s.MatchStats()
	fmt.Fprintf(&b, "len=%d matches=%d misses=%d\n", s.Len(), matches, misses)
	for _, t := range s.Templates() {
		fmt.Fprintf(&b, "%s freq=%v last=%d trend=%v\n", t.Fingerprint, t.Frequency, t.LastSeen, t.Trend)
	}
	for _, q := range s.Workload().Queries {
		fmt.Fprintf(&b, "workload %v %s | %s\n", q.Weight, q.SQL, q.Stmt.String())
	}
	for _, q := range s.ForecastWorkload().Queries {
		fmt.Fprintf(&b, "forecast %v %s | %s\n", q.Weight, q.SQL, q.Stmt.String())
	}
	return b.String()
}

// checkShapeIndex asserts the shape map's invariants: bounded, and exactly
// the shapes the live templates list.
func checkShapeIndex(t *testing.T, s *Store) {
	t.Helper()
	if bound := maxShapesPerTemplate * s.capacity; len(s.shapes) > bound {
		t.Fatalf("%d shapes exceed the bound %d", len(s.shapes), bound)
	}
	listed := 0
	for _, tmpl := range s.templates {
		if len(tmpl.shapes) > maxShapesPerTemplate {
			t.Fatalf("template %q lists %d shapes", tmpl.Fingerprint, len(tmpl.shapes))
		}
		for _, key := range tmpl.shapes {
			if s.shapes[key] != tmpl {
				t.Fatalf("shape %q of template %q is not in the map", key, tmpl.Fingerprint)
			}
			listed++
		}
	}
	if listed != len(s.shapes) {
		t.Fatalf("%d shapes in the map, %d listed by live templates", len(s.shapes), listed)
	}
}

// TestShapeDifferential replays each generator's stream through the
// reference path (sqlparser.Parse → Store.Observe, the whole observe path
// before shapes) and through ObserveSQL, and requires the two stores to be
// indistinguishable — also when the store evicts, and across Decay.
func TestShapeDifferential(t *testing.T) {
	for name, stream := range generatorStreams(t) {
		for _, capacity := range []int{0, 8} {
			t.Run(fmt.Sprintf("%s/cap%d", name, capacity), func(t *testing.T) {
				ref, got := NewStore(capacity), NewStore(capacity)
				compare := func(when string) {
					t.Helper()
					if r, g := storeState(ref), storeState(got); r != g {
						t.Fatalf("%s: stores differ\nreference:\n%s\nObserveSQL:\n%s", when, r, g)
					}
					checkShapeIndex(t, got)
				}
				for i, sql := range stream {
					stmt, err := sqlparser.Parse(sql)
					if err != nil {
						t.Fatal(err)
					}
					rt, rOld, err := ref.Observe(stmt)
					if err != nil {
						t.Fatal(err)
					}
					gt, gOld, err := got.ObserveSQL(sql)
					if err != nil {
						t.Fatal(err)
					}
					if rt.Fingerprint != gt.Fingerprint || rOld != gOld {
						t.Fatalf("statement %d %q: reference (%q, %v), ObserveSQL (%q, %v)",
							i, sql, rt.Fingerprint, rOld, gt.Fingerprint, gOld)
					}
					switch {
					case i%97 == 96:
						ref.CloseWindow()
						got.CloseWindow()
						compare(fmt.Sprintf("after window at %d", i))
					case i%211 == 210:
						if r, g := ref.Decay(0.5, 1.5), got.Decay(0.5, 1.5); r != g {
							t.Fatalf("Decay dropped %d in the reference, %d here", r, g)
						}
						compare(fmt.Sprintf("after decay at %d", i))
					}
				}
				compare("at the end")
				if len(ref.shapes) != 0 {
					t.Fatalf("the reference path registered %d shapes", len(ref.shapes))
				}
				if len(got.shapes) == 0 {
					t.Fatal("ObserveSQL registered no shape")
				}
				got.Decay(0, 1)
				if got.Len() != 0 || len(got.shapes) != 0 {
					t.Fatalf("after dropping every template: %d templates, %d shapes", got.Len(), len(got.shapes))
				}
			})
		}
	}
}

// TestShapeRingReplacesOldest drives one template through more spellings
// than it may keep.
func TestShapeRingReplacesOldest(t *testing.T) {
	s := NewStore(4)
	var spellings []string
	for i := 0; i <= maxShapesPerTemplate; i++ {
		// Spelling i writes condition c<bit> with a string literal where bit
		// is set in i and an integer elsewhere: one template, i+1 shapes.
		var conds []string
		for bit := 0; bit < 4; bit++ {
			lit := "1"
			if i&(1<<bit) != 0 {
				lit = "'x'"
			}
			conds = append(conds, fmt.Sprintf("c%d = %s", bit, lit))
		}
		spellings = append(spellings, "SELECT * FROM t WHERE "+strings.Join(conds, " AND "))
	}
	for _, sql := range spellings {
		mustObserve(t, s, sql)
		checkShapeIndex(t, s)
	}
	if s.Len() != 1 || len(s.shapes) != maxShapesPerTemplate {
		t.Fatalf("%d templates, %d shapes", s.Len(), len(s.shapes))
	}
	// The first spelling was pushed out: it misses on shape, matches on
	// fingerprint, and is registered again.
	oldest, _ := sqlparser.Shape(nil, spellings[0])
	if _, ok := s.shapes[string(oldest)]; ok {
		t.Fatal("the oldest shape is still registered")
	}
	if _, existed, err := s.ObserveSQL(spellings[0]); err != nil || !existed {
		t.Fatalf("existed=%v err=%v", existed, err)
	}
	if _, ok := s.shapes[string(oldest)]; !ok {
		t.Fatal("a re-observed shape is not registered")
	}
	checkShapeIndex(t, s)
}

func TestObserveSQLHitAllocatesNothing(t *testing.T) {
	s := NewStore(0)
	stream := []string{
		"SELECT c_last, c_credit, c_balance FROM customer WHERE c_id = 1001 AND c_name = 'a'",
		"SELECT c_last, c_credit, c_balance FROM customer WHERE c_id = 7 AND c_name = 'bcd'",
		"UPDATE stock SET s_quantity = s_quantity - 1, s_ytd = s_ytd + 1.5 WHERE s_i_id IN (5, 6, 7)",
		"UPDATE stock SET s_quantity = s_quantity - 9, s_ytd = s_ytd + 0.25 WHERE s_i_id IN (8)",
	}
	for _, sql := range stream {
		mustObserve(t, s, sql)
	}
	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		if _, existed, err := s.ObserveSQL(stream[i%len(stream)]); err != nil || !existed {
			t.Fatalf("existed=%v err=%v", existed, err)
		}
		i++
	})
	if allocs != 0 {
		t.Fatalf("an ObserveSQL shape hit allocates %v times", allocs)
	}
}
