package engine

import (
	"fmt"
	"math/rand"
	"testing"
)

// TestBatchTupleParity replays every experiment query shape, reads and
// writes interleaved, heap-only and indexed, against the ledger recorded
// when the executor still had a batch and a tuple scan path and a
// differential test held them equal: identical rows AND identical work
// accounting (IOCounter, operator evals, tuples processed), because those
// counters are the cost model's training signal.
func TestBatchTupleParity(t *testing.T) {
	queries := []string{
		// seq scan, no filter
		"SELECT id, a, b, s FROM l",
		// seq scan with the fused comparison shapes (lit on either side)
		"SELECT id FROM l WHERE a = 17",
		"SELECT id FROM l WHERE 17 > a",
		"SELECT id FROM l WHERE s = 't3'",
		"SELECT id FROM l WHERE s LIKE 't%'",
		// AND / OR short-circuit trees
		"SELECT id FROM l WHERE a = 12 AND b < 9",
		"SELECT id FROM l WHERE s = 't1' OR a >= 38",
		"SELECT id FROM l WHERE a > 5 AND b > 2 AND s <> 't0'",
		// IN, BETWEEN, NOT, IS NULL
		"SELECT id FROM l WHERE a IN (3, 14, 41)",
		"SELECT id FROM l WHERE b BETWEEN 4 AND 11",
		"SELECT id FROM l WHERE NOT (a = 2)",
		"SELECT id FROM l WHERE s IS NOT NULL",
		// arithmetic inside the predicate (generic value fallback)
		"SELECT id FROM l WHERE a + b > 40",
		// index scan (point + range through the PK)
		"SELECT a FROM l WHERE id = 77",
		"SELECT id FROM l WHERE id BETWEEN 40 AND 60",
		// join, agg, sort, project, limit
		"SELECT l.id, r.id FROM l JOIN r ON l.a = r.la WHERE r.v > 30",
		"SELECT a, COUNT(*) FROM l WHERE b < 14 GROUP BY a",
		"SELECT id, b FROM l WHERE a >= 11 ORDER BY b, id LIMIT 25",
		"SELECT DISTINCT a FROM l WHERE b = 7",
	}
	writes := []string{
		"INSERT INTO l (id, a, b, s) VALUES (9001, 3, 4, 'w0')",
		"UPDATE l SET b = 99 WHERE a = 21",
		"UPDATE l SET a = a + 1 WHERE id BETWEEN 100 AND 140",
		"DELETE FROM l WHERE a = 5 AND b > 20",
		"DELETE FROM l WHERE id = 9001",
	}
	// Interleave reads and writes so the write-target scan is exercised
	// between the read shapes, on evolving heap states (tombstones included).
	script := append([]string{}, queries...)
	for i, w := range writes {
		script = append(script, w, queries[i%len(queries)])
	}

	for _, indexed := range []bool{false, true} {
		name := "heap-only"
		if indexed {
			name = "indexed"
		}
		t.Run(name, func(t *testing.T) {
			db := buildRandomDB(t, 3)
			if indexed {
				mustExec(t, db, "CREATE INDEX p_a ON l (a)")
				mustExec(t, db, "CREATE INDEX p_ab ON l (a, b)")
				mustExec(t, db, "CREATE INDEX p_la ON r (la)")
			}
			replayGolden(t, "parity/"+name, db, script)
		})
	}
}

// TestBatchTupleParityRandomized widens the contract over generated
// predicates: the same random query streams, held to the ledger statement
// by statement.
func TestBatchTupleParityRandomized(t *testing.T) {
	for trial := int64(0); trial < 4; trial++ {
		rng := rand.New(rand.NewSource(trial*977 + 5))
		replayGolden(t, fmt.Sprintf("random/%d", trial), buildRandomDB(t, trial), randomQueries(rng, 60))
	}
}

// TestBatchPathUsesPoolWithoutChangingLogicalIO pins the two-ledger design:
// disabling the buffer pool entirely must leave every logical counter — and
// therefore ActualCost — untouched.
func TestBatchPathUsesPoolWithoutChangingLogicalIO(t *testing.T) {
	pooled := buildRandomDB(t, 1)
	unpooled, err := NewWithConfig(Config{BufferPoolPages: -1})
	if err != nil {
		t.Fatal(err)
	}
	if unpooled.BufferPool() != nil {
		t.Fatal("negative BufferPoolPages did not disable the pool")
	}
	seedRandomDB(t, unpooled, 1)

	q := "SELECT id FROM l WHERE a = 7 OR b BETWEEN 3 AND 9"
	rp, err := pooled.Exec(q)
	if err != nil {
		t.Fatal(err)
	}
	ru, err := unpooled.Exec(q)
	if err != nil {
		t.Fatal(err)
	}
	if rp.Stats != ru.Stats {
		t.Fatalf("pool presence changed logical stats\npooled:   %+v\nunpooled: %+v",
			rp.Stats, ru.Stats)
	}
	s := pooled.BufferPool().Stats()
	if s.Misses == 0 || s.Hits == 0 {
		t.Fatalf("pooled run recorded no physical activity: %+v", s)
	}
	if s.Pinned != 0 {
		t.Fatalf("query leaked %d pinned frames", s.Pinned)
	}
}

// seedRandomDB loads the buildRandomDB dataset into an existing database
// (buildRandomDB always constructs its own instance).
func seedRandomDB(t *testing.T, db *DB, trial int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(trial*31 + 1))
	mustExec(t, db, "CREATE TABLE l (id BIGINT, a BIGINT, b BIGINT, s TEXT, PRIMARY KEY (id))")
	mustExec(t, db, "CREATE TABLE r (id BIGINT, la BIGINT, v DOUBLE, PRIMARY KEY (id))")
	for i := 0; i < 600; i++ {
		mustExec(t, db, fmt.Sprintf(
			"INSERT INTO l (id, a, b, s) VALUES (%d, %d, %d, 't%d')",
			i, rng.Intn(40), rng.Intn(25), rng.Intn(8)))
	}
	for i := 0; i < 400; i++ {
		mustExec(t, db, fmt.Sprintf(
			"INSERT INTO r (id, la, v) VALUES (%d, %d, %d.5)",
			i, rng.Intn(40), rng.Intn(100)))
	}
	if err := db.AnalyzeAll(); err != nil {
		t.Fatal(err)
	}
}
