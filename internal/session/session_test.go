package session

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"repro/internal/engine"
	"repro/internal/obs"
)

// changeLogAttached reports whether an online build's change log is still
// attached to db: a new build can start logging only when none is. The
// probe build logs nothing and is aborted at once.
func changeLogAttached(t *testing.T, db *engine.DB) bool {
	t.Helper()
	tbl := db.Catalog().Tables()[0]
	b, err := db.NewIndexBuild(engine.IndexBuildSpec{Name: "log_probe", Table: tbl.Name, Columns: []string{tbl.Columns[0].Name}})
	if err != nil {
		t.Fatal(err)
	}
	if b.StartLogging() != nil {
		return true
	}
	b.Abort()
	return false
}

// newPopulatedDB builds a one-table database with rows split between k=1
// (bulk) and k=2 (exactly marked rows, the invariant probes count).
func newPopulatedDB(t *testing.T, rows, marked int) *engine.DB {
	t.Helper()
	db := engine.New()
	if _, err := db.Exec("CREATE TABLE items (id BIGINT, k BIGINT, v BIGINT, PRIMARY KEY (id))"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < rows; i++ {
		k := 1
		if i < marked {
			k = 2
		}
		if _, err := db.Exec(fmt.Sprintf("INSERT INTO items (id, k, v) VALUES (%d, %d, %d)", i, k, i*3)); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

func TestReadWriteRouting(t *testing.T) {
	reg := obs.NewRegistry()
	db := newPopulatedDB(t, 10, 4)
	db.SetMetrics(reg)
	sm := New(db, Options{Seed: 1})

	res, err := sm.Exec("SELECT COUNT(*) FROM items WHERE k = 2")
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Rows[0][0].Int; got != 4 {
		t.Fatalf("count = %d, want 4", got)
	}
	if _, err := sm.Exec("INSERT INTO items (id, k, v) VALUES (100, 2, 0)"); err != nil {
		t.Fatal(err)
	}
	if _, err := sm.Exec("EXPLAIN SELECT id FROM items WHERE k = 2"); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("session_reads_total", "").Value(); got != 2 {
		t.Errorf("session_reads_total = %d, want 2 (SELECT + EXPLAIN)", got)
	}
	if got := reg.Counter("session_writes_total", "").Value(); got != 1 {
		t.Errorf("session_writes_total = %d, want 1", got)
	}
	res, err = sm.Exec("SELECT COUNT(*) FROM items WHERE k = 2")
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Rows[0][0].Int; got != 5 {
		t.Fatalf("count after insert = %d, want 5", got)
	}
}

// TestConcurrentReadersSeeAtomicPublish is the headline race test: while a
// writer streams k=1 inserts and an online build of an index on k runs to
// completion, concurrent readers repeatedly count the k=2 rows. The count
// is invariant (the writer never adds k=2), so any deviation means a query
// planned against a half-built index — the atomic-publish violation this
// layer exists to prevent. Run under -race this also proves the statement
// path itself is data-race-free.
func TestConcurrentReadersSeeAtomicPublish(t *testing.T) {
	const (
		readers   = 6
		readsEach = 80
		marked    = 37
		writes    = 300
	)
	db := newPopulatedDB(t, 400, marked)
	sm := New(db, Options{Seed: 7})
	sm.catchupBatch = 16

	var wg sync.WaitGroup
	errCh := make(chan error, readers*readsEach+writes+1)

	stop := make(chan struct{})
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < readsEach; i++ {
				res, err := sm.Exec("SELECT COUNT(*) FROM items WHERE k = 2")
				if err != nil {
					errCh <- err
					return
				}
				if got := res.Rows[0][0].Int; got != marked {
					errCh <- fmt.Errorf("reader saw %d k=2 rows, want %d: half-built index visible", got, marked)
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < writes; i++ {
			select {
			case <-stop:
				return
			default:
			}
			_, err := sm.Exec(fmt.Sprintf("INSERT INTO items (id, k, v) VALUES (%d, 1, %d)", 1000+i, i))
			if err != nil {
				errCh <- err
				return
			}
		}
	}()

	rep, err := sm.BuildIndexOnline(context.Background(), engine.IndexBuildSpec{
		Name: "idx_items_k", Table: "items", Columns: []string{"k"},
	})
	close(stop)
	wg.Wait()
	close(errCh)
	for e := range errCh {
		t.Error(e)
	}
	if err != nil {
		t.Fatalf("online build failed: %v", err)
	}
	if rep.State != BuildPublished {
		t.Fatalf("build state = %v, want published", rep.State)
	}
	if db.Catalog().Index("idx_items_k") == nil {
		t.Fatal("published index missing from catalog")
	}
	if changeLogAttached(t, db) {
		t.Error("change log still attached after publish")
	}

	// The published index must be complete: an indexed count equals the
	// invariant, and total row accounting matches tree size.
	res, err := sm.Exec("SELECT COUNT(*) FROM items WHERE k = 2")
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Rows[0][0].Int; got != marked {
		t.Fatalf("post-publish count = %d, want %d", got, marked)
	}
	total, err := sm.Exec("SELECT COUNT(*) FROM items")
	if err != nil {
		t.Fatal(err)
	}
	var treeLen int64
	for _, tree := range db.IndexTrees("idx_items_k") {
		treeLen += tree.Len()
	}
	if treeLen != total.Rows[0][0].Int {
		t.Fatalf("index has %d entries for %d rows: catchup lost writes", treeLen, total.Rows[0][0].Int)
	}
	if sm.MaxConcurrentReaders() < 2 {
		t.Logf("note: reader overlap high-water = %d (timing-dependent)", sm.MaxConcurrentReaders())
	}
}

// TestConcurrentReadersAndWritersUnderRace hammers the statement path from
// many goroutines with no build at all: the per-statement counter refactor
// must keep readers race-free against each other and against the writer.
func TestConcurrentReadersAndWritersUnderRace(t *testing.T) {
	db := newPopulatedDB(t, 200, 50)
	if _, err := db.Exec("CREATE INDEX idx_v ON items (v)"); err != nil {
		t.Fatal(err)
	}
	sm := New(db, Options{Seed: 3})

	var wg sync.WaitGroup
	errCh := make(chan error, 1024)
	for r := 0; r < 8; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				sql := "SELECT COUNT(*) FROM items WHERE k = 2"
				if i%2 == 0 {
					sql = fmt.Sprintf("SELECT id FROM items WHERE v = %d", (i*7)%600)
				}
				if _, err := sm.Exec(sql); err != nil {
					errCh <- err
					return
				}
			}
		}(r)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 60; i++ {
			stmts := []string{
				fmt.Sprintf("INSERT INTO items (id, k, v) VALUES (%d, 1, %d)", 5000+i, i),
				fmt.Sprintf("UPDATE items SET v = %d WHERE id = %d", i, i%200),
				fmt.Sprintf("DELETE FROM items WHERE id = %d", 5000+i),
			}
			if _, err := sm.Exec(stmts[i%3]); err != nil {
				errCh <- err
				return
			}
		}
	}()
	wg.Wait()
	close(errCh)
	for e := range errCh {
		t.Error(e)
	}
	if db.StatementCount() == 0 {
		t.Fatal("no statements recorded")
	}
}
