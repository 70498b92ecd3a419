package session

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"testing"

	"repro/internal/btree"
	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/sqltypes"
)

// opStream is a deterministic insert/update/delete sequence. Applying the
// same prefix to two databases leaves byte-identical heaps, so index
// fingerprints are directly comparable.
func opStream(n int) []string {
	ops := make([]string, 0, n)
	nextID := 10000
	for i := 0; i < n; i++ {
		switch i % 5 {
		case 0, 1, 2:
			ops = append(ops, fmt.Sprintf("INSERT INTO items (id, k, v) VALUES (%d, %d, %d)", nextID, i%9, i*11))
			nextID++
		case 3:
			ops = append(ops, fmt.Sprintf("UPDATE items SET k = %d WHERE id = %d", (i*3)%9, 10000+(i*7)%(nextID-10000)))
		default:
			ops = append(ops, fmt.Sprintf("DELETE FROM items WHERE id = %d", 10000+(i*13)%(nextID-10000)))
		}
	}
	return ops
}

// fingerprint serializes every (key, RID) entry of an index's trees in
// canonical (key, RID) order. An index is logically a multiset of such
// entries; bulk and incremental builds may interleave duplicate keys
// differently in the leaves (the tree has no RID tiebreaker), so entries
// are sorted before serialization. Identical logical content yields
// identical bytes regardless of build path.
func fingerprint(t *testing.T, db *engine.DB, index string) []byte {
	t.Helper()
	trees := db.IndexTrees(index)
	if len(trees) == 0 {
		t.Fatalf("index %q has no trees", index)
	}
	var b strings.Builder
	for ti, tree := range trees {
		fmt.Fprintf(&b, "tree %d len %d\n", ti, tree.Len())
		var entries []btree.Entry
		tree.ScanRange(nil, nil, true, true, func(e btree.Entry) bool {
			entries = append(entries, e)
			return true
		})
		sort.SliceStable(entries, func(i, j int) bool {
			if c := sqltypes.CompareKeys(entries[i].Key, entries[j].Key); c != 0 {
				return c < 0
			}
			if entries[i].RID.Page != entries[j].RID.Page {
				return entries[i].RID.Page < entries[j].RID.Page
			}
			return entries[i].RID.Slot < entries[j].RID.Slot
		})
		for _, e := range entries {
			for _, v := range e.Key {
				b.WriteString(v.String())
				b.WriteByte('|')
			}
			fmt.Fprintf(&b, "@%d:%d\n", e.RID.Page, e.RID.Slot)
		}
	}
	return []byte(b.String())
}

// TestCatchupReplayMatchesStopTheWorldBuild is the linearizability check:
// run the same 500-op write sequence against two databases. A applies all
// ops, then builds the index stop-the-world. B applies 200 ops, snapshots,
// then applies the remaining 300 ops (which land in the change log) while
// the build bulk-builds and replays to the watermark. The published index
// must fingerprint byte-identical to the stop-the-world build.
func TestCatchupReplayMatchesStopTheWorldBuild(t *testing.T) {
	ops := opStream(500)

	dbA := newPopulatedDB(t, 50, 10)
	for _, op := range ops {
		if _, err := dbA.Exec(op); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := dbA.Exec("CREATE INDEX idx_k ON items (k)"); err != nil {
		t.Fatal(err)
	}

	dbB := newPopulatedDB(t, 50, 10)
	for _, op := range ops[:200] {
		if _, err := dbB.Exec(op); err != nil {
			t.Fatal(err)
		}
	}
	b, err := dbB.NewIndexBuild(engine.IndexBuildSpec{Name: "idx_k", Table: "items", Columns: []string{"k"}})
	if err != nil {
		t.Fatal(err)
	}
	// Single-threaded driving of the protocol phases: no session locks
	// needed, the interleaving is explicit.
	if err := b.StartLogging(); err != nil {
		t.Fatal(err)
	}
	if err := b.Snapshot(); err != nil {
		t.Fatal(err)
	}
	for _, op := range ops[200:350] {
		if _, err := dbB.Exec(op); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Build(); err != nil {
		t.Fatal(err)
	}
	// Partial catchup in small batches, with more writes landing between
	// rounds — the watermark must track exactly.
	if _, _, err := b.Catchup(32); err != nil {
		t.Fatal(err)
	}
	for _, op := range ops[350:] {
		if _, err := dbB.Exec(op); err != nil {
			t.Fatal(err)
		}
	}
	for {
		applied, remaining, err := b.Catchup(64)
		if err != nil {
			t.Fatal(err)
		}
		if applied == 0 && remaining == 0 {
			break
		}
	}
	if err := b.Publish(); err != nil {
		t.Fatal(err)
	}
	if b.CatchupRows() == 0 {
		t.Fatal("no catchup rows replayed — the test lost its point")
	}

	fpA, fpB := fingerprint(t, dbA, "idx_k"), fingerprint(t, dbB, "idx_k")
	if !bytes.Equal(fpA, fpB) {
		t.Fatalf("catchup-replayed index differs from stop-the-world build:\n--- stop-the-world ---\n%s\n--- online ---\n%s",
			truncate(fpA), truncate(fpB))
	}
}

// TestCatchupCopiesEachLogEntryOnce pins catch-up's cost to the log's
// length: replaying N logged writes in batches of 8 copies each entry out of
// the log once, so four times the writes allocate about four times the bytes
// (copying the unreplayed tail on every batch would allocate sixteen times).
// The writes go to another table, so the replay itself touches no tree and
// the log handling is all that is measured.
func TestCatchupCopiesEachLogEntryOnce(t *testing.T) {
	catchupBytes := func(n int) uint64 {
		db := newPopulatedDB(t, 10, 2)
		if _, err := db.Exec("CREATE TABLE other (id BIGINT, PRIMARY KEY (id))"); err != nil {
			t.Fatal(err)
		}
		b, err := db.NewIndexBuild(engine.IndexBuildSpec{Name: "idx_k", Table: "items", Columns: []string{"k"}})
		if err != nil {
			t.Fatal(err)
		}
		for _, step := range []func() error{b.StartLogging, b.Snapshot, b.Build} {
			if err := step(); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < n; i++ {
			if _, err := db.Exec(fmt.Sprintf("INSERT INTO other (id) VALUES (%d)", i)); err != nil {
				t.Fatal(err)
			}
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for {
			applied, remaining, err := b.Catchup(8)
			if err != nil {
				t.Fatal(err)
			}
			if applied == 0 && remaining == 0 {
				break
			}
		}
		runtime.ReadMemStats(&after)
		if got := b.LastSync(); got != uint64(n) {
			t.Fatalf("watermark = %d after replaying %d writes", got, n)
		}
		if err := b.Publish(); err != nil {
			t.Fatal(err)
		}
		return after.TotalAlloc - before.TotalAlloc
	}
	small, large := catchupBytes(1000), catchupBytes(4000)
	if large > 6*small {
		t.Fatalf("catch-up allocation is not linear in the log: %d bytes for 1000 writes, %d for 4000", small, large)
	}
}

func truncate(b []byte) string {
	if len(b) > 2000 {
		return string(b[:2000]) + "…"
	}
	return string(b)
}

// TestOnlineBuildEquivalenceThroughSessions repeats the equivalence check
// through the full session manager under concurrent writes: whatever
// interleaving the scheduler picks, the published index must equal a
// stop-the-world build over the final table contents.
func TestOnlineBuildEquivalenceThroughSessions(t *testing.T) {
	db := newPopulatedDB(t, 300, 60)
	sm := New(db, Options{Seed: 11})
	sm.catchupBatch = 8

	done := make(chan error, 1)
	go func() {
		for i := 0; i < 250; i++ {
			if _, err := sm.Exec(fmt.Sprintf("INSERT INTO items (id, k, v) VALUES (%d, %d, %d)", 2000+i, i%5, i)); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	rep, err := sm.BuildIndexOnline(context.Background(), engine.IndexBuildSpec{
		Name: "idx_online", Table: "items", Columns: []string{"k"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if werr := <-done; werr != nil {
		t.Fatal(werr)
	}
	if rep.State != BuildPublished {
		t.Fatalf("state %v", rep.State)
	}
	// Reference: stop-the-world build over the same (now quiescent) table.
	if _, err := db.Exec("CREATE INDEX idx_ref ON items (k)"); err != nil {
		t.Fatal(err)
	}
	fpOnline, fpRef := fingerprint(t, db, "idx_online"), fingerprint(t, db, "idx_ref")
	if !bytes.Equal(fpOnline, fpRef) {
		t.Fatal("online-built index differs from stop-the-world rebuild of the same data")
	}
}

// buildStates records monitor callbacks (not concurrency-safe on purpose:
// monitor calls arrive from the single build goroutine).
type buildStates struct {
	seq []BuildState
}

func (b *buildStates) BuildStateChanged(index string, s BuildState) {
	if b == nil {
		return
	}
	b.seq = append(b.seq, s)
}

// TestChaosBuildKilledMidCatchupRollsBack arms a hard (non-retryable) fault
// at the catchup site and asserts the clean-rollback contract: the build
// fails with a permanent code, the catalog and index set are untouched, the
// change log detaches, and foreground statements keep working. Disarming
// the injector and retrying succeeds.
func TestChaosBuildKilledMidCatchupRollsBack(t *testing.T) {
	reg := obs.NewRegistry()
	db := newPopulatedDB(t, 200, 40)
	db.SetFaultInjector(fault.New(1, fault.Rule{Site: fault.SiteBuildCatchup, Kind: fault.KindIO, Nth: 1}))
	mon := &buildStates{}
	sm := New(db, Options{Seed: 5, Registry: reg})

	rep, err := sm.BuildIndexOnlineMonitored(context.Background(), engine.IndexBuildSpec{
		Name: "idx_chaos", Table: "items", Columns: []string{"k"},
	}, mon)
	if err == nil {
		t.Fatal("build must fail under an armed hard fault")
	}
	if rep.State != BuildFailed {
		t.Fatalf("state = %v, want failed", rep.State)
	}
	if rep.Code != CodePermanent {
		t.Fatalf("hard fault must map to a permanent code, got %v", rep.Code)
	}
	if rep.Retries != 0 {
		t.Fatalf("permanent failures must not retry, got %d retries", rep.Retries)
	}
	if db.Catalog().Index("idx_chaos") != nil {
		t.Fatal("failed build leaked a catalog entry")
	}
	if len(db.IndexTrees("idx_chaos")) != 0 {
		t.Fatal("failed build leaked trees")
	}
	if db.AttachedChangeLog() != nil {
		t.Fatal("failed build left the change log attached")
	}
	if got := mon.seq[len(mon.seq)-1]; got != BuildFailed {
		t.Fatalf("monitor's last state = %v, want failed", got)
	}
	if got := reg.Counter("session_build_failures_total", "").Value(); got != 1 {
		t.Errorf("session_build_failures_total = %d, want 1", got)
	}

	// Foreground traffic is unharmed.
	if _, err := sm.Exec("INSERT INTO items (id, k, v) VALUES (900, 2, 0)"); err != nil {
		t.Fatal(err)
	}
	if _, err := sm.Exec("SELECT COUNT(*) FROM items"); err != nil {
		t.Fatal(err)
	}

	// Disarmed, the same build succeeds.
	db.SetFaultInjector(nil)
	rep, err = sm.BuildIndexOnline(context.Background(), engine.IndexBuildSpec{
		Name: "idx_chaos", Table: "items", Columns: []string{"k"},
	})
	if err != nil || rep.State != BuildPublished {
		t.Fatalf("disarmed rebuild: %v (state %v)", err, rep.State)
	}
}

// TestChaosTransientFaultRetriesAndSucceeds arms a retryable fault on the
// first catchup call: the build must record one seeded retry and publish.
func TestChaosTransientFaultRetriesAndSucceeds(t *testing.T) {
	reg := obs.NewRegistry()
	db := newPopulatedDB(t, 150, 30)
	db.SetFaultInjector(fault.New(1, fault.Rule{Site: fault.SiteBuildCatchup, Kind: fault.KindTransient, Nth: 1}))
	sm := New(db, Options{Seed: 5, Registry: reg})

	rep, err := sm.BuildIndexOnline(context.Background(), engine.IndexBuildSpec{
		Name: "idx_retry", Table: "items", Columns: []string{"k"},
	})
	if err != nil {
		t.Fatalf("transient fault must be retried away: %v", err)
	}
	if rep.State != BuildPublished || rep.Code != CodeOK {
		t.Fatalf("state %v code %v", rep.State, rep.Code)
	}
	if rep.Retries != 1 {
		t.Fatalf("retries = %d, want 1", rep.Retries)
	}
	if got := reg.Counter("session_build_retries_total", "").Value(); got != 1 {
		t.Errorf("session_build_retries_total = %d, want 1", got)
	}
	if db.Catalog().Index("idx_retry") == nil {
		t.Fatal("retried build did not publish")
	}
}

// TestChaosBuildFaultDuringConcurrentTraffic (chaos + race): a mid-catchup
// kill under live concurrent traffic must not disturb a single foreground
// statement.
func TestChaosBuildFaultDuringConcurrentTraffic(t *testing.T) {
	db := newPopulatedDB(t, 200, 40)
	db.SetFaultInjector(fault.New(1, fault.Rule{Site: fault.SiteBuildCatchup, Kind: fault.KindIO, Nth: 1}))
	sm := New(db, Options{Seed: 9})
	sm.catchupBatch = 4

	done := make(chan error, 4)
	for g := 0; g < 3; g++ {
		go func(g int) {
			for i := 0; i < 40; i++ {
				if _, err := sm.Exec("SELECT COUNT(*) FROM items WHERE k = 2"); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}(g)
	}
	go func() {
		for i := 0; i < 40; i++ {
			if _, err := sm.Exec(fmt.Sprintf("INSERT INTO items (id, k, v) VALUES (%d, 1, 0)", 3000+i)); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()

	_, buildErr := sm.BuildIndexOnline(context.Background(), engine.IndexBuildSpec{
		Name: "idx_chaos2", Table: "items", Columns: []string{"k"},
	})
	if buildErr == nil {
		t.Fatal("expected injected build failure")
	}
	for i := 0; i < 4; i++ {
		if err := <-done; err != nil {
			t.Errorf("foreground statement failed during chaos build: %v", err)
		}
	}
	if db.Catalog().Index("idx_chaos2") != nil {
		t.Fatal("failed build leaked a catalog entry")
	}
}

// TestBuildValidationErrors covers the permanent-error paths that fail
// before any phase runs.
func TestBuildValidationErrors(t *testing.T) {
	db := newPopulatedDB(t, 10, 2)
	sm := New(db, Options{Seed: 1})
	cases := []engine.IndexBuildSpec{
		{Name: "x", Table: "nope", Columns: []string{"k"}},
		{Name: "x", Table: "items", Columns: []string{"ghost"}},
		{Name: "pk_items", Table: "items", Columns: []string{"k"}}, // exists
		{Name: "x", Table: "items", Columns: []string{"k"}, Local: true},
	}
	for _, spec := range cases {
		rep, err := sm.BuildIndexOnline(context.Background(), spec)
		if err == nil {
			t.Errorf("spec %+v: expected error", spec)
			continue
		}
		if rep.Code.Temporary() {
			t.Errorf("spec %+v: validation errors are permanent, got code %v", spec, rep.Code)
		}
		if db.AttachedChangeLog() != nil {
			t.Fatalf("spec %+v: change log leaked", spec)
		}
	}
}

// TestIndexBuildSnapshotSharedKeysUnderConcurrentWriters (race): snapshotted
// keys of one heap page share a backing array that the published trees keep.
// Writers that update key columns and delete rows run beside five successive
// builds; every build, judged on the final table, must equal a stop-the-world
// build, and the race detector must see no writer touch a key the trees read.
func TestIndexBuildSnapshotSharedKeysUnderConcurrentWriters(t *testing.T) {
	db := newPopulatedDB(t, 600, 120)
	sm := New(db, Options{Seed: 15})
	sm.catchupBatch = 16

	done := make(chan error, 2)
	for w := 0; w < 2; w++ {
		go func(w int) {
			for i := 0; i < 200; i++ {
				id := (i*37 + w*300) % 600
				sql := fmt.Sprintf("UPDATE items SET k = %d, v = %d WHERE id = %d", i%7, i, id)
				if i%4 == 3 {
					sql = fmt.Sprintf("DELETE FROM items WHERE id = %d", id)
				}
				if _, err := sm.Exec(sql); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}(w)
	}
	for n := 0; n < 5; n++ {
		if _, err := sm.BuildIndexOnline(context.Background(), engine.IndexBuildSpec{
			Name: fmt.Sprintf("idx_online_%d", n), Table: "items", Columns: []string{"k", "v"},
		}); err != nil {
			t.Fatal(err)
		}
		if _, err := sm.Exec("SELECT COUNT(*) FROM items WHERE k = 2 AND v > 10"); err != nil {
			t.Fatal(err)
		}
	}
	for w := 0; w < 2; w++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if _, err := db.Exec("CREATE INDEX idx_ref ON items (k, v)"); err != nil {
		t.Fatal(err)
	}
	ref := fingerprint(t, db, "idx_ref")
	for n := 0; n < 5; n++ {
		if !bytes.Equal(fingerprint(t, db, fmt.Sprintf("idx_online_%d", n)), ref) {
			t.Fatalf("online build %d differs from a stop-the-world build of the same data", n)
		}
	}
}
