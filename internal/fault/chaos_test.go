// Chaos harness: full tuning rounds under seeded fault schedules. The
// invariant under test is the transactional-apply contract — after every
// round, the live index set matches exactly the pre-apply or the post-apply
// configuration, never a half-applied mix — plus the ledger contract that a
// failed apply is recorded, not silently skipped.
package fault_test

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/autoindex"
	"repro/internal/catalog"
	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/mcts"
	"repro/internal/session"
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

// chaosDB builds a table with enough pages (4000 rows / 64 per page ≈ 63
// heap pages) that an Nth-page-read rule lands inside a CREATE INDEX scan,
// plus a manager that has observed a read-heavy workload.
func chaosDB(t testing.TB, seed int64) (*engine.DB, *autoindex.Manager) {
	t.Helper()
	db := engine.New()
	if _, err := db.Exec("CREATE TABLE ev (id BIGINT, user_id BIGINT, kind TEXT, score DOUBLE, PRIMARY KEY (id))"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4000; i++ {
		if _, err := db.Exec(fmt.Sprintf(
			"INSERT INTO ev (id, user_id, kind, score) VALUES (%d, %d, 'k%d', %d.0)",
			i, i%800, i%6, i%100)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.AnalyzeAll(); err != nil {
		t.Fatal(err)
	}
	m := autoindex.New(db, autoindex.Options{
		MCTS: mcts.Config{Iterations: 60, Rollouts: 2, Seed: seed, EarlyStopRounds: 20},
	})
	for i := 0; i < 300; i++ {
		sql := fmt.Sprintf("SELECT score FROM ev WHERE user_id = %d", i%800)
		if err := m.Observe(sql); err != nil {
			t.Fatal(err)
		}
		if _, err := db.Exec(sql); err != nil {
			t.Fatal(err)
		}
	}
	return db, m
}

func indexSet(db *engine.DB) []string {
	var names []string
	for _, m := range db.Catalog().Indexes(false) {
		names = append(names, m.Name)
	}
	sort.Strings(names)
	return names
}

func equalSets(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestChaosMidCreateFaultRollsBackExactly injects a hard IO fault inside the
// heap scan that builds a recommended index, across three seeded schedules.
// The apply must fail, roll back, restore the exact pre-apply index set, and
// land in the benefit ledger as a Failed outcome.
func TestChaosMidCreateFaultRollsBackExactly(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			db, m := chaosDB(t, seed)
			rec := &autoindex.Recommendation{Create: []*catalog.IndexMeta{
				{Table: "ev", Columns: []string{"user_id"}},
			}}
			before := indexSet(db)

			// Nth varies with the seed so the fault lands on a different page
			// of the create's heap scan in each schedule.
			in := fault.New(seed, fault.Rule{
				Site: fault.SitePageRead, Kind: fault.KindIO, Nth: 2 + 7*seed,
			})
			db.SetFaultInjector(in)

			rep, err := m.Apply(context.Background(), rec)
			if err == nil {
				t.Fatalf("apply should fail under the %d-th page-read fault", 2+7*seed)
			}
			if fault.AsFault(err) == nil {
				t.Fatalf("failure should unwrap to the injected fault: %v", err)
			}
			if !rep.RolledBack {
				t.Error("report should record the rollback")
			}
			if rep.RollbackErr != nil {
				t.Fatalf("single-shot schedule: rollback must succeed: %v", rep.RollbackErr)
			}
			if after := indexSet(db); !equalSets(before, after) {
				t.Errorf("index set changed across failed apply:\nbefore=%v\nafter =%v", before, after)
			}

			outs := m.Outcomes()
			if len(outs) == 0 {
				t.Fatal("failed apply must appear in the benefit ledger")
			}
			last := outs[len(outs)-1]
			if !last.Failed || !last.RolledBack || last.Error == "" {
				t.Errorf("ledger entry should be Failed+RolledBack with the error: %+v", last)
			}
			if !last.Complete {
				t.Error("failed outcomes are born complete (nothing to measure)")
			}

			// The engine must still answer queries after the chaos.
			if _, err := db.Exec("SELECT score FROM ev WHERE user_id = 17"); err != nil {
				t.Fatalf("engine broken after rollback: %v", err)
			}
		})
	}
}

// TestChaosDropRollbackRebuildsDroppedIndex drops a real index and then hits
// a fault during the subsequent create: the rollback must rebuild the
// dropped index from its recorded spec and remove the half-created one.
func TestChaosDropRollbackRebuildsDroppedIndex(t *testing.T) {
	db, m := chaosDB(t, 1)
	if _, err := db.Exec("CREATE INDEX idx_kind ON ev (kind)"); err != nil {
		t.Fatal(err)
	}
	before := indexSet(db)

	rec := &autoindex.Recommendation{
		Drop: []string{"idx_kind"},
		Create: []*catalog.IndexMeta{
			{Table: "ev", Columns: []string{"user_id"}},
		},
	}
	in := fault.New(1, fault.Rule{Site: fault.SitePageRead, Kind: fault.KindIO, Nth: 5})
	db.SetFaultInjector(in)

	rep, err := m.Apply(context.Background(), rec)
	if err == nil {
		t.Fatal("apply should fail during the create scan")
	}
	if !rep.RolledBack || rep.RollbackErr != nil {
		t.Fatalf("rollback should run and succeed: rolledBack=%v err=%v", rep.RolledBack, rep.RollbackErr)
	}
	if len(rep.Dropped) != 1 || rep.Dropped[0].Name != "idx_kind" {
		t.Fatalf("report should carry the dropped index's spec: %+v", rep.Dropped)
	}

	meta := db.Catalog().Index("idx_kind")
	if meta == nil {
		t.Fatal("rollback must rebuild the dropped index")
	}
	if len(meta.Columns) != 1 || meta.Columns[0] != "kind" {
		t.Errorf("rebuilt index lost its spec: %+v", meta.Columns)
	}
	if db.Catalog().Index("ai_ev_user_id") != nil {
		t.Error("the failed create must not survive")
	}
	if after := indexSet(db); !equalSets(before, after) {
		t.Errorf("index set changed across failed apply:\nbefore=%v\nafter =%v", before, after)
	}
	// The rebuilt index must be live, not just cataloged.
	if _, err := db.Exec("SELECT id FROM ev WHERE kind = 'k3'"); err != nil {
		t.Fatalf("query via rebuilt index failed: %v", err)
	}
}

// TestChaosApplyErrorsKeepTheirCause fails each of Apply's four steps — a
// drop, a create, a rollback drop and a rollback rebuild — and requires the
// error the caller gets to unwrap to the failure underneath. session.Classify
// and the retry loops read that chain: an error flattened on the way up
// turns an injected transient fault into a permanent one.
func TestChaosApplyErrorsKeepTheirCause(t *testing.T) {
	userID := &catalog.IndexMeta{Table: "ev", Columns: []string{"user_id"}}
	badColumn := &catalog.IndexMeta{Table: "ev", Columns: []string{"no_such_column"}}
	for _, tc := range []struct {
		name string
		rec  *autoindex.Recommendation
		// rule, when it names a site, is armed after setup.
		rule fault.Rule
		// dropMidApply drops ai_ev_user_id once it is published, as an
		// operator racing the apply would.
		dropMidApply bool
		// rollback selects the rollback's error instead of the apply's.
		rollback bool
		cause    string
	}{
		{name: "drop", rec: &autoindex.Recommendation{Drop: []string{"no_such_index"}},
			cause: "engine: unknown index"},
		{name: "create", rec: &autoindex.Recommendation{Create: []*catalog.IndexMeta{userID}},
			rule:  fault.Rule{Site: fault.SitePageRead, Kind: fault.KindIO, Nth: 2},
			cause: "fault: injected io error"},
		{name: "rollback_drop", rec: &autoindex.Recommendation{Create: []*catalog.IndexMeta{userID, badColumn}},
			dropMidApply: true, rollback: true, cause: "engine: unknown index"},
		// The create fails before reading a page, so the first page read is
		// the rollback's rebuild of idx_kind.
		{name: "rollback_rebuild", rec: &autoindex.Recommendation{Drop: []string{"idx_kind"}, Create: []*catalog.IndexMeta{badColumn}},
			rule:     fault.Rule{Site: fault.SitePageRead, Kind: fault.KindIO, Nth: 1},
			rollback: true, cause: "fault: injected io error"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			db, m := chaosDB(t, 1)
			if _, err := db.Exec("CREATE INDEX idx_kind ON ev (kind)"); err != nil {
				t.Fatal(err)
			}
			dropped := false
			ctx := stepCtx{context.Background(), func() {
				if tc.dropMidApply && !dropped && db.Catalog().Index("ai_ev_user_id") != nil {
					dropped = true
					if _, err := db.Exec("DROP INDEX ai_ev_user_id"); err != nil {
						t.Errorf("operator drop: %v", err)
					}
				}
			}}
			if tc.rule.Site != "" {
				db.SetFaultInjector(fault.New(1, tc.rule))
			}
			rep, err := m.Apply(ctx, tc.rec)
			if err == nil {
				t.Fatal("apply should fail")
			}
			if tc.dropMidApply && !dropped {
				t.Fatal("the operator drop never ran")
			}
			if tc.rollback {
				if err = rep.RollbackErr; err == nil {
					t.Fatal("rollback should fail")
				}
			}
			cause := err
			for u := errors.Unwrap(cause); u != nil; u = errors.Unwrap(cause) {
				cause = u
			}
			if !strings.HasPrefix(cause.Error(), tc.cause) {
				t.Errorf("%v\nunwraps to %q, want the %q underneath", err, cause, tc.cause)
			}
		})
	}
}

// TestChaosFullTuningRoundsInvariant runs the complete tuning round
// (recommend, then transactional apply) under mixed
// seeded schedules — transient page-write noise plus a hard Nth read fault —
// and asserts the all-or-nothing invariant for whatever outcome each
// schedule produces.
func TestChaosFullTuningRoundsInvariant(t *testing.T) {
	failures := 0
	for _, seed := range []int64{1, 2, 3} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			db, m := chaosDB(t, seed)
			before := indexSet(db)

			in := fault.New(seed,
				// Retryable write noise: apply's retry loop should absorb it.
				fault.Rule{Site: fault.SitePageWrite, Kind: fault.KindTransient, Probability: 0.05, Limit: 1},
				// One hard fault somewhere in the create's ~63-page scan.
				fault.Rule{Site: fault.SitePageRead, Kind: fault.KindIO, Nth: 11 * seed},
			)
			db.SetFaultInjector(in)

			rec, rep, err := m.Tune(context.Background())
			after := indexSet(db)
			if err != nil {
				failures++
				if rec == nil || rep == nil || !rep.RolledBack {
					t.Errorf("failed apply must return its recommendation and rolled-back report: rec=%v rep=%v", rec, rep)
				}
				// Failed round: the config must be exactly the pre-apply one.
				if !equalSets(before, after) {
					t.Errorf("failed round left a partial config:\nbefore=%v\nafter =%v", before, after)
				}
				outs := m.Outcomes()
				if len(outs) == 0 || !outs[len(outs)-1].Failed {
					t.Error("failed round missing from the benefit ledger")
				}
				return
			}
			// Successful round: every planned drop is gone and the set is the
			// post-apply config (no dangling half-creates possible: creates
			// are recorded only after their statement commits).
			for _, name := range rec.Drop {
				if db.Catalog().Index(name) != nil {
					t.Errorf("dropped index %s still present", name)
				}
			}
			if _, err := db.Exec("SELECT score FROM ev WHERE user_id = 3"); err != nil {
				t.Fatalf("engine broken after round: %v", err)
			}
		})
	}
	if failures == 0 {
		t.Error("chaos schedules should fail at least one round's apply (Nth read faults land in the create scan)")
	}
}

// stepCtx runs step before every cancellation check made with it. An index
// build consults its context at exactly its interleaving points — before
// each catch-up batch and, once caught up, before taking the exclusive lock
// to publish — always with no session lock held, so step is where a test
// places a concurrent writer deterministically.
type stepCtx struct {
	context.Context
	step func()
}

func (c stepCtx) Err() error {
	c.step()
	return c.Context.Err()
}

// TestChaosBuildStateMachineEnumeration walks the one index-build state
// machine (snapshot → bulk → catch-up → publish) cell by cell instead of
// sampling seeds: fault kind × fault site × position of a concurrent writer.
// The page-read site is armed at every page of the snapshot scan in turn;
// btree.insert fires on the first replayed insert, which is in a catch-up
// batch when the writer ran before catch-up and in publish's final drain
// when it ran after; session.build_catchup fires on the first batch. Every
// cell must end exactly pre- or post-apply with the change log detached,
// one ledger entry, structurally valid trees that cover the heap, and index
// probes that answer like a scan.
func TestChaosBuildStateMachineEnumeration(t *testing.T) {
	const rows = 1280
	const (
		writerNone          = 0
		writerBeforeCatchup = 1 // the build's 1st check on a log: snapshot taken, nothing replayed
		writerBeforePublish = 2 // its 2nd check on an untouched log: caught up, about to publish
	)
	writes := []string{
		"UPDATE ev SET user_id = 7 WHERE id = 3",
		"UPDATE ev SET user_id = 7 WHERE id = 200",
		"UPDATE ev SET user_id = 9 WHERE id = 7",
		"DELETE FROM ev WHERE id = 167",
	}
	const probe = "SELECT id FROM ev WHERE user_id = 7 ORDER BY id"
	const oracle = "SELECT id FROM ev WHERE user_id + 0 = 7 ORDER BY id" // not sargable: always a scan

	newDB := func(t *testing.T) *engine.DB {
		db := engine.New()
		if _, err := db.Exec("CREATE TABLE ev (id BIGINT, user_id BIGINT, kind TEXT, score DOUBLE, PRIMARY KEY (id))"); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < rows; i++ {
			if _, err := db.Exec(fmt.Sprintf(
				"INSERT INTO ev (id, user_id, kind, score) VALUES (%d, %d, 'k%d', %d.0)",
				i, i%160, i%6, i%100)); err != nil {
				t.Fatal(err)
			}
		}
		if err := db.AnalyzeAll(); err != nil {
			t.Fatal(err)
		}
		return db
	}
	ids := func(t *testing.T, db *engine.DB, sql string) (string, string) {
		res, err := db.Exec(sql)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		return fmt.Sprint(res.Rows), res.PlanText()
	}

	type site struct {
		name string
		rule fault.Rule
	}
	var sites []site
	for k := int64(1); k <= newDB(t).Heap("ev").NumPages(); k++ {
		sites = append(sites, site{fmt.Sprintf("page_read_%02d", k), fault.Rule{Site: fault.SitePageRead, Nth: k}})
	}
	sites = append(sites,
		site{"btree_insert", fault.Rule{Site: fault.SiteBtreeInsert, Nth: 1}},
		site{"build_catchup", fault.Rule{Site: fault.SiteBuildCatchup, Nth: 1}},
	)
	if len(sites) < 12 {
		t.Fatalf("table too small for a multi-page snapshot scan: %d sites", len(sites))
	}

	for _, kind := range []fault.Kind{fault.KindIO, fault.KindTransient} {
		for _, s := range sites {
			for pos, posName := range []string{"no_writer", "writer_before_catchup", "writer_before_publish"} {
				kind, s, pos := kind, s, pos
				t.Run(fmt.Sprintf("%s/%s/%s", kind, s.name, posName), func(t *testing.T) {
					db := newDB(t)
					m := autoindex.New(db, autoindex.Options{})
					sm := session.New(db, session.Options{})
					m.UseSessions(sm)
					pre := indexSet(db)
					post := append(append([]string{}, pre...), "ai_ev_user_id")
					sort.Strings(post)
					before, _ := ids(t, db, probe)

					// A build attempt's log stays attached from its snapshot
					// to its publish or abort, and a retry is preceded by a
					// check made with no log attached: checks are counted
					// per attempt.
					inAttempt, checks, wrote := false, 0, false
					ctx := stepCtx{context.Background(), func() {
						if !changeLogAttached(t, db) {
							inAttempt = false
							return
						}
						if !inAttempt {
							inAttempt, checks = true, 0
						}
						if wrote || pos == writerNone {
							return
						}
						if checks++; checks != pos {
							return
						}
						wrote = true
						for _, sql := range writes {
							if _, err := sm.Exec(sql); err != nil {
								t.Errorf("foreground write failed during the build: %s: %v", sql, err)
							}
						}
					}}

					rule := s.rule
					rule.Kind = kind
					in := fault.New(1, rule)
					db.SetFaultInjector(in)
					_, err := m.Apply(ctx, &autoindex.Recommendation{Create: []*catalog.IndexMeta{
						{Table: "ev", Columns: []string{"user_id"}},
					}})
					db.SetFaultInjector(nil)

					// Only a replayed insert can hit btree.insert: without a
					// writer that cell is a clean build.
					wantFired := s.rule.Site != fault.SiteBtreeInsert || pos != writerNone
					if fired := in.Injected() > 0; fired != wantFired {
						t.Fatalf("fault fired = %v, want %v (the cell does not test what it names)", fired, wantFired)
					}
					wantFail := wantFired && kind == fault.KindIO
					if (err != nil) != wantFail {
						t.Fatalf("apply error = %v, want failure = %v", err, wantFail)
					}
					want := post
					if wantFail {
						want = pre
						if fault.AsFault(err) == nil {
							t.Errorf("failure should unwrap to the injected fault: %v", err)
						}
					} else if pos != writerNone && !wrote {
						t.Error("the writer never ran: the build skipped an interleaving point")
					}
					if got := indexSet(db); !equalSets(got, want) {
						t.Errorf("index set = %v, want exactly %v", got, want)
					}
					if changeLogAttached(t, db) {
						t.Error("change log still attached")
					}
					outs := m.Outcomes()
					if len(outs) != 1 || outs[0].Failed != wantFail {
						t.Errorf("ledger should hold one entry with Failed=%v: %+v", wantFail, outs)
					}

					for _, meta := range db.Catalog().Indexes(false) {
						var entries int64
						for _, tree := range db.IndexTrees(meta.Name) {
							if verr := tree.Validate(); verr != nil {
								t.Errorf("%s: %v", meta.Name, verr)
							}
							entries += tree.Len()
						}
						if tuples := db.Heap(meta.Table).NumTuples(); entries != tuples {
							t.Errorf("%s holds %d entries for %d heap tuples", meta.Name, entries, tuples)
						}
					}
					after, plan := ids(t, db, probe)
					if scanned, _ := ids(t, db, oracle); after != scanned {
						t.Errorf("probe and scan disagree:\nprobe: %s\nscan:  %s", after, scanned)
					}
					if !wrote && after != before {
						t.Errorf("answer changed across the apply with no writer:\nbefore: %s\nafter:  %s", before, after)
					}
					if !wantFail && !strings.Contains(plan, "ai_ev_user_id") {
						t.Errorf("post-apply probe does not use the new index:\n%s", plan)
					}
				})
			}
		}
	}
}
