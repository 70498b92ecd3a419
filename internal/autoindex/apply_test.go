package autoindex

import (
	"context"
	"reflect"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/session"
)

func TestApplyEmptyRecommendationIsNoOp(t *testing.T) {
	db, _ := readHeavyDB(t)
	m := New(db, Options{MCTS: mctsFast()})
	rep, err := m.Apply(context.Background(), &Recommendation{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Created) != 0 || len(rep.Dropped) != 0 || rep.RolledBack {
		t.Errorf("empty recommendation should change nothing: %+v", rep)
	}
	if len(m.Outcomes()) != 0 {
		t.Error("a no-op apply must not open a ledger record")
	}
}

func TestApplyDropNonexistentIndexFailsCleanly(t *testing.T) {
	db, _ := readHeavyDB(t)
	m := New(db, Options{MCTS: mctsFast()})
	rep, err := m.ApplyDrops(context.Background(), []string{"no_such_index"})
	if err == nil {
		t.Fatal("dropping a nonexistent index should fail")
	}
	if !rep.RolledBack {
		t.Error("failure should mark the report rolled back")
	}
	outs := m.Outcomes()
	if len(outs) != 1 || !outs[0].Failed || outs[0].Error == "" {
		t.Errorf("failed apply should land in the ledger: %+v", outs)
	}
}

// Regression: ApplyDrops used to return mid-loop on the first failing drop,
// leaving every earlier drop committed but unrecorded. It now rolls the
// earlier drops back.
func TestApplyDropsPartialFailureRestoresEarlierDrops(t *testing.T) {
	db, _ := readHeavyDB(t)
	if _, err := db.Exec("CREATE INDEX idx_kind ON ev (kind)"); err != nil {
		t.Fatal(err)
	}
	m := New(db, Options{MCTS: mctsFast()})
	rep, err := m.ApplyDrops(context.Background(), []string{"idx_kind", "no_such_index"})
	if err == nil {
		t.Fatal("second drop should fail")
	}
	if !rep.RolledBack || rep.RollbackErr != nil {
		t.Fatalf("rollback should run and succeed: %+v", rep)
	}
	meta := db.Catalog().Index("idx_kind")
	if meta == nil {
		t.Fatal("the first drop must be rolled back (index rebuilt)")
	}
	if len(meta.Columns) != 1 || meta.Columns[0] != "kind" {
		t.Errorf("rebuilt index lost its columns: %v", meta.Columns)
	}
}

func TestApplySkipsIndexCreatedConcurrently(t *testing.T) {
	db, _ := readHeavyDB(t)
	m := New(db, Options{MCTS: mctsFast()})
	// A "concurrent" manual CREATE INDEX under the name Apply would pick.
	if _, err := db.Exec("CREATE INDEX ai_ev_user_id ON ev (user_id)"); err != nil {
		t.Fatal(err)
	}
	rec := &Recommendation{Create: []*catalog.IndexMeta{
		{Table: "ev", Columns: []string{"user_id"}},
	}}
	rep, err := m.Apply(context.Background(), rec)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Created) != 0 {
		t.Errorf("colliding create should be skipped, not re-run: %v", rep.Created)
	}
}

func TestApplyCancelledContextRollsBack(t *testing.T) {
	db, _ := readHeavyDB(t)
	m := New(db, Options{MCTS: mctsFast()})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rec := &Recommendation{Create: []*catalog.IndexMeta{
		{Table: "ev", Columns: []string{"user_id"}},
	}}
	rep, err := m.Apply(ctx, rec)
	if err != context.Canceled {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if len(rep.Created) != 0 || db.Catalog().Index("ai_ev_user_id") != nil {
		t.Error("nothing may be built under a cancelled context")
	}
}

func TestRecommendDeadlineReturnsDegradedNoChange(t *testing.T) {
	db, reads := readHeavyDB(t)
	m := New(db, Options{MCTS: mctsFast(), RoundTimeout: time.Nanosecond})
	for _, sql := range reads {
		if err := m.Observe(sql); err != nil {
			t.Fatal(err)
		}
	}
	start := time.Now()
	rec, err := m.Recommend(context.Background())
	if err != nil {
		t.Fatalf("an expired deadline degrades the round, it does not fail it: %v", err)
	}
	if !rec.Degraded {
		t.Error("a 1ns round must be degraded")
	}
	if len(rec.Create) != 0 || len(rec.Drop) != 0 {
		t.Errorf("no best-so-far exists before the root evaluation: %+v", rec)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("degraded round took %v, should return promptly", elapsed)
	}
}

func TestTuneUnderDeadlineAppliesNothingButSucceeds(t *testing.T) {
	db, reads := readHeavyDB(t)
	m := New(db, Options{MCTS: mctsFast(), RoundTimeout: time.Nanosecond})
	for _, sql := range reads {
		if err := m.Observe(sql); err != nil {
			t.Fatal(err)
		}
	}
	before := len(db.Catalog().Indexes(false))
	rec, err := m.Tune(context.Background(), true)
	if err != nil {
		t.Fatalf("Tune under deadline should degrade, not error: %v", err)
	}
	if !rec.Degraded {
		t.Error("degraded flag should survive through Tune")
	}
	if after := len(db.Catalog().Indexes(false)); after != before {
		t.Errorf("degraded no-change round must not alter indexes: %d -> %d", before, after)
	}
}

func TestRecommendWithoutTimeoutIsNotDegraded(t *testing.T) {
	db, reads := readHeavyDB(t)
	m := New(db, Options{MCTS: mctsFast()})
	for _, sql := range reads {
		if err := m.Observe(sql); err != nil {
			t.Fatal(err)
		}
	}
	rec, err := m.Recommend(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rec.Degraded {
		t.Error("unbounded rounds must never be degraded")
	}
}

// buildStatesOf returns, per online_build span the tracer recorded, the
// build-state sequence its monitor reported.
func buildStatesOf(tracer *obs.Tracer) (states [][]string, retries []any) {
	for _, span := range tracer.Recent() {
		if span.Name != "online_build" {
			continue
		}
		var seq []string
		for _, ev := range span.Events {
			if ev.Name == "build_state" {
				seq = append(seq, ev.Attrs["state"].(string))
			}
		}
		states = append(states, seq)
		retries = append(retries, span.Attrs["retries"])
	}
	return states, retries
}

// A rollback rebuild is a build like any other: the dropped index comes back
// through snapshot → bulk → catchup → published (its scan runs under the
// reader lock, never the exclusive one), and a transient fault in that scan
// is retried once, by the session layer alone — apply adds no second loop
// around it.
func TestRollbackRebuildIsAnOnlineBuild(t *testing.T) {
	for _, tc := range []struct {
		name    string
		faulted bool
		want    []string
	}{
		{"clean", false, []string{"snapshot", "bulk", "catchup", "published"}},
		{"transient_scan_fault", true, []string{"snapshot", "snapshot", "bulk", "catchup", "published"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			db, _ := readHeavyDB(t)
			if _, err := db.Exec("CREATE INDEX idx_kind ON ev (kind)"); err != nil {
				t.Fatal(err)
			}
			reg, tracer := obs.NewRegistry(), obs.NewTracer(nil)
			m := New(db, Options{MCTS: mctsFast()})
			m.UseSessions(session.New(db, session.Options{Seed: 1, Registry: reg}))
			m.Instrument(nil, tracer)
			if tc.faulted {
				// No page is read before the rebuild's scan: the 5th read is
				// inside it.
				db.SetFaultInjector(fault.New(1, fault.Rule{Site: fault.SitePageRead, Kind: fault.KindTransient, Nth: 5}))
			}

			rep, err := m.ApplyDrops(context.Background(), []string{"idx_kind", "no_such_index"})
			if err == nil {
				t.Fatal("second drop should fail")
			}
			if !rep.RolledBack || rep.RollbackErr != nil {
				t.Fatalf("rollback should run and succeed: %+v", rep)
			}
			if db.Catalog().Index("idx_kind") == nil {
				t.Fatal("the first drop must be rolled back (index rebuilt)")
			}
			if db.AttachedChangeLog() != nil {
				t.Fatal("rebuild left its change log attached")
			}

			states, retries := buildStatesOf(tracer)
			if len(states) != 1 {
				t.Fatalf("want exactly one build (the rebuild), got %v", states)
			}
			if !reflect.DeepEqual(states[0], tc.want) {
				t.Errorf("rebuild states = %v, want %v", states[0], tc.want)
			}
			wantRetries := 0
			if tc.faulted {
				wantRetries = 1
			}
			if retries[0] != wantRetries {
				t.Errorf("rebuild retries = %v, want %d", retries[0], wantRetries)
			}
			if got := reg.Counter("session_builds_total", "").Value(); got != 1 {
				t.Errorf("session_builds_total = %d, want 1", got)
			}
			if got := reg.Counter("session_build_retries_total", "").Value(); got != int64(wantRetries) {
				t.Errorf("session_build_retries_total = %d, want %d", got, wantRetries)
			}
		})
	}
}
