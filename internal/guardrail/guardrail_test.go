package guardrail_test

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/autoindex"
	"repro/internal/catalog"
	"repro/internal/engine"
	"repro/internal/guardrail"
	"repro/internal/mcts"
	"repro/internal/obs"
	"repro/internal/session"
)

// guardDB builds a small read-heavy table with an obvious ev(user_id)
// index opportunity.
func guardDB(t testing.TB) *engine.DB {
	t.Helper()
	db := engine.New()
	if _, err := db.Exec("CREATE TABLE ev (id BIGINT, user_id BIGINT, score DOUBLE, PRIMARY KEY (id))"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		if _, err := db.Exec(fmt.Sprintf(
			"INSERT INTO ev (id, user_id, score) VALUES (%d, %d, %d.0)", i, i%200, i%100)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.AnalyzeAll(); err != nil {
		t.Fatal(err)
	}
	return db
}

// applyUserIDIndex pushes one fabricated recommendation through Apply so
// the ledger opens a record and the guardrail stages it.
func applyUserIDIndex(t testing.TB, m *autoindex.Manager) {
	t.Helper()
	rep, err := m.Apply(context.Background(), &autoindex.Recommendation{
		Create:           []*catalog.IndexMeta{{Table: "ev", Columns: []string{"user_id"}}},
		EstimatedBenefit: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Created) != 1 {
		t.Fatalf("expected 1 created index, got %v", rep.Created)
	}
}

// probe runs n point reads that the planner answers through ai_ev_user_id,
// moving its probe counter.
func probe(t testing.TB, db *engine.DB, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if _, err := db.Exec(fmt.Sprintf("SELECT score FROM ev WHERE user_id = %d", i%200)); err != nil {
			t.Fatal(err)
		}
	}
}

func TestHealthyIndexIsPromoted(t *testing.T) {
	db := guardDB(t)
	m := autoindex.New(db, autoindex.Options{})
	c := guardrail.Attach(m, guardrail.Config{Seed: 1, VerifyWindows: 2, RegressThreshold: 0.1})

	m.ObserveMeasuredCost(100) // pre-apply baseline window
	applyUserIDIndex(t, m)
	if got := m.OutcomeLifecycle(0); got != autoindex.LifecycleStaged {
		t.Fatalf("after apply: lifecycle = %v, want staged", got)
	}

	probe(t, db, 20)
	m.ObserveMeasuredCost(92)
	if got := m.OutcomeLifecycle(0); got != autoindex.LifecycleVerifying {
		t.Fatalf("after window 1: lifecycle = %v, want verifying", got)
	}
	m.ObserveMeasuredCost(94)
	if got := m.OutcomeLifecycle(0); got != autoindex.LifecyclePromoted {
		t.Fatalf("after window 2: lifecycle = %v, want promoted", got)
	}
	if db.Catalog().Index("ai_ev_user_id") == nil {
		t.Fatal("promoted index must survive")
	}
	if c.Tracked() != 0 || c.Reverts() != 0 {
		t.Fatalf("tracked=%d reverts=%d after promotion", c.Tracked(), c.Reverts())
	}
}

func TestRegressingIndexIsReverted(t *testing.T) {
	db := guardDB(t)
	m := autoindex.New(db, autoindex.Options{})
	c := guardrail.Attach(m, guardrail.Config{Seed: 1, VerifyWindows: 2, RegressThreshold: 0.1})

	m.ObserveMeasuredCost(100)
	applyUserIDIndex(t, m)
	probe(t, db, 20) // probed, so only the regression check can revert it

	m.ObserveMeasuredCost(150)
	m.ObserveMeasuredCost(160) // mean 155 > 100 * 1.1
	if got := m.OutcomeLifecycle(0); got != autoindex.LifecycleReverted {
		t.Fatalf("lifecycle = %v, want reverted", got)
	}
	if db.Catalog().Index("ai_ev_user_id") != nil {
		t.Fatal("regressing index must be dropped")
	}
	if c.Reverts() != 1 {
		t.Fatalf("reverts = %d, want 1", c.Reverts())
	}
	// The revert itself lands in the ledger as a drop-only entry, which is
	// not tracked (nothing to promote or revert about a drop).
	outs := m.Outcomes()
	if len(outs) != 2 {
		t.Fatalf("ledger entries = %d, want 2 (apply + revert)", len(outs))
	}
	if outs[1].Dropped != 1 || outs[1].Created != 0 {
		t.Fatalf("revert entry: created=%d dropped=%d", outs[1].Created, outs[1].Dropped)
	}
	if c.Tracked() != 0 {
		t.Fatalf("revert entry must not be tracked, tracked=%d", c.Tracked())
	}
}

func TestUnusedIndexIsReverted(t *testing.T) {
	db := guardDB(t)
	m := autoindex.New(db, autoindex.Options{})
	guardrail.Attach(m, guardrail.Config{Seed: 1, VerifyWindows: 2, RegressThreshold: 0.1})

	m.ObserveMeasuredCost(100)
	applyUserIDIndex(t, m)
	// No probes: costs look healthy but the index carries no query.
	m.ObserveMeasuredCost(95)
	m.ObserveMeasuredCost(95)
	if got := m.OutcomeLifecycle(0); got != autoindex.LifecycleReverted {
		t.Fatalf("lifecycle = %v, want reverted (unused)", got)
	}
	if db.Catalog().Index("ai_ev_user_id") != nil {
		t.Fatal("unused index must be dropped")
	}
}

// TestNaNBaselinePromotesWithoutRegressionSignal pins the no-baseline case:
// an apply before any measured window has CostBefore NaN, so regression is
// undetectable and a probed index promotes on the unused check alone.
func TestNaNBaselinePromotesWithoutRegressionSignal(t *testing.T) {
	db := guardDB(t)
	m := autoindex.New(db, autoindex.Options{})
	guardrail.Attach(m, guardrail.Config{Seed: 1, VerifyWindows: 2, RegressThreshold: 0.1})

	applyUserIDIndex(t, m) // no baseline window yet
	probe(t, db, 20)
	m.ObserveMeasuredCost(500)
	m.ObserveMeasuredCost(500)
	if got := m.OutcomeLifecycle(0); got != autoindex.LifecyclePromoted {
		t.Fatalf("lifecycle = %v, want promoted (NaN baseline disables regression check)", got)
	}
}

// TestFailedApplyIsNotTracked pins that failed (rolled-back) applies never
// enter the guardrail: there is no configuration change to verify.
func TestFailedApplyIsNotTracked(t *testing.T) {
	db := guardDB(t)
	m := autoindex.New(db, autoindex.Options{})
	c := guardrail.Attach(m, guardrail.Config{Seed: 1})

	if _, err := m.Apply(context.Background(), &autoindex.Recommendation{
		Create: []*catalog.IndexMeta{{Table: "no_such_table", Columns: []string{"x"}}},
	}); err == nil {
		t.Fatal("apply against a missing table must fail")
	}
	if c.Tracked() != 0 {
		t.Fatalf("failed apply tracked: %d", c.Tracked())
	}
	if got := m.OutcomeLifecycle(0); got != autoindex.LifecycleNone {
		t.Fatalf("failed outcome lifecycle = %v, want none", got)
	}
}

func TestRevertOutcomeRejectsUntrackedIndex(t *testing.T) {
	db := guardDB(t)
	m := autoindex.New(db, autoindex.Options{})
	c := guardrail.Attach(m, guardrail.Config{Seed: 1})
	if err := c.RevertOutcome(context.Background(), 0); err == nil {
		t.Fatal("reverting an untracked outcome must error")
	}
}

// TestGuardrailMetrics checks the guardrail_* instruments move with the
// lifecycle: staged, windows, verdicts, reverts, and the per-state gauges.
func TestGuardrailMetrics(t *testing.T) {
	db := guardDB(t)
	reg := obs.NewRegistry()
	db.SetMetrics(reg)
	m := autoindex.New(db, autoindex.Options{})
	guardrail.Attach(m, guardrail.Config{Seed: 1, VerifyWindows: 2, RegressThreshold: 0.1})

	m.ObserveMeasuredCost(100)
	applyUserIDIndex(t, m)
	m.ObserveMeasuredCost(150)
	m.ObserveMeasuredCost(160)

	if v := reg.Counter("guardrail_staged_total", "").Value(); v != 1 {
		t.Errorf("staged_total = %v, want 1", v)
	}
	if v := reg.Counter("guardrail_windows_observed_total", "").Value(); v != 2 {
		t.Errorf("windows_observed_total = %v, want 2", v)
	}
	if v := reg.Counter("guardrail_reverts_total", "").Value(); v != 1 {
		t.Errorf("reverts_total = %v, want 1", v)
	}
	if v := reg.CounterVec("guardrail_verdicts_total", "", "verdict").With("reverted").Value(); v != 1 {
		t.Errorf("verdicts_total{reverted} = %v, want 1", v)
	}
	if v := reg.GaugeVec("guardrail_state", "", "state").With("reverted").Value(); v != 1 {
		t.Errorf("state{reverted} = %v, want 1", v)
	}
	if v := reg.Gauge("guardrail_tracked", "").Value(); v != 0 {
		t.Errorf("tracked = %v, want 0", v)
	}
}

// TestLedgerSeesLifecycleTransitions reads the outcome's lifecycle off the
// ledger after each step: staged at apply, verifying between the two verify
// windows, promoted after the second.
func TestLedgerSeesLifecycleTransitions(t *testing.T) {
	db := guardDB(t)
	m := autoindex.New(db, autoindex.Options{})
	guardrail.Attach(m, guardrail.Config{Seed: 1, VerifyWindows: 2, RegressThreshold: 0.1})

	m.ObserveMeasuredCost(100)
	applyUserIDIndex(t, m)
	seen := []autoindex.LifecycleState{m.OutcomeLifecycle(0)}
	probe(t, db, 20)
	m.ObserveMeasuredCost(90)
	seen = append(seen, m.OutcomeLifecycle(0))
	m.ObserveMeasuredCost(90)
	seen = append(seen, m.OutcomeLifecycle(0))

	want := []autoindex.LifecycleState{
		autoindex.LifecycleStaged, autoindex.LifecycleVerifying, autoindex.LifecyclePromoted,
	}
	if fmt.Sprint(seen) != fmt.Sprint(want) {
		t.Fatalf("lifecycle = %v, want %v", seen, want)
	}
}

// TestEveryComponentReportsIntoTheDatabaseRegistry wires the stack the way a
// shipped binary does — the registry set on the database only — and checks
// that every layer built over it reports there: the engine, the session
// layer, the manager with its estimator and search, and the guardrail.
func TestEveryComponentReportsIntoTheDatabaseRegistry(t *testing.T) {
	db := guardDB(t)
	reg := obs.NewRegistry()
	db.SetMetrics(reg)
	sm := session.New(db, session.Options{Seed: 1})
	m := autoindex.New(db, autoindex.Options{MCTS: mcts.Config{Iterations: 50, Seed: 1}})
	m.UseSessions(sm)
	guardrail.Attach(m, guardrail.Config{Seed: 1})

	for i := 0; i < 200; i++ {
		sql := fmt.Sprintf("SELECT score FROM ev WHERE user_id = %d", i%200)
		if err := m.Observe(sql); err != nil {
			t.Fatal(err)
		}
		if _, err := sm.Exec(sql); err != nil {
			t.Fatal(err)
		}
	}
	m.ObserveMeasuredCost(100)
	rec, _, err := m.Tune(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Create) == 0 {
		t.Fatal("tune should create the user_id index, or the guardrail has nothing to stage")
	}
	m.ObserveMeasuredCost(50)

	families := map[string]bool{}
	for name := range reg.Snapshot() {
		families[strings.SplitN(name, "_", 2)[0]] = true
	}
	for _, want := range []string{"engine", "session", "autoindex", "mcts", "costmodel", "guardrail"} {
		if !families[want] {
			t.Errorf("no %s_* metric in the database's registry (families: %v)", want, families)
		}
	}
}
