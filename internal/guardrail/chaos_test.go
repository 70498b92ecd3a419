// Chaos harness for the guardrail: seeded fault schedules at the decide and
// revert sites. The invariant is revert atomicity — at every observable
// point the live index set is exactly the pre-revert or the post-revert
// configuration, never in between, even when the guardrail is killed
// mid-decision or the revert path faults — plus liveness: a dropped verdict
// or failed revert is re-derived from the same evidence at the next window.
package guardrail_test

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"testing"

	"repro/internal/autoindex"
	"repro/internal/catalog"
	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/guardrail"
	"repro/internal/obs"
	"repro/internal/session"
)

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

// TestChaosRevertTransientFaultRetriesToCompletion injects a transient
// fault on the first revert attempt: the seeded retry must absorb it and
// the revert must still complete within the same window.
func TestChaosRevertTransientFaultRetriesToCompletion(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			db := guardDB(t)
			m := autoindex.New(db, autoindex.Options{})
			in := fault.New(seed, fault.Rule{
				Site: fault.SiteGuardrailRevert, Kind: fault.KindTransient, Nth: 1,
			})
			c := guardrail.Attach(m, guardrail.Config{
				Seed: seed, VerifyWindows: 2, RegressThreshold: 0.1, Injector: in,
			})

			m.ObserveMeasuredCost(100)
			preApply := indexSet(db)
			applyUserIDIndex(t, m)
			m.ObserveMeasuredCost(150)
			m.ObserveMeasuredCost(160)

			if got := m.OutcomeLifecycle(0); got != autoindex.LifecycleReverted {
				t.Fatalf("lifecycle = %v, want reverted (transient fault must be retried)", got)
			}
			if after := indexSet(db); !equalSets(after, preApply) {
				t.Fatalf("index set %v, want pre-apply %v", after, preApply)
			}
			if c.Reverts() != 1 {
				t.Fatalf("reverts = %d, want 1", c.Reverts())
			}
		})
	}
}

// TestChaosRevertHardFaultLeavesExactlyPreRevert injects a hard IO fault on
// the first revert attempt: that window's revert fails, and the index set
// must be exactly the pre-revert configuration (the bad index fully
// present). The next window re-derives the verdict from the same evidence
// and completes the revert — then the set is exactly post-revert.
func TestChaosRevertHardFaultLeavesExactlyPreRevert(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			db := guardDB(t)
			reg := obs.NewRegistry()
			db.SetMetrics(reg)
			m := autoindex.New(db, autoindex.Options{})
			// A hard (non-transient) fault is not retried in-window, so the
			// first revert fails outright; the pure-Nth rule then never
			// fires again and the next window's revert goes through.
			in := fault.New(seed, fault.Rule{
				Site: fault.SiteGuardrailRevert, Kind: fault.KindIO, Nth: 1,
			})
			c := guardrail.Attach(m, guardrail.Config{
				Seed: seed, VerifyWindows: 2, RegressThreshold: 0.1,
				Injector: in,
			})

			m.ObserveMeasuredCost(100)
			applyUserIDIndex(t, m)
			preRevert := indexSet(db)
			m.ObserveMeasuredCost(150)
			m.ObserveMeasuredCost(160) // verdict: revert — but the revert faults

			if got := m.OutcomeLifecycle(0); got != autoindex.LifecycleVerifying {
				t.Fatalf("after failed revert: lifecycle = %v, want verifying", got)
			}
			if mid := indexSet(db); !equalSets(mid, preRevert) {
				t.Fatalf("after failed revert: index set %v, want exactly pre-revert %v", mid, preRevert)
			}
			if v := reg.Counter("guardrail_revert_failures_total", "").Value(); v != 1 {
				t.Fatalf("revert_failures_total = %v, want 1", v)
			}

			m.ObserveMeasuredCost(155) // verdict re-derived; rule exhausted
			if got := m.OutcomeLifecycle(0); got != autoindex.LifecycleReverted {
				t.Fatalf("after retry window: lifecycle = %v, want reverted", got)
			}
			if db.Catalog().Index("ai_ev_user_id") != nil {
				t.Fatal("index still present after completed revert")
			}
			if c.Reverts() != 1 {
				t.Fatalf("reverts = %d, want 1", c.Reverts())
			}
		})
	}
}

// TestChaosDecideFaultDropsVerdictNotState kills the guardrail between
// verdict and action: the decision is dropped, the tracked state must stay
// Verifying with the catalog untouched, and the next window must re-derive
// the same verdict deterministically and act on it.
func TestChaosDecideFaultDropsVerdictNotState(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			db := guardDB(t)
			reg := obs.NewRegistry()
			db.SetMetrics(reg)
			m := autoindex.New(db, autoindex.Options{})
			in := fault.New(seed, fault.Rule{
				Site: fault.SiteGuardrailDecide, Kind: fault.KindIO, Nth: 1,
			})
			guardrail.Attach(m, guardrail.Config{
				Seed: seed, VerifyWindows: 2, RegressThreshold: 0.1,
				Injector: in,
			})

			m.ObserveMeasuredCost(100)
			applyUserIDIndex(t, m)
			preRevert := indexSet(db)
			m.ObserveMeasuredCost(150)
			m.ObserveMeasuredCost(160) // verdict reached, then killed mid-decision

			if got := m.OutcomeLifecycle(0); got != autoindex.LifecycleVerifying {
				t.Fatalf("after decide fault: lifecycle = %v, want verifying", got)
			}
			if mid := indexSet(db); !equalSets(mid, preRevert) {
				t.Fatalf("after decide fault: index set %v, want %v", mid, preRevert)
			}
			if v := reg.Counter("guardrail_decide_faults_total", "").Value(); v != 1 {
				t.Fatalf("decide_faults_total = %v, want 1", v)
			}

			m.ObserveMeasuredCost(155)
			if got := m.OutcomeLifecycle(0); got != autoindex.LifecycleReverted {
				t.Fatalf("after re-derived verdict: lifecycle = %v, want reverted", got)
			}
			if db.Catalog().Index("ai_ev_user_id") != nil {
				t.Fatal("index still present after re-derived revert")
			}
		})
	}
}

// TestChaosRevertUnderConcurrentReaders drives the revert through the
// session layer's Exclusive seam while reader sessions hammer the table:
// no foreground read may fail, before, during, or after the revert, and
// the revert must still complete.
func TestChaosRevertUnderConcurrentReaders(t *testing.T) {
	db := guardDB(t)
	sm := session.New(db, session.Options{Seed: 7})
	m := autoindex.New(db, autoindex.Options{})
	m.UseSessions(sm)
	guardrail.Attach(m, guardrail.Config{Seed: 7, VerifyWindows: 2, RegressThreshold: 0.1})

	m.ObserveMeasuredCost(100)
	applyUserIDIndex(t, m)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var readerErr error
	var errOnce sync.Once
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := sm.Exec(fmt.Sprintf("SELECT score FROM ev WHERE user_id = %d", (w*31+i)%80)); err != nil {
					errOnce.Do(func() { readerErr = err })
					return
				}
			}
		}(w)
	}

	m.ObserveMeasuredCost(150)
	m.ObserveMeasuredCost(160)
	close(stop)
	wg.Wait()

	if readerErr != nil {
		t.Fatalf("foreground reader failed during revert: %v", readerErr)
	}
	if got := m.OutcomeLifecycle(0); got != autoindex.LifecycleReverted {
		t.Fatalf("lifecycle = %v, want reverted", got)
	}
	if db.Catalog().Index("ai_ev_user_id") != nil {
		t.Fatal("index still present after revert under live readers")
	}
}

// TestChaosRevertErrorsKeepTheirCause fails a revert two ways — a hard fault
// at the guardrail.revert site, and a revert whose all-or-nothing drop fails
// and whose rollback rebuild then faults — and requires RevertOutcome's error
// to unwrap to the injected fault. The retry loop reads that chain with
// fault.IsTransient: an error flattened on the way up is never retried.
func TestChaosRevertErrorsKeepTheirCause(t *testing.T) {
	for _, tc := range []struct {
		name string
		// columns are the indexes the staged outcome created; an operator
		// drops the last one before the revert when there are two.
		columns []string
		site    fault.Site
	}{
		{name: "revert_site", columns: []string{"user_id"}, site: fault.SiteGuardrailRevert},
		{name: "rollback_incomplete", columns: []string{"user_id", "score"}, site: fault.SitePageRead},
	} {
		t.Run(tc.name, func(t *testing.T) {
			db := guardDB(t)
			m := autoindex.New(db, autoindex.Options{})
			in := fault.New(1, fault.Rule{Site: tc.site, Kind: fault.KindIO, Nth: 1})
			c := guardrail.Attach(m, guardrail.Config{Seed: 1, VerifyWindows: 2, RegressThreshold: 0.1, Injector: in})

			rec := &autoindex.Recommendation{EstimatedBenefit: 5}
			for _, col := range tc.columns {
				rec.Create = append(rec.Create, &catalog.IndexMeta{Table: "ev", Columns: []string{col}})
			}
			rep, err := m.Apply(context.Background(), rec)
			if err != nil {
				t.Fatal(err)
			}
			if n := len(rep.Created); n > 1 {
				if _, err := db.Exec("DROP INDEX " + rep.Created[n-1]); err != nil {
					t.Fatal(err)
				}
			}
			db.SetFaultInjector(in)

			err = c.RevertOutcome(context.Background(), 0)
			if err == nil {
				t.Fatal("revert should fail")
			}
			if fe := fault.AsFault(err); fe == nil || fe.Site != tc.site {
				t.Errorf("%v\nshould unwrap to the fault injected at %s", err, tc.site)
			}
		})
	}
}
