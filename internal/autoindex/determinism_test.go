package autoindex

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/session"
)

// TestSameSeedRunsAreByteIdentical runs the full tuning round (observe,
// then Tune: candgen → MCTS → estimate → apply) from an
// identically built database with the same seed with the estimator's
// per-query cache on and off, and asserts every run is indistinguishable:
// same recommendation, same costs, same evaluation counts, and
// byte-identical StateReport.JSON(). This is the regression test behind the
// mapiterorder/seededrand analyzers and the what-if fast path: any
// map-iteration-order dependence, hidden clock or stale cache entry shows up
// here as a diff.
func TestSameSeedRunsAreByteIdentical(t *testing.T) {
	run := func(cacheDisabled bool) (*Recommendation, []byte) {
		db, reads := readHeavyDB(t)
		m := New(db, Options{MCTS: mctsFast()})
		m.Estimator().CacheDisabled = cacheDisabled
		for _, sql := range reads {
			if err := m.Observe(sql); err != nil {
				t.Fatal(err)
			}
		}
		rec, _, err := m.Tune(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		js, err := m.Report().JSON()
		if err != nil {
			t.Fatal(err)
		}
		return rec, js
	}

	variants := []struct {
		name          string
		cacheDisabled bool
	}{
		{"cached", false},
		{"uncached", true},
	}

	rec1, js1 := run(variants[0].cacheDisabled)
	for _, v := range variants {
		// Variant 0 reruns against itself: same-seed stability.
		rec2, js2 := run(v.cacheDisabled)
		if keys1, keys2 := recKeys(rec1), recKeys(rec2); keys1 != keys2 {
			t.Fatalf("%s: recommendations differ: %q vs %q", v.name, keys1, keys2)
		}
		if rec1.BaseCost != rec2.BaseCost || rec1.BestCost != rec2.BestCost {
			t.Fatalf("%s: costs differ: base %v vs %v, best %v vs %v",
				v.name, rec1.BaseCost, rec2.BaseCost, rec1.BestCost, rec2.BestCost)
		}
		if rec1.Evaluations != rec2.Evaluations {
			t.Fatalf("%s: evaluation counts differ: %d vs %d", v.name, rec1.Evaluations, rec2.Evaluations)
		}
		if !bytes.Equal(js1, js2) {
			t.Fatalf("%s: state reports are not byte-identical:\n--- baseline ---\n%s\n--- %s ---\n%s", v.name, js1, v.name, js2)
		}
	}

	// Observability must be read-only: rerunning the baseline variant with a
	// process-default metrics registry and tracer attached (picked up by
	// engine.New, and from the database by autoindex.New, exactly as
	// benchrunner -bench-out installs them) must still produce a
	// byte-identical StateReport.
	obs.SetDefaultRegistry(obs.NewRegistry())
	obs.SetDefaultTracer(obs.NewTracer(nil))
	defer func() {
		obs.SetDefaultRegistry(nil)
		obs.SetDefaultTracer(nil)
	}()
	recI, jsI := run(variants[0].cacheDisabled)
	if keys1, keysI := recKeys(rec1), recKeys(recI); keys1 != keysI {
		t.Fatalf("instrumented: recommendations differ: %q vs %q", keys1, keysI)
	}
	if !bytes.Equal(js1, jsI) {
		t.Fatalf("instrumented run is not byte-identical to the detached run:\n--- detached ---\n%s\n--- instrumented ---\n%s", js1, jsI)
	}
	if reg := obs.DefaultRegistry(); reg.Counter("engine_statements_total", "").Value() == 0 {
		t.Fatal("instrumented run recorded no engine statements — registry was not picked up")
	}
}

// TestSameSeedRunsAreByteIdenticalWithSessions repeats the determinism
// contract across the two ways a manager reaches its database — the private
// session layer New makes, and a shared one attached with UseSessions. Both
// run the same builder, so the recommendation, the StateReport and every
// ledger the tuner and the bench snapshots read (engine_* counters, the
// statement-cost histogram) must be identical, and every counted statement
// must carry a cost sample.
func TestSameSeedRunsAreByteIdenticalWithSessions(t *testing.T) {
	type ledger struct {
		counters  map[string]int64
		costCount int64
		costSum   float64
	}
	run := func(shared bool, cacheDisabled bool) (*Recommendation, []byte, ledger) {
		reg := obs.NewRegistry()
		db, reads := readHeavyDB(t)
		db.SetMetrics(reg)
		m := New(db, Options{MCTS: mctsFast()})
		m.Estimator().CacheDisabled = cacheDisabled
		if shared {
			m.UseSessions(session.New(db, session.Options{Seed: 1}))
		}
		for _, sql := range reads {
			if err := m.Observe(sql); err != nil {
				t.Fatal(err)
			}
		}
		rec, _, err := m.Tune(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		js, err := m.Report().JSON()
		if err != nil {
			t.Fatal(err)
		}
		led := ledger{counters: map[string]int64{}}
		for name, v := range reg.Snapshot() {
			if n, ok := v.(int64); ok && strings.HasPrefix(name, "engine_") {
				led.counters[name] = n
			}
		}
		h := reg.LookupHistogram("engine_statement_cost")
		led.costCount, led.costSum = h.Count(), h.Sum()
		if total := led.counters["engine_statements_total"]; led.costCount != total {
			t.Errorf("shared=%v: engine_statement_cost has %d samples for %d statements", shared, led.costCount, total)
		}
		return rec, js, led
	}

	recPriv, jsPriv, ledPriv := run(false, false)
	if len(recPriv.Create) == 0 {
		t.Fatal("nothing was built — the ledger comparison lost its point")
	}
	if ledPriv.counters["engine_heap_pages_read_total"] == 0 {
		t.Fatal("the build's snapshot scan charged no heap pages")
	}
	// The shared arm under both estimator variants of
	// TestSameSeedRunsAreByteIdentical, each against the private baseline.
	for _, cacheDisabled := range []bool{false, true} {
		recShared, jsShared, ledShared := run(true, cacheDisabled)
		name := fmt.Sprintf("shared/cacheDisabled=%v", cacheDisabled)
		if k1, k2 := recKeys(recPriv), recKeys(recShared); k1 != k2 {
			t.Fatalf("%s: recommendations differ: %q vs %q", name, k1, k2)
		}
		if recPriv.BaseCost != recShared.BaseCost || recPriv.BestCost != recShared.BestCost {
			t.Fatalf("%s: costs differ: base %v vs %v, best %v vs %v", name,
				recPriv.BaseCost, recShared.BaseCost, recPriv.BestCost, recShared.BestCost)
		}
		if !bytes.Equal(jsPriv, jsShared) {
			t.Fatalf("%s: not byte-identical to the private-session run:\n--- private ---\n%s\n--- shared ---\n%s", name, jsPriv, jsShared)
		}
		if !reflect.DeepEqual(ledPriv, ledShared) {
			t.Fatalf("%s: engine ledgers differ:\nprivate: %+v\nshared:  %+v", name, ledPriv, ledShared)
		}
	}
}
