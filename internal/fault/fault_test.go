package fault

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/obs"
)

func TestNilInjectorIsNoOp(t *testing.T) {
	var in *Injector
	if err := in.Check(SitePageRead); err != nil {
		t.Fatalf("nil injector must not fire: %v", err)
	}
	in.MustCheck(SiteBtreeInsert) // must not panic
	if in.Injected() != 0 {
		t.Error("nil injector must report zero activity")
	}
	in.Instrument(obs.NewRegistry()) // must not panic
}

func TestNthRuleFiresExactlyOnce(t *testing.T) {
	in := New(1, Rule{Site: SitePageRead, Kind: KindIO, Nth: 3})
	var fired []int64
	for i := int64(1); i <= 10; i++ {
		if err := in.Check(SitePageRead); err != nil {
			fe := AsFault(err)
			if fe == nil {
				t.Fatalf("call %d: not a fault error: %v", i, err)
			}
			fired = append(fired, fe.Call)
		}
	}
	if len(fired) != 1 || fired[0] != 3 {
		t.Fatalf("Nth=3 should fire exactly once at call 3: %v", fired)
	}
	if in.Injected() != 1 {
		t.Errorf("injected=%d want 1", in.Injected())
	}
}

func TestSitesCountIndependently(t *testing.T) {
	in := New(1, Rule{Site: SiteBtreeInsert, Kind: KindIO, Nth: 2})
	// Calls at other sites must not advance btree.insert's counter.
	for i := 0; i < 5; i++ {
		if err := in.Check(SitePageWrite); err != nil {
			t.Fatalf("unarmed site fired: %v", err)
		}
	}
	if err := in.Check(SiteBtreeInsert); err != nil {
		t.Fatalf("call 1 fired early: %v", err)
	}
	if err := in.Check(SiteBtreeInsert); err == nil {
		t.Fatal("call 2 should fire")
	}
}

func TestProbabilityRuleIsDeterministic(t *testing.T) {
	run := func() []int64 {
		in := New(42, Rule{Site: SiteBtreeScan, Kind: KindIO, Probability: 0.2})
		var fired []int64
		for i := int64(1); i <= 200; i++ {
			if err := in.Check(SiteBtreeScan); err != nil {
				fired = append(fired, AsFault(err).Call)
			}
		}
		return fired
	}
	a, b := run(), run()
	if len(a) == 0 {
		t.Fatal("p=0.2 over 200 calls should fire at least once")
	}
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatalf("same seed must fire at the same calls:\n%v\n%v", a, b)
	}
	// A different seed draws a different firing pattern.
	in2 := New(43, Rule{Site: SiteBtreeScan, Kind: KindIO, Probability: 0.2})
	var c []int64
	for i := int64(1); i <= 200; i++ {
		if err := in2.Check(SiteBtreeScan); err != nil {
			c = append(c, AsFault(err).Call)
		}
	}
	if fmt.Sprint(a) == fmt.Sprint(c) {
		t.Error("different seeds should (overwhelmingly) differ")
	}
}

func TestLimitCapsFiring(t *testing.T) {
	in := New(7, Rule{Site: SitePageWrite, Kind: KindTransient, Probability: 1, Limit: 2})
	var n int
	for i := 0; i < 50; i++ {
		if err := in.Check(SitePageWrite); err != nil {
			n++
			if !IsTransient(err) {
				t.Fatalf("transient rule should inject retryable faults: %v", err)
			}
		}
	}
	if n != 2 {
		t.Fatalf("Limit=2 fired %d times", n)
	}
}

func TestLatencyRuleSleepsAndSucceeds(t *testing.T) {
	in := New(1, Rule{Site: SitePageRead, Kind: KindLatency, Nth: 1, Latency: 5 * time.Millisecond})
	var slept time.Duration
	in.sleep = func(d time.Duration) { slept += d }
	if err := in.Check(SitePageRead); err != nil {
		t.Fatalf("latency rule must not error: %v", err)
	}
	if slept != 5*time.Millisecond {
		t.Fatalf("slept %v want 5ms", slept)
	}
	if in.Injected() != 1 {
		t.Errorf("latency fires count as injections: %d", in.Injected())
	}
}

func TestMustCheckPanicsWithFaultError(t *testing.T) {
	in := New(1, Rule{Site: SiteBtreeInsert, Kind: KindIO, Nth: 1})
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("MustCheck should panic on an armed site")
		}
		fe, ok := r.(*Error)
		if !ok {
			t.Fatalf("panic value should be *fault.Error, got %T", r)
		}
		if fe.Site != SiteBtreeInsert || fe.Kind != KindIO {
			t.Fatalf("wrong fault: %v", fe)
		}
	}()
	in.MustCheck(SiteBtreeInsert)
}

func TestAsFaultUnwraps(t *testing.T) {
	fe := &Error{Site: SitePageRead, Kind: KindIO, Call: 9}
	wrapped := fmt.Errorf("apply: drop idx: %w", fmt.Errorf("exec: %w", fe))
	if got := AsFault(wrapped); got != fe {
		t.Fatalf("AsFault should unwrap nested errors: %v", got)
	}
	if AsFault(errors.New("plain")) != nil {
		t.Error("plain errors are not faults")
	}
	if AsFault(nil) != nil {
		t.Error("nil in, nil out")
	}
}

func TestInstrumentCountsPerSiteKind(t *testing.T) {
	reg := obs.NewRegistry()
	in := New(1,
		Rule{Site: SitePageRead, Kind: KindIO, Nth: 1},
		Rule{Site: SitePageWrite, Kind: KindTransient, Nth: 1},
	)
	in.Instrument(reg)
	_ = in.Check(SitePageRead)
	_ = in.Check(SitePageWrite)
	got := reg.CounterVec("fault_injected_total",
		"Injected faults by site and kind", "site_kind").Values()
	for _, want := range []string{"storage.page_read/io", "storage.page_write/transient"} {
		if got[want] != 1 {
			t.Errorf("fault_injected_total{site_kind=%q}=%d want 1 (all: %v)", want, got[want], got)
		}
	}
}
