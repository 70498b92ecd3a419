// Package fault is a deterministic, seeded fault injector for the storage
// and index layers. A chaos harness (or an operator drilling failure
// handling) arms an Injector with a schedule of rules — fire on the Nth call
// to a site, or with a seeded per-call probability — and wires it into the
// engine with DB.SetFaultInjector. Faults surface as typed *fault.Error
// values: sites with an error return propagate them directly, while hot
// paths without one (heap scans, B+Tree inserts) panic with the error and
// rely on the engine's panic-safe statement boundary to convert the unwind
// back into a normal error. A nil *Injector is a valid, always-off injector:
// every injection point guards with a single pointer check, so the
// production hot path pays nothing.
//
// Determinism: all probability draws come from one rand.Rand seeded at
// construction, and call counting is per site, so the same schedule over the
// same workload fires at exactly the same calls on every run.
package fault

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/obs"
)

// Kind is the failure mode a rule injects.
type Kind uint8

const (
	// KindIO is a hard IO error (media failure, torn page): not retryable.
	KindIO Kind = iota
	// KindTransient is a retryable error (lock timeout, throttled IO).
	KindTransient
	// KindLatency injects a delay instead of an error (slow disk, noisy
	// neighbor). The operation then succeeds.
	KindLatency
)

// String names the kind for errors and metric labels.
func (k Kind) String() string {
	switch k {
	case KindIO:
		return "io"
	case KindTransient:
		return "transient"
	case KindLatency:
		return "latency"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Site identifies one injection point.
type Site string

// The wired injection sites. Storage sites fire once per page touched;
// btree sites fire once per operation (split fires inside the insert that
// overflows a page).
const (
	SitePageRead    Site = "storage.page_read"
	SitePageWrite   Site = "storage.page_write"
	SiteBtreeInsert Site = "btree.insert"
	SiteBtreeSplit  Site = "btree.split"
	SiteBtreeScan   Site = "btree.scan"
	// SiteBuildCatchup fires once per change-log replay batch of an online
	// index build — the window where a crash must roll the build back.
	SiteBuildCatchup Site = "session.build_catchup"
	// Buffer-pool sites: SiteBufferMiss fires once per pool miss (the
	// simulated physical page load), SiteBufferEvict once per frame
	// eviction. Both surface as panics recovered at the statement boundary,
	// like the storage sites they sit beneath.
	SiteBufferMiss  Site = "bufferpool.miss"
	SiteBufferEvict Site = "bufferpool.evict"
	// Guardrail sites: SiteGuardrailDecide fires once per verdict the
	// controller is about to act on (a fault there kills the guardrail
	// mid-decision — the verdict is dropped and re-derived next window);
	// SiteGuardrailRevert fires once per auto-revert attempt, before the
	// drop is issued (a transient there exercises the seeded retry path).
	SiteGuardrailDecide Site = "guardrail.decide"
	SiteGuardrailRevert Site = "guardrail.revert"
)

// Rule is one entry in a fault schedule.
type Rule struct {
	// Site selects the injection point the rule arms.
	Site Site
	// Kind is the failure mode to inject.
	Kind Kind
	// Nth fires the rule on exactly the Nth call (1-based) to the site
	// since the injector was armed. Zero disables the trigger.
	Nth int64
	// Probability fires the rule on any call with this seeded probability
	// (0 < p <= 1). Zero disables the trigger. When both Nth and
	// Probability are set, either trigger fires the rule.
	Probability float64
	// Limit caps how many times the rule may fire (0 = unlimited). A pure
	// Nth rule fires at most once regardless.
	Limit int64
	// Latency is the injected delay for KindLatency rules.
	Latency time.Duration
}

// Error is an injected fault. Sites that cannot return an error panic with
// the *Error; the engine statement boundary recovers it and returns it as a
// regular error, so callers always observe it via the error path.
type Error struct {
	Site Site
	Kind Kind
	// Call is the 1-based call number at the site when the fault fired.
	Call int64
}

// Error implements the error interface.
func (e *Error) Error() string {
	return fmt.Sprintf("fault: injected %s error at %s (call %d)", e.Kind, e.Site, e.Call)
}

// Transient reports whether the fault is retryable.
func (e *Error) Transient() bool { return e.Kind == KindTransient }

// IsTransient reports whether err is (or wraps) a retryable injected fault.
func IsTransient(err error) bool {
	fe := AsFault(err)
	return fe != nil && fe.Transient()
}

// AsFault unwraps err to an injected fault, or nil.
func AsFault(err error) *Error {
	for err != nil {
		if fe, ok := err.(*Error); ok {
			return fe
		}
		u, ok := err.(interface{ Unwrap() error })
		if !ok {
			return nil
		}
		err = u.Unwrap()
	}
	return nil
}

// ruleState is a Rule plus its firing bookkeeping.
type ruleState struct {
	Rule
	fired int64
}

// Injector evaluates a fault schedule at the wired sites. All methods are
// safe on a nil receiver (always-off) and safe for concurrent use.
type Injector struct {
	mu    sync.Mutex
	rng   *rand.Rand
	rules map[Site][]*ruleState
	calls map[Site]int64
	total int64
	// sleep is stubbed in tests; defaults to time.Sleep.
	sleep func(time.Duration)
	// injected, when instrumented, counts fires per {site,kind}.
	injected *obs.CounterVec
}

// New builds an injector from a seed and a schedule. An empty schedule is
// valid (the injector counts calls but never fires).
func New(seed int64, rules ...Rule) *Injector {
	in := &Injector{
		rng:   rand.New(rand.NewSource(seed)),
		rules: make(map[Site][]*ruleState),
		calls: make(map[Site]int64),
		sleep: time.Sleep,
	}
	for _, r := range rules {
		in.rules[r.Site] = append(in.rules[r.Site], &ruleState{Rule: r})
	}
	return in
}

// Instrument attaches a metrics registry: every fired fault bumps
// fault_injected_total{site_kind="<site>/<kind>"}. Nil-safe; nil detaches.
func (in *Injector) Instrument(reg *obs.Registry) {
	if in == nil {
		return
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	if reg == nil {
		in.injected = nil
		return
	}
	in.injected = reg.CounterVec("fault_injected_total",
		"Injected faults by site and kind", "site_kind")
}

// Check records one call at site and returns the injected fault, if any.
// Latency rules sleep and return nil. A nil injector returns nil.
func (in *Injector) Check(site Site) error {
	if in == nil {
		return nil
	}
	in.mu.Lock()
	in.calls[site]++
	call := in.calls[site]
	var fire *ruleState
	for _, rs := range in.rules[site] {
		if rs.Limit > 0 && rs.fired >= rs.Limit {
			continue
		}
		if rs.Nth > 0 && rs.Probability == 0 && rs.fired > 0 {
			continue // pure Nth rules fire once
		}
		if (rs.Nth > 0 && call == rs.Nth) ||
			(rs.Probability > 0 && in.rng.Float64() < rs.Probability) {
			fire = rs
			break
		}
	}
	if fire == nil {
		in.mu.Unlock()
		return nil
	}
	fire.fired++
	in.total++
	injected := in.injected
	kind, latency := fire.Kind, fire.Latency
	in.mu.Unlock()

	injected.With(string(site) + "/" + kind.String()).Inc()
	if kind == KindLatency {
		in.sleep(latency)
		return nil
	}
	return &Error{Site: site, Kind: kind, Call: call}
}

// MustCheck is Check for hot paths without an error return: it panics with
// the *Error, to be recovered at the engine statement boundary. A nil
// injector is a no-op.
func (in *Injector) MustCheck(site Site) {
	if in == nil {
		return
	}
	if err := in.Check(site); err != nil {
		panic(err)
	}
}

// Injected returns the total number of faults fired. Nil-safe.
func (in *Injector) Injected() int64 {
	if in == nil {
		return 0
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.total
}
