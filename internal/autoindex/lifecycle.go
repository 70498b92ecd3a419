package autoindex

import "repro/internal/engine"

// LifecycleState is one stage of an applied recommendation's guardrail
// lifecycle. Every apply that creates indexes is born LifecycleStaged; a
// guardrail controller (internal/guardrail) then moves it through
// LifecycleVerifying as measured windows arrive and settles it as
// LifecyclePromoted (the indexes are permanent) or LifecycleReverted (the
// indexes regressed or went unused and were dropped again). Without a
// guardrail attached, outcomes stay LifecycleNone — the pre-guardrail
// behavior, where an apply is trusted forever.
type LifecycleState int

const (
	// LifecycleNone: no guardrail is watching this outcome.
	LifecycleNone LifecycleState = iota
	// LifecycleStaged: applied, no measured window observed yet.
	LifecycleStaged
	// LifecycleVerifying: at least one measured window observed, verdict
	// pending (minimum-sample floor not reached, or a revert is in flight).
	LifecycleVerifying
	// LifecyclePromoted: measured cost confirmed the prediction; terminal.
	LifecyclePromoted
	// LifecycleReverted: measured regression or unused indexes; the created
	// indexes were dropped again; terminal.
	LifecycleReverted
)

// String names the state for reports and metric labels.
func (s LifecycleState) String() string {
	switch s {
	case LifecycleNone:
		return "none"
	case LifecycleStaged:
		return "staged"
	case LifecycleVerifying:
		return "verifying"
	case LifecyclePromoted:
		return "promoted"
	case LifecycleReverted:
		return "reverted"
	default:
		return "invalid"
	}
}

// Terminal reports whether the state is a settled verdict.
func (s LifecycleState) Terminal() bool {
	return s == LifecyclePromoted || s == LifecycleReverted
}

// ApplyWatcher observes the manager's ledger feed: every recorded apply
// (successful or failed) and every measured workload cost. The guardrail
// controller implements it to drive the staged → verifying → promoted |
// reverted lifecycle. Callbacks fire synchronously on the caller's
// goroutine, after the ledger has been updated.
type ApplyWatcher interface {
	// ApplyRecorded fires once per ledger append: idx is the outcome's
	// position in Outcomes(), outcome is a copy of the recorded entry, and
	// rep is the apply report it came from.
	ApplyRecorded(idx int, outcome AppliedOutcome, rep *ApplyReport)
	// CostMeasured fires on every ObserveMeasuredCost, after the ledger's
	// predicted-vs-actual record (if any) has been completed.
	CostMeasured(cost float64)
}

// SetApplyWatcher installs the ledger watcher (nil removes it). One watcher
// at a time; the guardrail controller installs itself via guardrail.Attach.
func (m *Manager) SetApplyWatcher(w ApplyWatcher) { m.watcher = w }

// SetOutcomeLifecycle stamps a lifecycle state onto ledger entry idx —
// the guardrail's persistence seam: states live on the Manager's ledger so
// StateReport carries them. Out-of-range indexes are ignored.
func (m *Manager) SetOutcomeLifecycle(idx int, s LifecycleState) {
	if idx < 0 || idx >= len(m.outcomes) {
		return
	}
	m.outcomes[idx].Lifecycle = s
}

// OutcomeLifecycle reads ledger entry idx's lifecycle state
// (LifecycleNone when out of range).
func (m *Manager) OutcomeLifecycle(idx int) LifecycleState {
	if idx < 0 || idx >= len(m.outcomes) {
		return LifecycleNone
	}
	return m.outcomes[idx].Lifecycle
}

// IndexProbes returns a copy of the per-index probe counters under the
// reader lock — the guardrail's unused-index signal. The counters are
// cumulative per statement that probed the index; a created index whose
// counter never moves across a verify window carried no query.
func (m *Manager) IndexProbes() map[string]int64 {
	var usage map[string]int64
	_ = m.sessions.Read(func(db *engine.DB) error {
		usage = db.IndexUsage()
		return nil
	})
	return usage
}
