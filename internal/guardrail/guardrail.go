// Package guardrail closes the tuning loop with AIM-style production
// guardrails: every recommendation the autoindex manager applies is staged
// rather than trusted, verified against measured workload cost over a
// configurable number of windows, and then either promoted (kept for good)
// or automatically reverted (its indexes dropped again through the same
// all-or-nothing apply machinery). The controller is driven entirely by the
// manager's ledger feed — it installs itself as the ApplyWatcher and reacts
// to ObserveMeasuredCost calls — so it works identically whether costs come
// from harness runs or live loadgen traffic.
//
// Decisions are deterministic: given the same seed and the same measured
// cost series, the controller reaches the same verdicts in the same order.
// Randomness is confined to the seeded retry jitter on the revert path.
package guardrail

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"time"

	"repro/internal/autoindex"
	"repro/internal/fault"
	"repro/internal/floatcmp"
)

// Defaults for Config zero values.
const (
	// DefaultVerifyWindows is the minimum-sample floor: how many measured
	// windows an outcome must accumulate before a verdict is reached.
	DefaultVerifyWindows = 3
	// DefaultRegressThreshold is the relative regression tolerance: a mean
	// measured cost above baseline*(1+threshold) counts as a regression.
	DefaultRegressThreshold = 0.10
)

// revertRetries is how many extra attempts a failed revert gets when it
// fails with a transient fault.
const revertRetries = 2

// Config tunes the controller.
type Config struct {
	// Seed drives the revert retry jitter (and any future stochastic
	// choice). Same seed + same measured series ⇒ same verdicts.
	Seed int64
	// VerifyWindows is the minimum number of measured windows before a
	// verdict (<=0: DefaultVerifyWindows).
	VerifyWindows int
	// RegressThreshold is the relative cost-increase tolerance (<=0:
	// DefaultRegressThreshold). The mean measured cost across the verify
	// windows must exceed baseline*(1+RegressThreshold) to count as a
	// regression.
	RegressThreshold float64
	// Injector arms the guardrail.decide / guardrail.revert fault sites
	// (nil: no injection).
	Injector *fault.Injector
}

func (c Config) withDefaults() Config {
	if c.VerifyWindows <= 0 {
		c.VerifyWindows = DefaultVerifyWindows
	}
	if c.RegressThreshold <= 0 {
		c.RegressThreshold = DefaultRegressThreshold
	}
	return c
}

// tracked is one staged outcome under verification.
type tracked struct {
	idx       int
	created   []string
	baseline  float64 // CostBefore at apply time (NaN: no pre-apply window)
	windows   int
	costSum   float64
	probeBase map[string]int64
	state     autoindex.LifecycleState
}

// Controller drives applied recommendations through the staged → verifying
// → promoted | reverted lifecycle. Create with Attach. Safe for concurrent
// use: the manager may apply from one goroutine while another feeds
// measured costs.
type Controller struct {
	mgr     *autoindex.Manager
	cfg     Config
	metrics *guardrailMetrics

	mu      sync.Mutex
	rng     *rand.Rand
	track   map[int]*tracked
	reverts int64
}

// Attach builds a controller over mgr and installs it as the manager's
// apply watcher. Subsequent Apply calls stage their outcomes; subsequent
// ObserveMeasuredCost calls feed verification windows. The guardrail_*
// instruments go to the manager's registry, the database's (nil: off).
func Attach(mgr *autoindex.Manager, cfg Config) *Controller {
	cfg = cfg.withDefaults()
	c := &Controller{
		mgr:     mgr,
		cfg:     cfg,
		metrics: newGuardrailMetrics(mgr.Registry()),
		rng:     rand.New(rand.NewSource(cfg.Seed)),
		track:   make(map[int]*tracked),
	}
	mgr.SetApplyWatcher(c)
	return c
}

// Tracked returns how many outcomes are currently staged or verifying.
func (c *Controller) Tracked() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.track)
}

// Reverts returns how many auto-reverts have completed.
func (c *Controller) Reverts() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.reverts
}

// ApplyRecorded implements autoindex.ApplyWatcher: a successful apply that
// created indexes is staged for verification. Failed applies and drop-only
// applies (including this controller's own reverts) are not tracked — there
// is nothing to promote or revert.
func (c *Controller) ApplyRecorded(idx int, outcome autoindex.AppliedOutcome, rep *autoindex.ApplyReport) {
	if outcome.Failed || len(outcome.CreatedNames) == 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.track[idx] = &tracked{
		idx:       idx,
		created:   append([]string(nil), outcome.CreatedNames...),
		baseline:  outcome.CostBefore,
		probeBase: c.mgr.IndexProbes(),
		state:     autoindex.LifecycleStaged,
	}
	c.setState(idx, c.track[idx], autoindex.LifecycleStaged)
	c.metrics.incStaged()
	c.metrics.trackedGauge(len(c.track))
}

// CostMeasured implements autoindex.ApplyWatcher: one measured workload
// cost window. Every tracked outcome accumulates the window; outcomes past
// the minimum-sample floor get a verdict — promote, or revert when the mean
// measured cost regressed past the threshold (or the created indexes went
// unprobed). Reverts triggered here run under context.Background(): the
// measurement feed has no caller context, and a revert must not be
// cancellable halfway by an unrelated deadline.
func (c *Controller) CostMeasured(cost float64) {
	c.mu.Lock()
	var reverts []*tracked
	var probes map[string]int64
	for _, idx := range c.trackedIndexes() {
		t := c.track[idx]
		t.windows++
		t.costSum += cost
		c.metrics.incWindow()
		if t.state == autoindex.LifecycleStaged {
			c.setState(idx, t, autoindex.LifecycleVerifying)
		}
		if t.windows < c.cfg.VerifyWindows {
			continue
		}
		if probes == nil {
			probes = c.mgr.IndexProbes()
		}
		verdict := c.verdict(t, probes)
		// The decide site models the guardrail being killed between
		// reaching a verdict and acting on it: the verdict is dropped,
		// state stays Verifying, and the next window re-derives it from
		// the same accumulated evidence — acting on a verdict is
		// idempotent, never half-done.
		if ferr := c.cfg.Injector.Check(fault.SiteGuardrailDecide); ferr != nil {
			c.metrics.incDecideFault()
			continue
		}
		if verdict == autoindex.LifecyclePromoted {
			c.settle(idx, t, autoindex.LifecyclePromoted)
		} else {
			reverts = append(reverts, t)
		}
	}
	c.mu.Unlock()
	// Execute reverts outside the controller lock: ApplyDrops re-enters
	// ApplyRecorded through the watcher hook. Failures are already counted
	// inside RevertOutcome; the outcome stays Verifying and the verdict is
	// re-derived at the next window.
	for _, t := range reverts {
		_ = c.RevertOutcome(context.Background(), t.idx)
	}
}

// trackedIndexes returns the tracked ledger indexes in ascending order, so
// verdicts are reached in a deterministic order regardless of map layout.
// Callers hold c.mu.
func (c *Controller) trackedIndexes() []int {
	idxs := make([]int, 0, len(c.track))
	for idx := range c.track {
		idxs = append(idxs, idx)
	}
	sort.Ints(idxs)
	return idxs
}

// verdict decides promote vs revert for an outcome past the sample floor.
// Callers hold c.mu.
func (c *Controller) verdict(t *tracked, probes map[string]int64) autoindex.LifecycleState {
	mean := t.costSum / float64(t.windows)
	if !math.IsNaN(t.baseline) &&
		floatcmp.Less(t.baseline*(1+c.cfg.RegressThreshold), mean) {
		return autoindex.LifecycleReverted
	}
	if c.unused(t, probes) {
		return autoindex.LifecycleReverted
	}
	return autoindex.LifecyclePromoted
}

// unused reports whether none of the outcome's created indexes were probed
// since it was staged.
func (c *Controller) unused(t *tracked, probes map[string]int64) bool {
	for _, name := range t.created {
		if probes[name] > t.probeBase[name] {
			return false
		}
	}
	return true
}

// settle moves a tracked outcome to a terminal state and stops tracking it.
// Callers hold c.mu.
func (c *Controller) settle(idx int, t *tracked, state autoindex.LifecycleState) {
	c.setState(idx, t, state)
	c.metrics.verdict(state)
	delete(c.track, idx)
	c.metrics.trackedGauge(len(c.track))
}

// setState records a lifecycle transition on the ledger and the per-state
// gauge. Callers hold c.mu.
func (c *Controller) setState(idx int, t *tracked, state autoindex.LifecycleState) {
	if t.state != state || state == autoindex.LifecycleStaged {
		c.metrics.stateTransition(t.state, state, state == autoindex.LifecycleStaged)
	}
	t.state = state
	c.mgr.SetOutcomeLifecycle(idx, state)
}

// RevertOutcome drops the indexes ledger entry idx created, through the
// manager's all-or-nothing ApplyDrops (under the session Exclusive seam
// when one is attached), retrying transient faults with seeded jitter. On
// success the outcome settles as LifecycleReverted; on failure it stays
// Verifying and the verdict is re-derived at the next measured window. The
// guardrail.revert fault site fires before each attempt.
func (c *Controller) RevertOutcome(ctx context.Context, idx int) error {
	c.mu.Lock()
	t, ok := c.track[idx]
	if !ok || len(t.created) == 0 {
		c.mu.Unlock()
		return fmt.Errorf("guardrail: outcome %d is not tracked", idx)
	}
	names := append([]string(nil), t.created...)
	c.mu.Unlock()

	var err error
	for attempt := 0; ; attempt++ {
		err = c.revertOnce(ctx, names)
		if err == nil || attempt >= revertRetries || !fault.IsTransient(err) {
			break
		}
		c.backoff()
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if err != nil {
		c.metrics.incRevertFailure()
		return fmt.Errorf("guardrail: revert outcome %d: %w", idx, err)
	}
	c.reverts++
	c.metrics.incRevert()
	c.settle(idx, t, autoindex.LifecycleReverted)
	return nil
}

// revertOnce is one revert attempt: the fault site, then the transactional
// drop. ApplyDrops already retries per-drop transient faults internally;
// the outer retry in RevertOutcome covers faults injected at the guardrail
// site itself.
func (c *Controller) revertOnce(ctx context.Context, names []string) error {
	if ferr := c.cfg.Injector.Check(fault.SiteGuardrailRevert); ferr != nil {
		return ferr
	}
	// ApplyDrops rolls back only after a failed drop, so a rollback error
	// comes with one; it is the graver of the two (the index set is between
	// configurations) and the one the chain carries.
	rep, err := c.mgr.ApplyDrops(ctx, names)
	if rep.RollbackErr != nil {
		return fmt.Errorf("guardrail: rollback incomplete after %v: %w", err, rep.RollbackErr)
	}
	return err
}

// backoff sleeps a seeded 1–5ms jitter between revert attempts, mirroring
// the session layer's build-retry jitter. The duration comes from the
// seeded rng, so retry schedules are reproducible.
func (c *Controller) backoff() {
	c.mu.Lock()
	d := time.Duration(1+c.rng.Intn(5)) * time.Millisecond
	c.mu.Unlock()
	time.Sleep(d)
}
