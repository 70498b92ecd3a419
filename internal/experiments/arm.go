package experiments

import (
	"context"
	"fmt"
	"time"

	"repro/internal/autoindex"
	"repro/internal/baseline"
	"repro/internal/engine"
	"repro/internal/harness"
	"repro/internal/template"
)

// An arm is one method of the paper's comparison (§VI) — Default, Greedy or
// AutoIndex — on its own freshly loaded database. A figure runs its stream
// through each arm as phases; at the end of a phase the method tunes.
type arm struct {
	name string
	db   *engine.DB
	// store observes the phases; nil for Default. Greedy and AutoIndex read
	// their workload from it (paper: both methods see the same templates).
	store *template.Store
	// mgr is AutoIndex's manager, tuning over store; nil for the others.
	mgr *autoindex.Manager
	// greedy holds Greedy's selection options; nil for the other methods.
	greedy *baseline.GreedyOptions
	// budget is AutoIndex's storage budget, checked at apply when > 0.
	budget int64
	phases int // phases run so far
}

// A method builds its arm on a freshly loaded database.
type method func(db *engine.DB) *arm

// defaultArm never tunes: primary keys only.
func defaultArm(db *engine.DB) *arm { return &arm{name: "Default", db: db} }

// greedyArm tunes once, after the first phase: greedy selection cannot
// remove an index, so it has no incremental step.
func greedyArm(opts baseline.GreedyOptions) method {
	return func(db *engine.DB) *arm {
		return &arm{name: "Greedy", db: db, store: template.NewStore(0), greedy: &opts}
	}
}

// autoIndexArm runs a tuning round at the end of every phase, and ages its
// template history before every phase but the first.
func autoIndexArm(name string, opts autoindex.Options) method {
	opts.RoundTimeout = RoundTimeout
	return func(db *engine.DB) *arm {
		m := autoindex.New(db, opts)
		return &arm{name: name, db: db, store: m.TemplateStore(), mgr: m, budget: opts.Budget}
	}
}

// phase executes stmts, observed when the arm tunes, then tunes the way the
// arm's method does at a phase boundary. It returns the phase's run and the
// time spent tuning.
func (a *arm) phase(stmts []string) (harness.RunStats, time.Duration, error) {
	a.phases++
	if a.store == nil {
		return harness.Run(a.db, stmts), 0, nil
	}
	if a.mgr != nil && a.phases > 1 {
		// The workload shifts between phases: decay the template history.
		a.store.Decay(0.3, 0.5)
	}
	a.store.Attach(a.db)
	run := harness.Run(a.db, stmts)
	a.store.Detach(a.db)

	if a.greedy != nil {
		if a.phases > 1 {
			return run, 0, nil
		}
		est, gen := newGreedyTools(a.db)
		start := time.Now()
		gres, err := baseline.Greedy(est, gen, a.store.Workload(), nil, *a.greedy)
		if err != nil {
			return run, 0, err
		}
		if err := applyGreedy(a.db, gres); err != nil {
			return run, 0, err
		}
		return run, time.Since(start), nil
	}

	start := time.Now()
	a.mgr.CloseWindow() // trend boundary (forecast variant)
	if _, _, err := a.mgr.Tune(context.Background()); err != nil {
		return run, 0, err
	}
	tune := time.Since(start)
	// The budget holds at apply time (against estimated sizes, with ~2%
	// real-build drift); later inserts then grow the indexes naturally, as
	// they would in production.
	if _, bytes := secondaryIndexStats(a.db.Catalog()); a.budget > 0 && bytes > a.budget*102/100 {
		return run, 0, fmt.Errorf("experiments: budget violated at apply: %d > %d", bytes, a.budget)
	}
	return run, tune, nil
}

// result reports a run under the arm's current indexes.
func (a *arm) result(run harness.RunStats, tune time.Duration) MethodResult {
	n, bytes := secondaryIndexStats(a.db.Catalog())
	return MethodResult{Method: a.name, Run: run, IndexCount: n, IndexBytes: bytes,
		TuneMillis: tune.Milliseconds()}
}
