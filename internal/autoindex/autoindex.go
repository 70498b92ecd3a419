// Package autoindex is the system core: the incremental index management
// pipeline of the paper. It observes the query stream through SQL2Template,
// diagnoses index problems, generates candidate indexes from matched
// templates, searches the policy tree with MCTS under the storage budget,
// prices every configuration with the (optionally learned) benefit
// estimator, and applies the recommendation by creating/dropping real
// indexes in the engine.
package autoindex

import (
	"context"
	"errors"
	"math"
	"sort"
	"strings"
	"time"

	"repro/internal/candgen"
	"repro/internal/catalog"
	"repro/internal/costmodel"
	"repro/internal/diagnosis"
	"repro/internal/engine"
	"repro/internal/floatcmp"
	"repro/internal/mcts"
	"repro/internal/obs"
	"repro/internal/session"
	"repro/internal/template"
	"repro/internal/workload"
)

// Options configure the manager.
type Options struct {
	// Budget caps total secondary-index bytes (<=0: unlimited).
	Budget int64
	// MCTS carries the search configuration (Budget is overridden by the
	// manager's Budget).
	MCTS mcts.Config
	// UseForecast makes tuning rounds weight templates by their EWMA trend
	// (predicted next-window mix, paper §IV-C) instead of cumulative
	// frequency. Call CloseWindow at round boundaries to feed the trend.
	UseForecast bool
	// RoundTimeout bounds one tuning round's search work (candidate
	// generation, MCTS, estimation). Zero means unbounded. On
	// deadline the round returns its best-so-far recommendation flagged
	// Degraded instead of an error; the apply phase is never time-boxed —
	// a started apply runs to completion or rolls back.
	RoundTimeout time.Duration
}

// maxCandidates bounds the candidate pool handed to MCTS (top-weighted
// first).
const maxCandidates = 24

// Manager is the AutoIndex system bound to one database.
type Manager struct {
	opts      Options
	store     *template.Store
	estimator *costmodel.Estimator
	generator *candgen.Generator
	// Observability (nil when off): tracer wraps each tuning round in a
	// span tree, metrics feed the autoindex_* instruments, outcomes track
	// predicted-vs-measured benefit per applied recommendation.
	tracer           *obs.Tracer
	metrics          *managerMetrics
	rounds           int64
	outcomes         []AppliedOutcome
	lastMeasuredCost float64
	// watcher, when set, observes every ledger append and measured cost —
	// the guardrail controller's feed (see SetApplyWatcher).
	watcher ApplyWatcher
	// sessions is the serving layer the manager tunes through, and its only
	// way to the database: search phases take the exclusive lock (they read
	// the statistics, index metadata and template store that foreground
	// statements update, and must see them stand still), every index is
	// built online, and drops serialize behind the same lock. New
	// wraps the database in a private one; UseSessions swaps in the one the
	// foreground traffic shares.
	sessions *session.Manager
}

// New creates a manager over a live database, reaching it through a private
// session layer: enough for a caller that runs statements and tuning from one
// goroutine. The manager, its estimator and its searches report into the
// database's registry (engine.DB.Registry, read here: call db.SetMetrics
// first). Tracing defaults to the process-wide obs.DefaultTracer (nil unless
// a binary opts in); override per manager with Instrument.
func New(db *engine.DB, opts Options) *Manager {
	reg := db.Registry()
	est := costmodel.NewEstimator(db.Catalog())
	est.Instrument(reg)
	return &Manager{
		opts:             opts,
		store:            template.NewStore(template.DefaultCapacity),
		estimator:        est,
		generator:        candgen.NewGenerator(db.Catalog()),
		sessions:         session.New(db, session.Options{}),
		tracer:           obs.DefaultTracer(),
		metrics:          newManagerMetrics(reg),
		lastMeasuredCost: math.NaN(),
	}
}

// Estimator exposes the benefit estimator (for training and ablation).
func (m *Manager) Estimator() *costmodel.Estimator { return m.estimator }

// TemplateStore exposes the SQL2Template store.
func (m *Manager) TemplateStore() *template.Store { return m.store }

// UseSessions makes the manager tune through the session layer the
// foreground traffic runs on, in place of the private one New made: search
// phases (Diagnose, Recommend, Tune's search half, PruneRecommendation) run
// under its exclusive lock so no statement moves the row counts, index
// metadata or template frequencies a round prices with while it prices
// (what-if costing itself writes nothing), index builds snapshot under its
// reader lock and publish under its exclusive lock, and drops serialize
// behind the same lock. sm must wrap the database the manager was created over.
func (m *Manager) UseSessions(sm *session.Manager) { m.sessions = sm }

// Observe routes one statement into the template store without executing
// it; Attach observes what the engine runs. Safe for concurrent use
// (template.Store.ObserveSQL). bench/ calls it, so it keeps its signature.
func (m *Manager) Observe(sql string) error {
	_, _, err := m.store.ObserveSQL(sql)
	return err
}

// Attach makes the template store the database's statement observer: every
// DML statement the engine executes flows into it (the paper's in-server
// workload logging); DDL — the manager's own CREATE/DROP INDEX included —
// never reaches it. The hook is swapped under the exclusive lock, so no
// in-flight statement sees it half installed. Detach removes it. bench/
// calls both, so they keep their signatures.
func (m *Manager) Attach() {
	_ = m.sessions.Exclusive(func(db *engine.DB) error {
		m.store.Attach(db)
		return nil
	})
}

// Detach removes the statement observer.
func (m *Manager) Detach() {
	_ = m.sessions.Exclusive(func(db *engine.DB) error {
		m.store.Detach(db)
		return nil
	})
}

// Diagnose runs the index diagnosis over the current window, holding the
// exclusive lock for the duration, and traces it as a diagnose span. It is
// the gate in front of Tune: a caller tunes when NeedsTuning is set.
func (m *Manager) Diagnose(ctx context.Context) (*diagnosis.Report, error) {
	span := m.tracer.Start("diagnose")
	defer span.End()
	var rep *diagnosis.Report
	err := m.sessions.Exclusive(func(db *engine.DB) error {
		var derr error
		rep, derr = diagnosis.Diagnose(ctx, db.Catalog(), db.IndexUsage(), db.StatementCount(),
			m.store.Workload(), m.estimator, m.generator, diagnosis.Config{})
		return derr
	})
	if err == nil {
		span.SetAttr("beneficial_uncreated", len(rep.BeneficialUncreated))
		span.SetAttr("rarely_used", len(rep.RarelyUsed))
		span.SetAttr("negative", len(rep.Negative))
		span.SetAttr("problem_ratio", rep.ProblemRatio)
		span.SetAttr("needs_tuning", rep.NeedsTuning)
	}
	return rep, err
}

// Recommendation is the outcome of one tuning round.
type Recommendation struct {
	// Create lists index specs to build; Drop lists index names to drop.
	Create []*catalog.IndexMeta
	Drop   []string
	// EstimatedBenefit is the estimator's predicted workload cost reduction.
	EstimatedBenefit float64
	// BaseCost/BestCost are estimator costs before/after.
	BaseCost, BestCost float64
	// CandidateCount is the size of the generated candidate pool.
	CandidateCount int
	// Evaluations counts estimator configuration evaluations in MCTS.
	Evaluations int
	// MCTSCacheHits counts configuration evaluations the search answered
	// from its whole-set cost cache instead of calling the estimator.
	MCTSCacheHits int
	// Duration is the wall-clock tuning time (management overhead metric).
	Duration time.Duration
	// TemplatesUsed is the number of templates the workload compressed to.
	TemplatesUsed int
	// Degraded reports that the round hit its deadline (or was cancelled)
	// and the recommendation is the best found so far, not a converged one.
	Degraded bool
}

// Recommend runs one full tuning round — candidate generation from the
// compressed workload, then MCTS over add/remove actions — without applying
// anything. With UseForecast set, the round tunes for the predicted
// next-window template mix. The context (tightened by Options.RoundTimeout)
// bounds the search: on deadline the best-so-far recommendation is returned
// flagged Degraded.
func (m *Manager) Recommend(ctx context.Context) (*Recommendation, error) {
	round := m.startRound("recommend")
	defer round.End()
	return m.search(ctx, round)
}

// Tune runs one tuning round that applies what it finds: the search of
// Recommend, then Apply of its recommendation, traced as one tuning_round
// span with workload → candgen → mcts → estimate → apply children. The
// search holds the exclusive lock (one still view of statistics and
// templates) and is bounded by Options.RoundTimeout; the apply runs outside
// the lock, so online builds can take the reader lock for their snapshots,
// and under the caller's ctx, so a recommendation found in time is applied
// transactionally even if the search deadline has since passed. When the
// apply fails, Tune returns the recommendation and the report with the
// error (the report says whether the changes were rolled back); when the
// search fails, both are nil. Tune does not diagnose: Diagnose is the gate.
func (m *Manager) Tune(ctx context.Context) (*Recommendation, *ApplyReport, error) {
	round := m.startRound("tune")
	defer round.End()
	rec, err := m.search(ctx, round)
	if err != nil {
		return nil, nil, err
	}
	rep, err := m.applySpanned(ctx, rec, round)
	return rec, rep, err
}

// search is a round's search half: the round's workload and recommendation
// under the exclusive lock, bounded by Options.RoundTimeout.
func (m *Manager) search(ctx context.Context, round *obs.Span) (*Recommendation, error) {
	if m.opts.RoundTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, m.opts.RoundTimeout)
		defer cancel()
	}
	var rec *Recommendation
	err := m.sessions.Exclusive(func(db *engine.DB) error {
		var rerr error
		rec, rerr = m.recommendSpanned(ctx, db, m.spannedRoundWorkload(round), round)
		return rerr
	})
	return rec, err
}

// isCtxErr reports whether err stems from cancellation or deadline.
func isCtxErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// roundWorkload picks the workload a tuning round prices against.
func (m *Manager) roundWorkload() *workload.Workload {
	if m.opts.UseForecast {
		return m.store.ForecastWorkload()
	}
	return m.store.Workload()
}

// CloseWindow marks a tuning-round boundary (template.Store.CloseWindow).
// Only the forecast workload (UseForecast) reads the trend; the window
// restarts on every call either way.
func (m *Manager) CloseWindow() { m.store.CloseWindow() }

// recommendSpanned is the tuning-round core; round (nil-safe) receives the
// candgen → mcts → estimate child spans and the round summary attributes.
// On context deadline it degrades to best-so-far rather than erroring.
func (m *Manager) recommendSpanned(ctx context.Context, db *engine.DB, w *workload.Workload, round *obs.Span) (*Recommendation, error) {
	start := time.Now()
	if len(w.Queries) == 0 {
		round.SetAttr("empty_workload", true)
		return &Recommendation{Duration: time.Since(start)}, nil
	}
	round.SetAttr("templates", len(w.Queries))

	cgSpan := round.Child("candgen")
	cands := m.generator.Generate(ctx, w)
	cgSpan.SetAttr("generated", len(cands))
	if len(cands) > maxCandidates {
		cands = cands[:maxCandidates]
	}
	pool := make([]*catalog.IndexMeta, len(cands))
	for i, c := range cands {
		pool[i] = c.Meta
	}
	cgSpan.SetAttr("pool", len(pool))
	cgSpan.End()
	if m.metrics != nil {
		m.metrics.candidates.Set(float64(len(pool)))
		m.metrics.templates.Set(float64(len(w.Queries)))
	}

	existing := realSecondaryIndexes(db)

	cfg := m.opts.MCTS
	// The budget is enforced against hypothetical size estimates (that is
	// all an advisor has before building); real indexes can land a fraction
	// of a percent larger. A safety margin here would be worse than the
	// drift: at tight budgets it excludes exactly the large, high-benefit
	// index that just fits.
	cfg.Budget = m.opts.Budget
	mctsSpan := round.Child("mcts")
	cfg.Span = mctsSpan
	cfg.Metrics = m.Registry()
	eval := mcts.EvaluatorFunc(func(evalCtx context.Context, active []*catalog.IndexMeta) (float64, error) {
		return m.estimator.WorkloadCostContext(evalCtx, w, active)
	})
	res, err := mcts.Search(ctx, eval, existing, pool, cfg)
	mctsSpan.End()
	if err != nil {
		if isCtxErr(err) {
			// Deadline before even the base configuration was priced:
			// degrade to a no-change recommendation.
			round.SetAttr("degraded", true)
			return &Recommendation{
				CandidateCount: len(pool),
				TemplatesUsed:  len(w.Queries),
				Duration:       time.Since(start),
				Degraded:       true,
			}, nil
		}
		return nil, err
	}

	rec := &Recommendation{
		EstimatedBenefit: res.Benefit(),
		BaseCost:         res.BaseCost,
		BestCost:         res.BestCost,
		CandidateCount:   len(pool),
		Evaluations:      res.Evaluations,
		MCTSCacheHits:    res.CacheHits,
		TemplatesUsed:    len(w.Queries),
		Degraded:         res.Degraded,
	}
	// Map diff keys back to specs/names.
	byKey := make(map[string]*catalog.IndexMeta)
	for _, p := range pool {
		byKey[p.Key()] = p
	}
	for _, k := range res.AddedKeys {
		if spec, ok := byKey[k]; ok {
			rec.Create = append(rec.Create, spec)
		}
	}
	// Drop freeloaders: a created index whose removal from the final set
	// does not raise the estimated cost contributed nothing (deep rollouts
	// can carry such passengers into the best configuration). Correlated
	// pairs survive — removing either member raises the cost.
	if len(rec.Create) > 1 {
		estSpan := round.Child("estimate")
		candidateCount := len(rec.Create)
		kept := rec.Create[:0]
		final := res.Indexes
		finalCost := res.BestCost
		for ci, spec := range rec.Create {
			without := make([]*catalog.IndexMeta, 0, len(final)-1)
			for _, m2 := range final {
				if m2.Key() != spec.Key() {
					without = append(without, m2)
				}
			}
			c, err := m.estimator.WorkloadCostContext(ctx, w, without)
			if err != nil {
				if isCtxErr(err) {
					// Deadline mid-prune: keep this and every unchecked
					// candidate (conservative — pruning only ever removes
					// cost-neutral passengers) and degrade.
					kept = append(kept, rec.Create[ci:]...)
					rec.Degraded = true
					break
				}
				estSpan.End()
				return nil, err
			}
			if !floatcmp.LessEq(c, finalCost) {
				kept = append(kept, spec)
			} else {
				// Neutral passenger: permanently shrink the final set.
				final = without
				finalCost = c
			}
		}
		rec.Create = kept
		rec.BestCost = finalCost
		rec.EstimatedBenefit = rec.BaseCost - finalCost
		estSpan.SetAttr("checked", candidateCount)
		estSpan.SetAttr("pruned", candidateCount-len(kept))
		estSpan.End()
	}
	removed := make(map[string]bool, len(res.RemovedKeys))
	for _, k := range res.RemovedKeys {
		removed[k] = true
	}
	for _, m2 := range existing {
		if removed[m2.Key()] {
			rec.Drop = append(rec.Drop, m2.Name)
		}
	}
	sort.Strings(rec.Drop)
	rec.Duration = time.Since(start)
	if round != nil {
		createNames := make([]string, len(rec.Create))
		for i, spec := range rec.Create {
			createNames[i] = spec.Key()
		}
		round.SetAttr("candidates", rec.CandidateCount)
		round.SetAttr("evaluations", rec.Evaluations)
		round.SetAttr("base_cost", rec.BaseCost)
		round.SetAttr("best_cost", rec.BestCost)
		round.SetAttr("predicted_benefit", rec.EstimatedBenefit)
		round.SetAttr("create", createNames)
		round.SetAttr("drop", rec.Drop)
		if rec.Degraded {
			round.SetAttr("degraded", true)
		}
	}
	return rec, nil
}

// PruneRecommendation identifies wholesale-removable indexes: real secondary
// indexes that were never probed during the observation window AND whose
// removal does not increase the estimated workload cost. This is the bulk
// path of the paper's Fig.-1 banking removal — the policy tree then only has
// to reason about the contested indexes. Returns the names to drop.
func (m *Manager) PruneRecommendation(ctx context.Context, w *workload.Workload) ([]string, error) {
	var drops []string
	err := m.sessions.Exclusive(func(db *engine.DB) error {
		var perr error
		drops, perr = m.pruneRecommendation(ctx, db, w)
		return perr
	})
	return drops, err
}

func (m *Manager) pruneRecommendation(ctx context.Context, db *engine.DB, w *workload.Workload) ([]string, error) {
	usage := db.IndexUsage()
	existing := realSecondaryIndexes(db)
	if len(w.Queries) == 0 {
		return nil, nil
	}
	base, err := m.estimator.WorkloadCostContext(ctx, w, existing)
	if err != nil {
		return nil, err
	}
	var drops []string
	keep := append([]*catalog.IndexMeta{}, existing...)
	for _, idx := range existing {
		if usage[idx.Name] > 0 {
			continue
		}
		without := make([]*catalog.IndexMeta, 0, len(keep)-1)
		for _, k := range keep {
			if k != idx {
				without = append(without, k)
			}
		}
		c, err := m.estimator.WorkloadCostContext(ctx, w, without)
		if err != nil {
			return nil, err
		}
		// Non-increasing cost (tiny tolerance for estimator noise).
		if floatcmp.LessEqTol(c, base, 1e-4) {
			drops = append(drops, idx.Name)
			keep = without
			base = c
		}
	}
	sort.Strings(drops)
	return drops, nil
}

// spannedRoundWorkload materializes the round's workload under its own
// child span, keeping the tuning-round trace's child coverage tight.
func (m *Manager) spannedRoundWorkload(round *obs.Span) *workload.Workload {
	span := round.Child("workload")
	w := m.roundWorkload()
	span.SetAttr("templates", len(w.Queries))
	span.End()
	return w
}

// realSecondaryIndexes lists droppable (non-PK, real) indexes.
func realSecondaryIndexes(db *engine.DB) []*catalog.IndexMeta {
	var out []*catalog.IndexMeta
	for _, idx := range db.Catalog().Indexes(false) {
		if !idx.IsPrimary() {
			out = append(out, idx)
		}
	}
	return out
}

func buildName(spec *catalog.IndexMeta) string {
	name := "ai_" + spec.Table + "_" + strings.Join(spec.Columns, "_")
	if spec.Local {
		name += "_local"
	}
	return name
}
