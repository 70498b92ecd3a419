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
	"sync"
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
	// RoundTimeout bounds one tuning round's search work (diagnosis,
	// candidate generation, MCTS, estimation). Zero means unbounded. On
	// deadline the round returns its best-so-far recommendation flagged
	// Degraded instead of an error; the apply phase is never time-boxed —
	// a started apply runs to completion or rolls back.
	RoundTimeout time.Duration
}

// Tuning constants: values no caller has needed to change.
const (
	// maxCandidates bounds the candidate pool handed to MCTS (top-weighted
	// first).
	maxCandidates = 24
	// decayFactor and decayMinFreq age the template store on a workload
	// shift; stalenessWindow (ticks) and stalenessTrigger detect the shift.
	decayFactor      = 0.5
	decayMinFreq     = 0.5
	stalenessWindow  = 10000
	stalenessTrigger = 0.7
	// forecastAlpha is the EWMA smoothing factor of the template trend.
	forecastAlpha = 0.5
)

// Manager is the AutoIndex system bound to one database.
type Manager struct {
	opts      Options
	store     *template.Store
	estimator *costmodel.Estimator
	generator *candgen.Generator
	// samples accumulates training data for the benefit estimator.
	samples []costmodel.Sample
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
	// observeMu serializes Observe: under sessions, the statement observer
	// fires from concurrent reader goroutines, and the template store is not
	// internally synchronized. What it guards is short: a statement of a
	// known shape is a token scan and a map lookup (template.Store.ObserveSQL).
	observeMu sync.Mutex
}

// New creates a manager over a live database, reaching it through a private
// session layer: enough for a caller that runs statements and tuning from one
// goroutine. Observability defaults to the process-wide obs.DefaultTracer /
// obs.DefaultRegistry (both nil unless a binary opts in); override per
// manager with Instrument.
func New(db *engine.DB, opts Options) *Manager {
	est := costmodel.NewEstimator(db.Catalog())
	est.Instrument(obs.DefaultRegistry())
	return &Manager{
		opts:             opts,
		store:            template.NewStore(template.DefaultCapacity),
		estimator:        est,
		generator:        candgen.NewGenerator(db.Catalog()),
		sessions:         session.New(db, session.Options{}),
		tracer:           obs.DefaultTracer(),
		metrics:          newManagerMetrics(obs.DefaultRegistry()),
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

// Observe routes one executed statement into the template store. Call it
// for every workload statement (or use Attach to hook the engine directly).
// Safe for concurrent use: under a session layer the attached observer
// fires from parallel reader sessions.
func (m *Manager) Observe(sql string) error {
	m.observeMu.Lock()
	defer m.observeMu.Unlock()
	_, _, err := m.store.ObserveSQL(sql)
	return err
}

// Attach installs the manager as the database's statement observer: every
// DML statement executed through db.Exec flows into the template store
// automatically (the paper's in-server workload logging). DDL — including
// the manager's own CREATE/DROP INDEX — is not recorded. Detach removes it.
func (m *Manager) Attach() {
	// Swapping the observer is a hook mutation: take the exclusive lock so
	// in-flight readers never observe a half-installed hook.
	_ = m.sessions.Exclusive(func(db *engine.DB) error {
		db.SetObserver(func(sql string) {
			if isDML(sql) {
				_ = m.Observe(sql)
			}
		})
		return nil
	})
}

// isDML reports whether sql opens with SELECT, INSERT, UPDATE or DELETE in
// any case. It runs on every statement the engine executes.
func isDML(sql string) bool {
	trimmed := strings.TrimLeft(sql, " \t\n")
	if len(trimmed) < 6 {
		return false
	}
	verb := trimmed[:6]
	return strings.EqualFold(verb, "SELECT") || strings.EqualFold(verb, "INSERT") ||
		strings.EqualFold(verb, "UPDATE") || strings.EqualFold(verb, "DELETE")
}

// Detach removes the statement observer.
func (m *Manager) Detach() {
	_ = m.sessions.Exclusive(func(db *engine.DB) error {
		db.SetObserver(nil)
		return nil
	})
}

// LogSample records one (features, measured cost) pair for estimator
// training. The harness calls this while executing workloads.
func (m *Manager) LogSample(s costmodel.Sample) { m.samples = append(m.samples, s) }

// TrainEstimator fits the deep regression model on the logged samples.
func (m *Manager) TrainEstimator() error {
	if err := m.estimator.Train(m.samples); err != nil {
		return err
	}
	return nil
}

// Diagnose runs the index diagnosis over the current window, holding the
// exclusive lock for the duration.
func (m *Manager) Diagnose(ctx context.Context) (*diagnosis.Report, error) {
	var rep *diagnosis.Report
	err := m.sessions.Exclusive(func(db *engine.DB) error {
		var derr error
		rep, derr = m.diagnoseSpanned(ctx, db, nil)
		return derr
	})
	return rep, err
}

func (m *Manager) diagnoseSpanned(ctx context.Context, db *engine.DB, parent *obs.Span) (*diagnosis.Report, error) {
	span := m.childOrRoot(parent, "diagnose")
	defer span.End()
	w := m.store.Workload()
	rep, err := diagnosis.Diagnose(ctx, db.Catalog(), db.IndexUsage(), db.StatementCount(),
		w, m.estimator, m.generator, diagnosis.Config{})
	if err == nil {
		span.SetAttr("beneficial_uncreated", len(rep.BeneficialUncreated))
		span.SetAttr("rarely_used", len(rep.RarelyUsed))
		span.SetAttr("negative", len(rep.Negative))
		span.SetAttr("problem_ratio", rep.ProblemRatio)
		span.SetAttr("needs_tuning", rep.NeedsTuning)
	}
	return rep, err
}

// childOrRoot opens a child of parent, or a root span when parent is nil
// (nil-safe throughout: with tracing off it returns nil).
func (m *Manager) childOrRoot(parent *obs.Span, name string) *obs.Span {
	if parent != nil {
		return parent.Child(name)
	}
	return m.tracer.Start(name)
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
	ctx, cancel := m.roundContext(ctx)
	defer cancel()
	var rec *Recommendation
	err := m.sessions.Exclusive(func(db *engine.DB) error {
		var rerr error
		rec, rerr = m.recommendSpanned(ctx, db, m.spannedRoundWorkload(round), round)
		return rerr
	})
	return rec, err
}

// roundContext tightens ctx with the configured round timeout, if any.
func (m *Manager) roundContext(ctx context.Context) (context.Context, context.CancelFunc) {
	if m.opts.RoundTimeout > 0 {
		return context.WithTimeout(ctx, m.opts.RoundTimeout)
	}
	return ctx, func() {}
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

// CloseWindow marks a tuning-round boundary for trend tracking (no-op
// unless UseForecast consumers call it; safe to call regardless).
func (m *Manager) CloseWindow() {
	m.store.CloseWindow(forecastAlpha)
}

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
	cfg.Metrics = m.mctsRegistry()
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

// Tune is the full loop: handle workload drift (decay stale templates),
// diagnose, and when tuning is needed (or force is set), recommend and
// apply. It returns the recommendation (nil when no tuning happened). The
// whole round is traced as one span with diagnose → candgen → mcts →
// estimate → apply children.
//
// Options.RoundTimeout (or a deadline on ctx) bounds the search phases;
// the apply phase runs under the caller's ctx so a recommendation that was
// found in time is applied transactionally even if the search deadline has
// since passed.
func (m *Manager) Tune(ctx context.Context, force bool) (*Recommendation, error) {
	round := m.startRound("tune")
	defer round.End()
	if decayed := m.MaybeDecayTemplates(); decayed {
		round.SetAttr("templates_decayed", true)
	}
	searchCtx, cancel := m.roundContext(ctx)
	defer cancel()
	// The search half holds the exclusive lock (one still view of
	// statistics and templates for the whole round); the apply half runs
	// outside it so online builds can take the reader lock for their
	// snapshot phase without self-deadlocking.
	var rec *Recommendation
	skipped := false
	err := m.sessions.Exclusive(func(db *engine.DB) error {
		if !force {
			rep, derr := m.diagnoseSpanned(searchCtx, db, round)
			if derr != nil {
				return derr
			}
			if !rep.NeedsTuning {
				round.SetAttr("skipped", "no_tuning_needed")
				skipped = true
				return nil
			}
		}
		var rerr error
		rec, rerr = m.recommendSpanned(searchCtx, db, m.spannedRoundWorkload(round), round)
		return rerr
	})
	if err != nil || skipped {
		return nil, err
	}
	if _, err := m.applySpanned(ctx, rec, round); err != nil {
		return nil, err
	}
	return rec, nil
}

// spannedRoundWorkload materializes the round's workload under its own
// child span, keeping the tuning-round trace's child coverage tight.
func (m *Manager) spannedRoundWorkload(round *obs.Span) *workload.Workload {
	span := m.childOrRoot(round, "workload")
	w := m.roundWorkload()
	span.SetAttr("templates", len(w.Queries))
	span.End()
	return w
}

// MaybeDecayTemplates applies the paper's workload-shift handling: when most
// templates are stale, decay frequencies and drop cold templates.
func (m *Manager) MaybeDecayTemplates() bool {
	if m.store.StalenessRatio(stalenessWindow) >= stalenessTrigger {
		m.store.Decay(decayFactor, decayMinFreq)
		return true
	}
	return false
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
