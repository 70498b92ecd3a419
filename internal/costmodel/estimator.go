package costmodel

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/catalog"
	"repro/internal/obs"
	"repro/internal/planner"
	"repro/internal/sqlparser"
	"repro/internal/workload"
)

// Estimator prices statements and whole workloads under arbitrary index
// configurations using what-if planning plus the (optionally trained)
// regression model. It never builds an index and never writes the catalog:
// a configuration is priced by planning against a catalog.WithIndexes view
// that holds exactly that configuration.
//
// WorkloadCost runs through a per-query atomic-configuration cost cache
// (CoPhy-style): a query's plan can only depend on the indexes sitting on
// the tables it references, so its cost is cached under the key
// (template SQL, relevant-index-subset) and reused across every
// configuration that agrees on those tables. MCTS evaluates hundreds of
// configurations differing by one index; all queries not touching that
// index's table hit the cache.
type Estimator struct {
	cat   *catalog.Catalog
	model *Regression
	// IgnoreWriteCosts zeroes the index-maintenance features (C^io, C^cpu),
	// mimicking estimators that only price reads — the limitation the paper
	// attributes to prior plan-based ML methods (§V). Ablation knob.
	IgnoreWriteCosts bool
	// CacheDisabled turns the per-query cost cache off (ablation and
	// equivalence-testing knob); every query re-plans on every call.
	CacheDisabled bool

	mu sync.RWMutex
	// cache maps "templateSQL \x00 relevantSubsetKey" → query cost.
	cache map[string]float64
	// tables memoizes sqlparser.ReferencedTables per query SQL. The SQL
	// carries the template's sample literals, which change from round to
	// round, so the memo is dropped with the cache.
	tables                map[string][]string
	epoch                 cacheEpoch
	hits, misses, flushes int64
	// Instruments are nil when detached; obs instruments are nil-safe.
	mHits, mMisses, mFlushes *obs.Counter
	mSize                    *obs.Gauge
}

// cacheEpoch captures everything outside the cache key that a cached cost
// depends on. Any change flushes the cache.
type cacheEpoch struct {
	catalogGen   uint64 // schema + statistics version (bumped by engine writes/ANALYZE/DDL)
	modelGen     uint64 // regression retraining version
	ignoreWrites bool   // IgnoreWriteCosts knob
	initialized  bool
}

// maxCacheEntries bounds the cost cache; beyond it new entries are simply
// not inserted (correct, just slower) until the next epoch flush.
const maxCacheEntries = 1 << 16

// NewEstimator creates an estimator over the catalog with an untrained
// model (predictions fall back to the static formula until Train is called).
func NewEstimator(cat *catalog.Catalog) *Estimator {
	return &Estimator{cat: cat, model: NewRegression(0, 0, 0)}
}

// Model exposes the underlying regression model.
func (e *Estimator) Model() *Regression { return e.model }

// Train fits the regression model on logged samples. A successful fit bumps
// the model generation, flushing the per-query cost cache on next use.
func (e *Estimator) Train(samples []Sample) error { return e.model.Fit(samples) }

// Instrument attaches (or with nil detaches) a metrics registry: the
// what-if cache exports costmodel_whatif_cache_{hits,misses,invalidations}
// counters and a costmodel_whatif_cache_size gauge. Registry methods and
// the resulting instruments are nil-safe, so a nil registry just detaches.
func (e *Estimator) Instrument(reg *obs.Registry) {
	if reg == nil {
		e.mHits, e.mMisses, e.mFlushes, e.mSize = nil, nil, nil, nil
		return
	}
	e.mHits = reg.Counter("costmodel_whatif_cache_hits_total", "Per-query what-if cost cache hits")
	e.mMisses = reg.Counter("costmodel_whatif_cache_misses_total", "Per-query what-if cost cache misses")
	e.mFlushes = reg.Counter("costmodel_whatif_cache_invalidations_total", "Per-query what-if cost cache flushes (stats/model/knob changes)")
	e.mSize = reg.Gauge("costmodel_whatif_cache_size", "Per-query what-if cost cache entries")
}

// CacheStats reports cumulative per-query cache hits and misses plus the
// current entry count.
func (e *Estimator) CacheStats() (hits, misses int64, size int) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.hits, e.misses, len(e.cache)
}

// FlushCache drops every cached per-query cost.
func (e *Estimator) FlushCache() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.flushCacheLocked()
}

func (e *Estimator) flushCacheLocked() {
	if len(e.cache) > 0 {
		e.flushes++
		e.mFlushes.Inc()
	}
	e.cache = make(map[string]float64)
	e.tables = make(map[string][]string)
	e.mSize.Set(0)
}

// revalidate flushes the cache when the catalog generation, the model
// generation, or the IgnoreWriteCosts knob changed since it was filled.
func (e *Estimator) revalidate() {
	cur := cacheEpoch{
		catalogGen:   e.cat.Generation(),
		modelGen:     e.model.Generation(),
		ignoreWrites: e.IgnoreWriteCosts,
		initialized:  true,
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.cache == nil || cur != e.epoch {
		e.flushCacheLocked()
		e.epoch = cur
	}
}

// ComputeFeatures plans one statement against the catalog as it stands and
// extracts the paper's cost features.
func (e *Estimator) ComputeFeatures(stmt sqlparser.Statement) (Features, error) {
	return e.features(e.cat, stmt)
}

// features is ComputeFeatures against cat: the live catalog, or the view of
// one what-if configuration.
func (e *Estimator) features(cat *catalog.Catalog, stmt sqlparser.Statement) (Features, error) {
	switch s := stmt.(type) {
	case *sqlparser.SelectStmt:
		// Plan a deep copy: planning mutates expressions (name resolution),
		// and the same template is re-planned under many configurations.
		plan, err := planner.PlanSelect(cat, s.CloneSelect())
		if err != nil {
			return Features{}, err
		}
		return Features{CData: plan.EstCost()}, nil
	case *sqlparser.InsertStmt, *sqlparser.UpdateStmt, *sqlparser.DeleteStmt:
		wp, err := planner.PlanWrite(cat, stmt.Clone())
		if err != nil {
			return Features{}, err
		}
		f := Features{CData: wp.ScanCost + wp.WriteCost}
		if !e.IgnoreWriteCosts {
			for _, m := range wp.MaintainIndexes {
				f.CIO += m.IOCost
				f.CCPU += m.StartupCost + m.RunningCost
			}
		}
		return f, nil
	default:
		return Features{}, fmt.Errorf("costmodel: unsupported statement %T", stmt)
	}
}

// WorkloadCost estimates the weighted total cost of the workload as if
// exactly the given index set existed (plus primary-key indexes, which are
// never removable). Entries may be real indexes (kept), real indexes absent
// from the set (treated as removed), or candidate specs (hypothetically
// created).
func (e *Estimator) WorkloadCost(w *workload.Workload, active []*catalog.IndexMeta) (float64, error) {
	return e.WorkloadCostContext(context.Background(), w, active)
}

// WorkloadCostContext is WorkloadCost under a context: the per-query loop
// stops at cancellation and returns ctx.Err(). With a never-cancelled
// context the ctx checks always see nil, so the result is bit-identical to
// WorkloadCost — cancellation plumbing adds no nondeterminism.
func (e *Estimator) WorkloadCostContext(ctx context.Context, w *workload.Workload, active []*catalog.IndexMeta) (float64, error) {
	view, err := e.cat.WithIndexes(active)
	if err != nil {
		return 0, err
	}
	var lookup *configLookup
	if !e.CacheDisabled {
		e.revalidate()
		lookup = newConfigLookup(active)
	}
	var total float64
	for i := range w.Queries {
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		q := &w.Queries[i]
		cost, err := e.queryCost(view, q, lookup)
		if err != nil {
			return 0, fmt.Errorf("costmodel: query %q: %w", q.SQL, err)
		}
		total += cost * q.Weight
	}
	return total, nil
}

// queryCost prices one workload query under the view's configuration,
// consulting the per-query cache when a configuration lookup is supplied.
// The cached value is the unweighted model cost — weights are applied by the
// caller, so evolving template frequencies never invalidate entries.
func (e *Estimator) queryCost(view *catalog.Catalog, q *workload.Query, lookup *configLookup) (float64, error) {
	if lookup == nil {
		return e.planCost(view, q.Stmt)
	}
	key := q.SQL + "\x00" + lookup.subsetKey(e.tablesOf(q))
	e.mu.RLock()
	c, ok := e.cache[key]
	e.mu.RUnlock()
	if ok {
		e.mu.Lock()
		e.hits++
		e.mu.Unlock()
		e.mHits.Inc()
		return c, nil
	}
	c, err := e.planCost(view, q.Stmt)
	if err != nil {
		return 0, err
	}
	e.mu.Lock()
	e.misses++
	if len(e.cache) < maxCacheEntries {
		e.cache[key] = c
	}
	size := len(e.cache)
	e.mu.Unlock()
	e.mMisses.Inc()
	e.mSize.Set(float64(size))
	return c, nil
}

// planCost plans one statement against cat and prices its features with the
// model (the static formula until the model is trained).
func (e *Estimator) planCost(cat *catalog.Catalog, stmt sqlparser.Statement) (float64, error) {
	f, err := e.features(cat, stmt)
	if err != nil {
		return 0, err
	}
	return e.model.Predict(f), nil
}

// tablesOf returns (memoized) the base tables a query references.
func (e *Estimator) tablesOf(q *workload.Query) []string {
	e.mu.RLock()
	t, ok := e.tables[q.SQL]
	e.mu.RUnlock()
	if ok {
		return t
	}
	t = sqlparser.ReferencedTables(q.Stmt)
	e.mu.Lock()
	e.tables[q.SQL] = t
	e.mu.Unlock()
	return t
}

// configLookup resolves, for one pinned configuration, the canonical cache
// key of the index subset relevant to a set of tables. Atom keys carry the
// planner-visible index statistics, so two same-named hypothetical specs
// with different size estimates never collide.
type configLookup struct {
	byTable map[string]string // table → "atom|atom|..." (atoms sorted)
}

func newConfigLookup(active []*catalog.IndexMeta) *configLookup {
	if len(active) == 0 {
		return &configLookup{}
	}
	type atom struct{ table, key string }
	atoms := make([]atom, len(active))
	for i, idx := range active {
		atoms[i] = atom{table: idx.Table, key: atomKey(idx)}
	}
	sort.Slice(atoms, func(i, j int) bool {
		if atoms[i].table != atoms[j].table {
			return atoms[i].table < atoms[j].table
		}
		return atoms[i].key < atoms[j].key
	})
	byTable := make(map[string]string, len(atoms))
	var b strings.Builder
	for i := 0; i < len(atoms); {
		j := i
		b.Reset()
		for ; j < len(atoms) && atoms[j].table == atoms[i].table; j++ {
			if j > i {
				b.WriteByte('|')
			}
			b.WriteString(atoms[j].key)
		}
		byTable[atoms[i].table] = b.String()
		i = j
	}
	return &configLookup{byTable: byTable}
}

// subsetKey assembles the cache-key fragment for the given (sorted) tables.
func (l *configLookup) subsetKey(tables []string) string {
	if len(l.byTable) == 0 {
		return ""
	}
	var b strings.Builder
	for _, t := range tables {
		if s, ok := l.byTable[t]; ok {
			if b.Len() > 0 {
				b.WriteByte('|')
			}
			b.WriteString(s)
		}
	}
	return b.String()
}

// atomKey identifies one active index for cache purposes: canonical
// identity plus the statistics the planner prices with.
func atomKey(m *catalog.IndexMeta) string {
	var b strings.Builder
	b.WriteString(m.Key())
	b.WriteByte('#')
	b.WriteString(strconv.FormatInt(m.SizeBytes, 10))
	b.WriteByte(':')
	b.WriteString(strconv.Itoa(m.Height))
	b.WriteByte(':')
	b.WriteString(strconv.FormatInt(m.NumTuples, 10))
	b.WriteByte(':')
	b.WriteString(strconv.FormatInt(m.NumPages, 10))
	if m.Unique {
		b.WriteString(":u")
	}
	return b.String()
}

// Benefit returns cost(W, base) - cost(W, base ∪ {extra}) — the paper's
// B(I) for one additional index on top of a configuration.
func (e *Estimator) Benefit(w *workload.Workload, base []*catalog.IndexMeta, extra *catalog.IndexMeta) (float64, error) {
	return e.BenefitContext(context.Background(), w, base, extra)
}

// BenefitContext is Benefit under a context (see WorkloadCostContext).
func (e *Estimator) BenefitContext(ctx context.Context, w *workload.Workload, base []*catalog.IndexMeta, extra *catalog.IndexMeta) (float64, error) {
	before, err := e.WorkloadCostContext(ctx, w, base)
	if err != nil {
		return 0, err
	}
	after, err := e.WorkloadCostContext(ctx, w, append(append([]*catalog.IndexMeta{}, base...), extra))
	if err != nil {
		return 0, err
	}
	return before - after, nil
}
