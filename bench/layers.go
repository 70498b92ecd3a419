package main

import (
	"context"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"strings"
	"time"

	"repro/internal/autoindex"
	"repro/internal/btree"
	"repro/internal/bufferpool"
	"repro/internal/candgen"
	"repro/internal/catalog"
	"repro/internal/costmodel"
	"repro/internal/diagnosis"
	"repro/internal/engine"
	"repro/internal/hypo"
	"repro/internal/mcts"
	"repro/internal/planner"
	"repro/internal/sqlparser"
	"repro/internal/sqltypes"
	"repro/internal/storage"
	"repro/internal/template"
	"repro/internal/workload"
)

// layerTrace produces the per-layer numbers of the traced run. It has two
// sources: the traced lifecycle itself (session, autoindex, guardrail and
// runtime numbers), and replays that call each layer's public functions
// directly — the workload's statements through parse → observe → plan →
// execute, and one tuning round assembled by hand from the calls
// Manager.Recommend and Apply make.
type layerTrace struct {
	r      *run
	values map[string]float64
	// From the hand-assembled round.
	pool        []*catalog.IndexMeta
	candgenMs   float64
	searchMs    float64
	buildMsSum  float64
	assembledOK bool
}

// layerUnits declares every per-layer metric and its unit; a traced run
// reports each exactly once, 0 where the workload does not exercise it.
var layerUnits = map[string]string{
	"autoindex.apply_ms":             "ms",
	"autoindex.drop_ms":              "ms",
	"autoindex.indexes_created":      "count",
	"autoindex.indexes_dropped":      "count",
	"autoindex.observe_us":           "us",
	"autoindex.prediction_rel_err":   "ratio",
	"autoindex.prune_ms":             "ms",
	"autoindex.recommend_ms":         "ms",
	"autoindex.round_self_ms":        "ms",
	"bench.trace_overhead_pct":       "%",
	"btree.bulk_build_ms_per_100k":   "ms",
	"btree.height":                   "count",
	"btree.insert_ns":                "ns",
	"btree.pages":                    "count",
	"btree.search_ns":                "ns",
	"bufferpool.evictions":           "count",
	"bufferpool.hit_rate":            "ratio",
	"bufferpool.pin_ns":              "ns",
	"candgen.candidates":             "count",
	"candgen.generate_ms":            "ms",
	"costmodel.whatif_calls":         "count",
	"costmodel.whatif_cold_us":       "us",
	"costmodel.whatif_hit_rate":      "ratio",
	"costmodel.whatif_warm_us":       "us",
	"diagnosis.diagnose_ms":          "ms",
	"engine.allocs_per_stmt":         "count",
	"engine.analyze_ms":              "ms",
	"engine.bulkload_ms":             "ms",
	"engine.bytes_per_stmt":          "bytes",
	"engine.exec_parsed_us":          "us",
	"engine.exec_self_us":            "us",
	"engine.heap_pages_read":         "count",
	"engine.index_descents":          "count",
	"engine.index_pages_per_descent": "count",
	"engine.operator_evals":          "count",
	"engine.tuples_per_row_after":    "count",
	"engine.tuples_per_row_before":   "count",
	"guardrail.revert_ms":            "ms",
	"guardrail.reverts":              "count",
	"guardrail.window_us":            "us",
	"hypo.create_us":                 "us",
	"mcts.config_cache_hits":         "count",
	"mcts.evals_to_95pct":            "count",
	"mcts.evaluations":               "count",
	"mcts.iterations":                "count",
	"mcts.search_ms":                 "ms",
	"mcts.us_per_iteration":          "us",
	"planner.plan_allocs":            "count",
	"planner.plan_select_us":         "us",
	"runtime.gc_cycles_after":        "count",
	"runtime.gc_pause_ms_after":      "ms",
	"session.before_p99_us":          "us",
	"session.build_ms":               "ms",
	"session.build_retries":          "count",
	"session.catchup_rows":           "count",
	"session.during_p99_us":          "us",
	"session.exec_overhead_ns":       "ns",
	"session.max_concurrent_readers": "count",
	"session.max_stall_ms":           "ms",
	"session.reader_p99_us":          "us",
	"session.writer_p99_us":          "us",
	"sqlparser.parse_allocs":         "count",
	"sqlparser.parse_us":             "us",
	"storage.data_pages":             "count",
	"storage.fetch_ns":               "ns",
	"storage.insert_ns":              "ns",
	"storage.scan_ns_per_tuple":      "ns",
	"template.fingerprint_us":        "us",
	"template.match_ratio":           "ratio",
	"template.observe_us":            "us",
	"template.templates":             "count",
}

func newLayerTrace(r *run) *layerTrace {
	return &layerTrace{r: r, values: make(map[string]float64, len(layerUnits))}
}

// set records one per-layer value; an undeclared name is a bug.
func (lt *layerTrace) set(name string, v float64) {
	if _, ok := layerUnits[name]; !ok {
		panic("bench: undeclared per-layer metric " + name)
	}
	lt.values[name] = v
}

// medianNs returns the median of ns durations in the given unit divisor.
func medianNs(ns []int64, div float64) float64 {
	vs := make([]float64, len(ns))
	for i, d := range ns {
		vs[i] = float64(d) / div
	}
	return median(vs)
}

// mallocsDuring returns the mallocs and bytes allocated while fn runs.
func mallocsDuring(fn func()) (mallocs, bytes uint64) {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	fn()
	runtime.ReadMemStats(&b)
	return b.Mallocs - a.Mallocs, b.TotalAlloc - a.TotalAlloc
}

// realSecondary lists the droppable real indexes, as the manager does.
func realSecondary(cat *catalog.Catalog) []*catalog.IndexMeta {
	var out []*catalog.IndexMeta
	for _, meta := range cat.Indexes(false) {
		if !strings.HasPrefix(meta.Name, "pk_") {
			out = append(out, meta)
		}
	}
	return out
}

// tracedEvaluator is the benchmark's mcts.Evaluator: it prices a
// configuration through the estimator inside a costmodel.workload_cost span
// (a child of the search's span, so the search's self time excludes it) and
// remembers every cost, so evaluations-to-95% can be read off afterwards.
type tracedEvaluator struct {
	rec    *recorder
	parent int32
	trace  int32
	est    *costmodel.Estimator
	w      *workload.Workload
	costs  []float64
}

func (e *tracedEvaluator) WorkloadCost(ctx context.Context, active []*catalog.IndexMeta) (float64, error) {
	t0 := time.Now()
	c, err := e.est.WorkloadCostContext(ctx, e.w, active)
	d := time.Since(t0)
	e.rec.add(e.parent, e.trace, "costmodel.workload_cost", "assembled", t0, d)
	if err == nil {
		e.costs = append(e.costs, c)
	}
	return c, err
}

// evalsTo95 is the number of evaluations after which the cheapest
// configuration seen had reached 95% of the search's final benefit.
func evalsTo95(costs []float64, base, best float64) int {
	target := base - 0.95*(base-best)
	for i, c := range costs {
		if c <= target {
			return i + 1
		}
	}
	return len(costs)
}

// assembledRound runs one tuning round from outside the manager, just ahead
// of the first round whose result is kept and on the same state: diagnosis, candidate
// generation and MCTS over what-if costs under the exclusive lock (as the
// manager searches), then one online build per recommended index. What it
// built is dropped again, so the kept round starts where it would have.
func (lt *layerTrace) assembledRound() error {
	r := lt.r
	inst, rec := r.inst, r.rec
	ctx := r.ctx
	trace := rec.newTrace()
	root := rec.begin(0, trace, "round", "assembled")
	defer rec.end(root)

	var pruned []*catalog.IndexMeta
	if inst.def.style == roundPrune {
		// The bulk removal is the manager's own loop over what-if costs; it
		// has no layer-level equivalent, so it runs through the manager.
		var w *workload.Workload
		_ = inst.sm.Exclusive(func(*engine.DB) error { w = inst.mgr.TemplateStore().Workload(); return nil })
		id := rec.begin(root, trace, "autoindex.prune", "assembled")
		drops, err := inst.mgr.PruneRecommendation(ctx, w)
		rec.end(id)
		r.op("assembled prune", err)
		if err != nil {
			return err
		}
		id = rec.begin(root, trace, "autoindex.drop", "assembled")
		rep, err := inst.mgr.ApplyDrops(ctx, drops)
		rec.end(id)
		r.op("assembled drop", err)
		if err != nil {
			return err
		}
		pruned = rep.Dropped
	}

	est := inst.mgr.Estimator()
	hits0, misses0, _ := est.CacheStats()
	var res *mcts.Result
	var searchSelfNs int64
	eval := &tracedEvaluator{rec: rec, trace: trace, est: est}
	err := inst.sm.Exclusive(func(db *engine.DB) error {
		cat := db.Catalog()
		w := inst.mgr.TemplateStore().Workload()
		eval.w = w
		gen := candgen.NewGenerator(cat)

		id := rec.begin(root, trace, "diagnosis.diagnose", "assembled")
		_, err := diagnosis.Diagnose(ctx, cat, db.IndexUsage(), db.StatementCount(), w, est, gen, diagnosis.Config{})
		lt.set("diagnosis.diagnose_ms", ms(rec.end(id)))
		if err != nil {
			return err
		}

		id = rec.begin(root, trace, "candgen.generate", "assembled")
		cands := gen.Generate(ctx, w)
		lt.candgenMs = ms(rec.end(id))
		if len(cands) > 24 {
			cands = cands[:24] // the manager's default MaxCandidates
		}
		lt.pool = lt.pool[:0]
		for _, c := range cands {
			lt.pool = append(lt.pool, c.Meta)
		}

		id = rec.begin(root, trace, "mcts.search", "assembled")
		eval.parent = id
		res, err = mcts.Search(ctx, eval, realSecondary(cat), lt.pool, mctsConfig())
		lt.searchMs = ms(rec.end(id))
		searchSelfNs = rec.selfNs(id)
		return err
	})
	r.op("assembled search", err)
	if err != nil {
		return err
	}
	hits1, misses1, _ := est.CacheStats()
	lt.set("candgen.generate_ms", lt.candgenMs)
	lt.set("candgen.candidates", float64(len(lt.pool)))
	lt.set("mcts.search_ms", lt.searchMs)
	lt.set("mcts.iterations", float64(res.Iterations))
	lt.set("mcts.evaluations", float64(res.Evaluations))
	lt.set("mcts.config_cache_hits", float64(res.CacheHits))
	lt.set("mcts.evals_to_95pct", float64(evalsTo95(eval.costs, res.BaseCost, res.BestCost)))
	if res.Iterations > 0 {
		lt.set("mcts.us_per_iteration", float64(searchSelfNs)/1e3/float64(res.Iterations))
	}
	calls := float64(hits1 - hits0 + misses1 - misses0)
	lt.set("costmodel.whatif_calls", calls)
	if calls > 0 {
		lt.set("costmodel.whatif_hit_rate", float64(hits1-hits0)/calls)
	}

	// Builds: one online build per index the search added.
	byKey := make(map[string]*catalog.IndexMeta, len(lt.pool))
	for _, p := range lt.pool {
		byKey[p.Key()] = p
	}
	var built []string
	var buildMs []float64
	var retries int
	for _, key := range res.AddedKeys {
		spec := byKey[key]
		name := "bench_" + spec.Table + "_" + strings.Join(spec.Columns, "_")
		id := rec.begin(root, trace, "session.build_index_online", "assembled")
		rep, err := inst.sm.BuildIndexOnline(ctx, engine.IndexBuildSpec{Name: name, Table: spec.Table, Columns: spec.Columns, Unique: spec.Unique, Local: spec.Local})
		d := rec.end(id)
		r.op("assembled build "+name, err)
		if err != nil {
			return err
		}
		built = append(built, name)
		buildMs = append(buildMs, ms(d))
		lt.buildMsSum += ms(d)
		retries += rep.Retries
	}
	lt.set("session.build_ms", median(buildMs))
	lt.set("session.build_retries", float64(retries))

	// Undo, untimed.
	for _, name := range built {
		err := inst.sm.Exclusive(func(db *engine.DB) error { return db.DropIndex(name) })
		r.op("assembled undo "+name, err)
	}
	r.reset(tuneResult{dropped: pruned})
	lt.assembledOK = true
	return nil
}

// pinOnce is one Pin/Unpin pair on a resident page.
func pinOnce(pool *bufferpool.Manager, id bufferpool.PageID) {
	pool.Pin(id)
	defer pool.Unpin(id)
}

// largestTable returns the table with the most heap pages.
func largestTable(db *engine.DB) *catalog.Table {
	var best *catalog.Table
	for _, t := range db.Catalog().Tables() {
		if best == nil || db.Heap(t.Name).NumPages() > db.Heap(best.Name).NumPages() {
			best = t
		}
	}
	return best
}

// statementReplay runs the workload's replay stream through the layers of
// the statement path one call at a time: stmt → {sqlparser.parse,
// template.observe, planner.plan_select, engine.exec_parsed}. The manager is
// detached, so engine.exec_parsed is the engine alone and template.observe
// is measured on the benchmark's own store.
func (lt *layerTrace) statementReplay() {
	r := lt.r
	inst, rec, db := r.inst, r.rec, r.inst.db
	inst.mgr.Detach()
	store := template.NewStore(0)
	var stats engine.ExecStats
	var selfNs []int64
	parsed := make([]sqlparser.Statement, 0, len(inst.replay))
	for _, sql := range inst.replay {
		trace := rec.newTrace()
		root := rec.begin(0, trace, "stmt", "replay")
		id := rec.begin(root, trace, "sqlparser.parse", "replay")
		stmt, err := sqlparser.Parse(sql)
		rec.end(id)
		if err != nil {
			r.op("replay parse "+sql, err)
			rec.end(root)
			continue
		}
		parsed = append(parsed, stmt)
		id = rec.begin(root, trace, "template.observe", "replay")
		_, _, err = store.ObserveSQL(sql)
		rec.end(id)
		r.op("replay observe", err)
		var planNs int64 = -1
		if sel, ok := stmt.(*sqlparser.SelectStmt); ok {
			id = rec.begin(root, trace, "planner.plan_select", "replay")
			_, err = planner.PlanSelect(db.Catalog(), sel)
			planNs = rec.end(id).Nanoseconds()
			r.op("replay plan", err)
		}
		id = rec.begin(root, trace, "engine.exec_parsed", "replay")
		res, err := db.ExecParsed(sql, stmt)
		execNs := rec.end(id).Nanoseconds()
		r.op("replay exec "+sql, err)
		rec.end(root)
		if err == nil {
			stats.Add(res.Stats)
			if planNs >= 0 {
				selfNs = append(selfNs, execNs-planNs)
			}
		}
	}
	n := float64(len(parsed))
	lt.set("sqlparser.parse_us", medianNs(rec.named("sqlparser.parse"), 1e3))
	lt.set("template.observe_us", medianNs(rec.named("template.observe"), 1e3))
	lt.set("planner.plan_select_us", medianNs(rec.named("planner.plan_select"), 1e3))
	lt.set("engine.exec_parsed_us", medianNs(rec.named("engine.exec_parsed"), 1e3))
	lt.set("engine.exec_self_us", math.Max(0, medianNs(selfNs, 1e3)))
	matches, misses := store.MatchStats()
	lt.set("template.templates", float64(store.Len()))
	lt.set("template.match_ratio", float64(matches)/math.Max(1, float64(matches+misses)))
	lt.set("engine.operator_evals", float64(stats.OperatorEvals)/n)
	lt.set("engine.heap_pages_read", float64(stats.IO.HeapPagesRead)/n)
	lt.set("engine.index_descents", float64(stats.IndexDescents)/n)
	lt.set("engine.index_pages_per_descent", float64(stats.IO.IndexPagesRead)/math.Max(1, float64(stats.IndexDescents)))

	// Fingerprint on already-parsed statements, one timed call each.
	fpNs := make([]int64, 0, len(parsed))
	for _, stmt := range parsed {
		t0 := time.Now()
		_, _, err := template.Fingerprint(stmt)
		fpNs = append(fpNs, time.Since(t0).Nanoseconds())
		r.op("replay fingerprint", err)
	}
	lt.set("template.fingerprint_us", medianNs(fpNs, 1e3))

	// Allocation counts: each layer alone, in a loop with nothing between
	// the calls (the second execution of the stream only adds rows).
	mallocs, _ := mallocsDuring(func() {
		for _, sql := range inst.replay {
			_, _ = sqlparser.Parse(sql)
		}
	})
	lt.set("sqlparser.parse_allocs", float64(mallocs)/n)
	var selects []*sqlparser.SelectStmt
	for _, stmt := range parsed {
		if sel, ok := stmt.(*sqlparser.SelectStmt); ok {
			selects = append(selects, sel)
		}
	}
	mallocs, _ = mallocsDuring(func() {
		for _, sel := range selects {
			_, _ = planner.PlanSelect(db.Catalog(), sel)
		}
	})
	lt.set("planner.plan_allocs", float64(mallocs)/math.Max(1, float64(len(selects))))
	mallocs, bytes := mallocsDuring(func() {
		for _, stmt := range parsed {
			_, err := db.ExecStmt(stmt)
			r.op("replay exec (allocs)", err)
		}
	})
	lt.set("engine.allocs_per_stmt", float64(mallocs)/n)
	lt.set("engine.bytes_per_stmt", float64(bytes)/n)

	// session.exec_overhead_ns: the same SELECTs through the session layer
	// and straight into the engine, alternating.
	if len(selects) > 2000 {
		selects = selects[:2000]
	}
	var viaSession, direct []int64
	for _, sel := range selects {
		sql := sel.String()
		t0 := time.Now()
		_, err := inst.sm.Exec(sql)
		viaSession = append(viaSession, time.Since(t0).Nanoseconds())
		r.op("overhead session exec", err)
		t0 = time.Now()
		_, err = db.Exec(sql)
		direct = append(direct, time.Since(t0).Nanoseconds())
		r.op("overhead engine exec", err)
	}
	lt.set("session.exec_overhead_ns", math.Max(0, medianNs(viaSession, 1)-medianNs(direct, 1)))

	// autoindex.observe_us: Manager.Observe including its mutex.
	obsNs := make([]int64, 0, len(inst.replay))
	for _, sql := range inst.replay {
		t0 := time.Now()
		err := inst.mgr.Observe(sql)
		obsNs = append(obsNs, time.Since(t0).Nanoseconds())
		r.op("replay manager observe", err)
	}
	lt.set("autoindex.observe_us", medianNs(obsNs, 1e3))
}

// storageReplay measures heap, B+Tree and buffer pool through their own
// public functions on the workload's final state.
func (lt *layerTrace) storageReplay() {
	r := lt.r
	db := r.inst.db
	t := largestTable(db)
	heap := db.Heap(t.Name)

	// Heap scan, point fetch, insert.
	var tuples []sqltypes.Tuple
	var rids []btree.RID
	scanNs := make([]float64, 0, 5)
	for rep := 0; rep < 5; rep++ {
		var n int64
		t0 := time.Now()
		heap.ScanBatch(nil, func(b *storage.Batch) bool {
			n += int64(b.Len())
			return true
		})
		scanNs = append(scanNs, float64(time.Since(t0).Nanoseconds())/math.Max(1, float64(n)))
	}
	lt.set("storage.scan_ns_per_tuple", median(scanNs))
	heap.Scan(nil, func(rid btree.RID, tup sqltypes.Tuple) bool {
		rids = append(rids, rid)
		tuples = append(tuples, tup)
		return len(rids) < 20000
	})
	t0 := time.Now()
	for _, rid := range rids {
		_ = heap.Fetch(rid, nil)
	}
	lt.set("storage.fetch_ns", float64(time.Since(t0).Nanoseconds())/float64(len(rids)))
	scratch := storage.NewHeap()
	t0 = time.Now()
	for _, tup := range tuples {
		scratch.Insert(tup, nil)
	}
	lt.set("storage.insert_ns", float64(time.Since(t0).Nanoseconds())/float64(len(tuples)))
	lt.set("storage.data_pages", float64(db.TotalDataPages()))

	// B+Tree: the largest live unique tree, so that one SearchEq is one
	// point probe whatever the recommended set is.
	var tree *btree.Tree
	for _, meta := range db.Catalog().Indexes(false) {
		for _, tr := range db.IndexTrees(meta.Name) {
			if meta.Unique && (tree == nil || tr.Len() > tree.Len()) {
				tree = tr
			}
		}
	}
	var entries []btree.Entry
	tree.ScanRange(nil, nil, true, true, func(e btree.Entry) bool {
		entries = append(entries, e)
		return len(entries) < 100000
	})
	rng := rand.New(rand.NewSource(r.inst.seed))
	probes := 20000
	t0 = time.Now()
	for i := 0; i < probes; i++ {
		_ = tree.SearchEq(entries[rng.Intn(len(entries))].Key)
	}
	lt.set("btree.search_ns", float64(time.Since(t0).Nanoseconds())/float64(probes))
	shuffled := append([]btree.Entry(nil), entries...)
	rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	fresh := btree.New(engine.BTreeOrder)
	t0 = time.Now()
	for _, e := range shuffled {
		fresh.Insert(e.Key, e.RID)
	}
	lt.set("btree.insert_ns", float64(time.Since(t0).Nanoseconds())/float64(len(shuffled)))
	t0 = time.Now()
	_ = btree.BulkBuild(shuffled, engine.BTreeOrder)
	lt.set("btree.bulk_build_ms_per_100k", ms(time.Since(t0))*1e5/float64(len(shuffled)))
	lt.set("btree.height", float64(tree.Height()))
	lt.set("btree.pages", float64(tree.NumPages()))

	// Buffer pool: Pin+Unpin of a resident page.
	pool := db.BufferPool()
	id := bufferpool.PageID{Table: 0, Page: 0}
	pool.Touch(id)
	const pins = 200000
	t0 = time.Now()
	for i := 0; i < pins; i++ {
		pinOnce(pool, id)
	}
	lt.set("bufferpool.pin_ns", float64(time.Since(t0).Nanoseconds())/pins)

	// Bulk load and ANALYZE, the two engine calls setup_s is made of: the
	// largest table's tuples into a scratch engine with the same schema.
	ddl := &sqlparser.CreateTableStmt{Table: t.Name, PrimaryKey: t.PrimaryKey}
	for _, c := range t.Columns {
		ddl.Columns = append(ddl.Columns, sqlparser.ColumnDef{Name: c.Name, Type: c.Type})
	}
	side := engine.New()
	err := side.CreateTable(ddl)
	r.op("scratch create table", err)
	if err == nil {
		t0 = time.Now()
		err = side.BulkLoad(t.Name, tuples)
		lt.set("engine.bulkload_ms", ms(time.Since(t0)))
		r.op("scratch bulk load", err)
		t0 = time.Now()
		err = side.AnalyzeAll()
		lt.set("engine.analyze_ms", ms(time.Since(t0)))
		r.op("scratch analyze", err)
	}
}

// tunerReplay measures hypothetical-index creation and what-if costing on
// their own, under the exclusive lock as the manager calls them.
func (lt *layerTrace) tunerReplay() {
	r := lt.r
	inst := r.inst
	err := inst.sm.Exclusive(func(db *engine.DB) error {
		cat := db.Catalog()
		var createNs []int64
		for _, spec := range lt.pool {
			t0 := time.Now()
			s := hypo.NewSession(cat)
			_, err := s.Create("", spec.Table, spec.Columns)
			s.Close()
			createNs = append(createNs, time.Since(t0).Nanoseconds())
			if err != nil {
				return err
			}
		}
		lt.set("hypo.create_us", medianNs(createNs, 1e3))

		w := inst.mgr.TemplateStore().Workload()
		if len(w.Queries) == 0 {
			return nil
		}
		est := costmodel.NewEstimator(cat)
		active := realSecondary(cat)
		var cold, warm []float64
		for rep := 0; rep < 5; rep++ {
			est.FlushCache()
			t0 := time.Now()
			if _, err := est.WorkloadCost(w, active); err != nil {
				return err
			}
			cold = append(cold, float64(time.Since(t0).Nanoseconds())/1e3/float64(len(w.Queries)))
			t0 = time.Now()
			if _, err := est.WorkloadCost(w, active); err != nil {
				return err
			}
			warm = append(warm, float64(time.Since(t0).Nanoseconds())/1e3/float64(len(w.Queries)))
		}
		lt.set("costmodel.whatif_cold_us", median(cold))
		lt.set("costmodel.whatif_warm_us", median(warm))
		return nil
	})
	r.op("tuner replay", err)
}

// plantedRevert plants the deliberately bad stock(s_ytd, s_order_cnt) index
// through the manager and feeds the guardrail windows until it reverts it.
func (lt *layerTrace) plantedRevert() {
	r := lt.r
	if !r.inst.def.planted || r.ctrl == nil || len(r.after) == 0 {
		return
	}
	before := r.ctrl.Reverts()
	_, err := r.inst.mgr.Apply(r.ctx, &autoindex.Recommendation{
		Create: []*catalog.IndexMeta{{Table: "stock", Columns: []string{"s_ytd", "s_order_cnt"}}},
	})
	r.op("plant index", err)
	if err != nil {
		return
	}
	// No statement probes the planted index, so the third window's verdict
	// is "unused" and the window call carries the revert.
	cost := r.after[len(r.after)-1].costPerStmt
	var last time.Duration
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		r.inst.mgr.ObserveMeasuredCost(cost)
		last = time.Since(t0)
	}
	lt.set("guardrail.revert_ms", ms(last))
	lt.set("guardrail.reverts", float64(r.ctrl.Reverts()-before))
}

// metrics assembles every per-layer metric: lifecycle-derived numbers
// first, then the replays (which disturb the final state).
func (lt *layerTrace) metrics() []metric {
	r := lt.r
	db := r.inst.db

	pool := db.BufferPool().Stats()
	lt.set("bufferpool.hit_rate", float64(pool.Hits)/math.Max(1, float64(pool.Hits+pool.Misses)))
	lt.set("bufferpool.evictions", float64(pool.Evictions))

	// Session numbers of the traced lifecycle.
	during, _ := r.duringTail()
	lt.set("session.during_p99_us", during)
	lt.set("session.before_p99_us", medianOver(r.before, func(s roundStats) float64 { return s.p99us }))
	lt.set("session.max_stall_ms", median(r.stallsMs))
	slices.Sort(r.readerLat)
	slices.Sort(r.writerLat)
	lt.set("session.reader_p99_us", float64(percentile(r.readerLat, 99))/1e3)
	lt.set("session.writer_p99_us", float64(percentile(r.writerLat, 99))/1e3)
	lt.set("session.max_concurrent_readers", float64(r.inst.sm.MaxConcurrentReaders()))
	var catchup, recMs, applyMs, pruneMs, dropMs []float64
	for _, t := range r.tunes {
		catchup = append(catchup, float64(t.catchupRows))
		recMs = append(recMs, t.recommendMs)
		applyMs = append(applyMs, t.applyMs)
		pruneMs = append(pruneMs, t.pruneMs)
		dropMs = append(dropMs, t.dropMs)
	}
	lt.set("session.catchup_rows", median(catchup))
	lt.set("autoindex.recommend_ms", median(recMs))
	lt.set("autoindex.apply_ms", median(applyMs))
	lt.set("autoindex.prune_ms", median(pruneMs))
	lt.set("autoindex.drop_ms", median(dropMs))

	// The quiet round against the hand-assembled one: what is left once
	// candidate generation, search and builds are taken out is the
	// manager's own work (prune, freeloader check, ledger, drops).
	last := r.final
	if last == nil && len(r.tunes) > 0 {
		last = &r.tunes[len(r.tunes)-1]
	}
	if last != nil {
		if lt.assembledOK {
			lt.set("autoindex.round_self_ms", math.Max(0, last.wallMs-lt.candgenMs-lt.searchMs-lt.buildMsSum))
		}
		lt.set("autoindex.indexes_created", float64(len(last.created)))
		lt.set("autoindex.indexes_dropped", float64(len(last.dropped)))
		lt.set("autoindex.prediction_rel_err", predictionRelErr(last.rec, r.before, r.after))
	}
	lt.set("guardrail.window_us", medianNs(r.windowNs, 1e3))

	var tuplesB, rowsB, tuplesA, rowsA int64
	for _, s := range r.before {
		tuplesB, rowsB = tuplesB+s.tuples, rowsB+s.rows
	}
	for _, s := range r.after {
		tuplesA, rowsA = tuplesA+s.tuples, rowsA+s.rows
	}
	lt.set("engine.tuples_per_row_before", float64(tuplesB)/math.Max(1, float64(rowsB)))
	lt.set("engine.tuples_per_row_after", float64(tuplesA)/math.Max(1, float64(rowsA)))

	lt.set("runtime.gc_cycles_after", float64(r.gcAfter.cycles))
	lt.set("runtime.gc_pause_ms_after", float64(r.gcAfter.pauseNs)/1e6)
	traced := medianOver(r.afterTraced, func(s roundStats) float64 { return s.stmtsPerS })
	untraced := medianOver(r.afterUntraced, func(s roundStats) float64 { return s.stmtsPerS })
	overhead := 0.0
	if untraced > 0 && traced > 0 {
		overhead = math.Max(0, 100*(untraced-traced)/untraced)
	}
	lt.set("bench.trace_overhead_pct", overhead)

	lt.statementReplay()
	lt.storageReplay()
	lt.tunerReplay()
	lt.plantedRevert()

	out := make([]metric, 0, len(layerUnits))
	for name, unit := range layerUnits {
		out = append(out, metric{Name: name, Value: lt.values[name], Unit: unit})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// predictionRelErr compares the share of workload cost the estimator
// promised to remove with the share the measured cost per statement fell by.
func predictionRelErr(rec *autoindex.Recommendation, before, after []roundStats) float64 {
	if rec == nil || rec.BaseCost <= 0 || len(before) == 0 || len(after) == 0 {
		return 0
	}
	predicted := rec.EstimatedBenefit / rec.BaseCost
	b := medianOver(before, func(s roundStats) float64 { return s.costPerStmt })
	a := medianOver(after, func(s roundStats) float64 { return s.costPerStmt })
	if b <= 0 || b == a {
		return 0
	}
	measured := (b - a) / b
	return math.Abs(predicted-measured) / math.Abs(measured)
}
