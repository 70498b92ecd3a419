package engine

import (
	"fmt"
	"slices"
	"strings"
	"time"

	"repro/internal/btree"
	"repro/internal/catalog"
	"repro/internal/planner"
	"repro/internal/sqlparser"
	"repro/internal/sqltypes"
	"repro/internal/storage"
)

// Exec parses and executes one SQL string.
func (db *DB) Exec(sql string) (*Result, error) {
	stmt, err := sqlparser.Parse(sql)
	if err != nil {
		return nil, err
	}
	return db.ExecParsed(sql, stmt)
}

// ExecParsed executes an already-parsed statement, still running the
// observer on the original SQL text. The session layer parses once to
// classify reads vs writes and then routes here.
func (db *DB) ExecParsed(sql string, stmt sqlparser.Statement) (*Result, error) {
	if db.observer != nil {
		db.observer(sql)
	}
	return db.ExecStmt(stmt)
}

// ExecStmt executes a parsed statement, returning rows (for reads) and the
// measured ExecStats. It is panic-safe: internal panics (including injected
// faults surfacing from paths without an error return) are recovered here and
// returned as errors, so one poisoned statement cannot kill the process.
func (db *DB) ExecStmt(stmt sqlparser.Statement) (res *Result, err error) {
	st := &stmtState{}
	db.statements.Add(1)
	// Wall-clock service time is only measured while instrumented: the
	// latency hook the load generator and bench snapshots read, and two
	// clock reads the detached hot path never pays.
	var wallStart time.Time
	if db.metrics != nil {
		wallStart = time.Now()
	}
	// LIFO: recoverToError runs first and settles err, then the metrics
	// defer counts the failure (covering both returned and recovered errors).
	defer func() {
		if err != nil && db.metrics != nil {
			db.metrics.stmtTotal.Inc()
			db.metrics.stmtErrors.Inc()
			db.metrics.stmtSeconds.Observe(time.Since(wallStart).Seconds())
		}
	}()
	defer db.recoverToError("ExecStmt", &res, &err)
	switch s := stmt.(type) {
	case *sqlparser.SelectStmt:
		res, err = db.execSelect(st, s)
	case *sqlparser.InsertStmt:
		res, err = db.execInsert(st, s)
	case *sqlparser.UpdateStmt:
		res, err = db.execUpdate(st, s)
	case *sqlparser.DeleteStmt:
		res, err = db.execDelete(st, s)
	case *sqlparser.CreateTableStmt:
		err = db.CreateTable(s)
		res = &Result{}
	case *sqlparser.CreateIndexStmt:
		err = db.createIndex(st, IndexBuildSpec{
			Name: s.Name, Table: s.Table, Columns: s.Columns, Unique: s.Unique, Local: s.Local,
		})
		res = &Result{}
	case *sqlparser.DropIndexStmt:
		err = db.DropIndex(s.Name)
		res = &Result{}
	case *sqlparser.ExplainStmt:
		res, err = db.execExplain(s)
	default:
		err = fmt.Errorf("engine: unsupported statement %T", stmt)
	}
	if err != nil {
		return nil, err
	}
	affected := res.Stats.RowsAffected
	res.Stats = st.snapshotStats()
	res.Stats.RowsReturned = int64(len(res.Rows))
	res.Stats.RowsAffected = affected
	if db.metrics != nil {
		db.metrics.recordStmt(res.Stats, wallStart)
	}
	return res, nil
}

// execExplain plans the wrapped statement and returns its plan text as rows
// without executing it.
func (db *DB) execExplain(s *sqlparser.ExplainStmt) (*Result, error) {
	res := &Result{Columns: []string{"plan"}}
	switch inner := s.Stmt.(type) {
	case *sqlparser.SelectStmt:
		plan, err := planner.PlanSelect(db.cat, inner)
		if err != nil {
			return nil, err
		}
		res.plan = plan.Root
	case *sqlparser.InsertStmt, *sqlparser.UpdateStmt, *sqlparser.DeleteStmt:
		wp, err := planner.PlanWrite(db.cat, inner)
		if err != nil {
			return nil, err
		}
		res.planHeader = fmt.Sprintf("Write(%s) rows=%.0f scan=%.1f write=%.1f maintain=%d total=%.1f",
			wp.Table, wp.AffectedRows, wp.ScanCost, wp.WriteCost,
			len(wp.MaintainIndexes), wp.TotalCost)
		res.plan = wp.Scan
	default:
		return nil, fmt.Errorf("engine: cannot EXPLAIN %T", s.Stmt)
	}
	for _, line := range strings.Split(strings.TrimRight(res.PlanText(), "\n"), "\n") {
		res.Rows = append(res.Rows, sqltypes.Tuple{sqltypes.NewString(line)})
	}
	return res, nil
}

// execSelect plans and executes a SELECT.
func (db *DB) execSelect(st *stmtState, stmt *sqlparser.SelectStmt) (*Result, error) {
	plan, err := planner.PlanSelect(db.cat, stmt)
	if err != nil {
		return nil, err
	}
	ctx, err := db.newEvalCtx(st, plan.Root)
	if err != nil {
		return nil, err
	}
	rows, err := db.runNode(ctx, plan.Root)
	if err != nil {
		return nil, err
	}
	st.operatorEvals += ctx.ops

	// The root is Project/Agg/Limit/Sort; its output rows carry the final
	// projected tuple in resultSlot.
	out := &Result{plan: plan.Root}
	out.Columns = outputColumns(stmt)
	for _, r := range rows {
		out.Rows = append(out.Rows, r[resultSlot])
	}
	return out, nil
}

// newEvalCtx resolves the plan's bindings to row slots, once, before the
// first tuple is read.
func (db *DB) newEvalCtx(st *stmtState, root planner.Node) (*evalCtx, error) {
	lay, err := db.planLayout(root, nil)
	if err != nil {
		return nil, err
	}
	return &evalCtx{db: db, st: st, lay: lay}, nil
}

func outputColumns(stmt *sqlparser.SelectStmt) []string {
	var cols []string
	for i, it := range stmt.Select {
		switch {
		case it.Star:
			cols = append(cols, "*")
		case it.Alias != "":
			cols = append(cols, it.Alias)
		default:
			if ref, ok := it.Expr.(*sqlparser.ColumnRef); ok {
				cols = append(cols, ref.Column)
			} else {
				cols = append(cols, fmt.Sprintf("col%d", i+1))
			}
		}
	}
	return cols
}

// runNode executes a plan node, returning its rows. A runtime evaluation
// failure (ctx.err) surfaces here, whichever operator's closure hit it.
func (db *DB) runNode(ctx *evalCtx, n planner.Node) ([]row, error) {
	rows, err := db.runOperator(ctx, n)
	if err == nil {
		err = ctx.err
	}
	if err != nil {
		return nil, err
	}
	return rows, nil
}

func (db *DB) runOperator(ctx *evalCtx, n planner.Node) ([]row, error) {
	switch v := n.(type) {
	case *planner.SeqScanNode:
		return db.runSeqScan(ctx, v)
	case *planner.IndexScanNode:
		return db.runIndexScan(ctx, v)
	case *planner.MaterializeNode:
		return db.runMaterialize(ctx, v)
	case *planner.JoinNode:
		return db.runJoin(ctx, v)
	case *planner.FilterNode:
		return db.runFilter(ctx, v)
	case *planner.AggNode:
		return db.runAgg(ctx, v)
	case *planner.SortNode:
		return db.runSort(ctx, v)
	case *planner.ProjectNode:
		return db.runProject(ctx, v)
	case *planner.LimitNode:
		rows, err := db.runNode(ctx, v.Input)
		if err != nil {
			return nil, err
		}
		if int64(len(rows)) > v.N {
			rows = rows[:v.N]
		}
		return rows, nil
	default:
		return nil, fmt.Errorf("engine: unknown plan node %T", n)
	}
}

// seqScan is the executor's one sequential-scan loop: page batches through
// the node's compiled filter, emit called with every accepted (RID, tuple).
// Reads and write-target location share it.
func (db *DB) seqScan(ctx *evalCtx, n *planner.SeqScanNode, emit func(btree.RID, sqltypes.Tuple)) error {
	filter, err := ctx.compilePred(n.Filter)
	if err != nil {
		return err
	}
	scratch := ctx.newRow()
	cur := &scratch[ctx.lay.slot(n.Binding)]
	db.heaps[n.Table].ScanBatch(&ctx.st.io, func(b *storage.Batch) bool {
		ctx.st.tuplesProcessed += int64(b.Len())
		tups := b.Tuples
		for _, s := range b.Sel {
			*cur = tups[s]
			if filter == nil || filter(scratch) {
				emit(b.RID(s), *cur)
			}
		}
		return ctx.err == nil
	})
	return ctx.err
}

func (db *DB) runSeqScan(ctx *evalCtx, n *planner.SeqScanNode) ([]row, error) {
	slot := ctx.lay.slot(n.Binding)
	var out []row
	err := db.seqScan(ctx, n, func(_ btree.RID, tup sqltypes.Tuple) {
		r := ctx.newRow()
		r[slot] = tup
		out = append(out, r)
	})
	return out, err
}

// indexProbe is an index scan compiled for one statement: bound and
// residual closures are built once and run once per probe — once for a
// standalone scan, once per outer row under an index nested-loop join.
type indexProbe struct {
	n        *planner.IndexScanNode
	trees    []*btree.Tree
	heap     *storage.Heap
	slot     int
	eq, in   []valFn
	lo, hi   valFn
	residual predFn
}

func (db *DB) compileIndexScan(ctx *evalCtx, n *planner.IndexScanNode) (*indexProbe, error) {
	p := &indexProbe{n: n, trees: db.indexes[n.Index.Name], heap: db.heaps[n.Table], slot: ctx.lay.slot(n.Binding)}
	if len(p.trees) == 0 {
		return nil, fmt.Errorf("engine: index %q has no tree (hypothetical index executed?)", n.Index.Name)
	}
	var err error
	if p.eq, err = compileEach(n.EqVals, ctx.compile); err != nil {
		return nil, err
	}
	if p.in, err = compileEach(n.In, ctx.compile); err != nil {
		return nil, err
	}
	if p.lo, err = ctx.compile(n.Lo); err != nil {
		return nil, err
	}
	if p.hi, err = ctx.compile(n.Hi); err != nil {
		return nil, err
	}
	p.residual, err = ctx.compilePred(n.Residual)
	return p, err
}

// indexScan is the executor's one index-probe loop. env carries the outer
// bindings the bounds and residual may reference (empty for a standalone
// scan); each fetched tuple is placed in env's slot for this scan, and emit
// is called, with env so populated, for every tuple the residual accepts.
func (db *DB) indexScan(ctx *evalCtx, p *indexProbe, env row, emit func(btree.RID, sqltypes.Tuple)) error {
	db.bumpIndexUsage(p.n.Index.Name)
	if db.metrics != nil {
		db.metrics.indexProbes.With(p.n.Index.Name).Inc()
	}
	bounds, eqKey := p.bounds(env)
	if ctx.err != nil {
		return ctx.err
	}
	st := ctx.st
	for _, pb := range bounds {
		for _, tree := range db.probeTrees(p.n.Index, eqKey, p.trees) {
			st.indexDescents += int64(tree.Height())
			st.io.IndexPagesRead += tree.ScanRange(pb.lo, pb.hi, pb.loInc, pb.hiInc, func(e btree.Entry) bool {
				st.indexTuplesRW++
				tup := p.heap.Fetch(e.RID, &st.io)
				if tup == nil {
					return true // tombstoned heap tuple with stale index entry
				}
				st.tuplesProcessed++
				env[p.slot] = tup
				if p.residual == nil || p.residual(env) {
					emit(e.RID, tup)
				}
				return ctx.err == nil
			})
			if ctx.err != nil {
				return ctx.err
			}
		}
	}
	return nil
}

func (db *DB) runIndexScan(ctx *evalCtx, n *planner.IndexScanNode) ([]row, error) {
	p, err := db.compileIndexScan(ctx, n)
	if err != nil {
		return nil, err
	}
	var out []row
	env := ctx.newRow()
	err = db.indexScan(ctx, p, env, func(btree.RID, sqltypes.Tuple) {
		out = append(out, ctx.cloneRow(env))
	})
	return out, err
}

// probeBound is one (lo, hi) key window an index scan visits.
type probeBound struct {
	lo, hi       sqltypes.Key
	loInc, hiInc bool
}

// bounds evaluates the scan's bound expressions into one or more probe
// windows: a single window for eq-prefix(+range) scans, or one window per
// IN-list value (deduplicated). It also returns the equality prefix for
// partition pruning.
func (p *indexProbe) bounds(env row) ([]probeBound, sqltypes.Key) {
	eqKey := make(sqltypes.Key, len(p.eq))
	for i, f := range p.eq {
		eqKey[i] = f(env)
	}

	if len(p.in) > 0 {
		seen := make(map[string]bool, len(p.in))
		bounds := make([]probeBound, 0, len(p.in))
		for _, f := range p.in {
			v := f(env)
			if seen[v.String()] {
				continue
			}
			seen[v.String()] = true
			key := append(append(sqltypes.Key{}, eqKey...), v)
			bounds = append(bounds, probeBound{lo: key, hi: key, loInc: true, hiInc: true})
		}
		return bounds, eqKey
	}

	lo := append(sqltypes.Key{}, eqKey...)
	hi := append(sqltypes.Key{}, eqKey...)
	loInc, hiInc := true, true
	if p.lo != nil {
		lo = append(lo, p.lo(env))
		loInc = p.n.LoInc
	}
	if p.hi != nil {
		hi = append(hi, p.hi(env))
		hiInc = p.n.HiInc
	}
	var loKey, hiKey sqltypes.Key
	if len(lo) > 0 {
		loKey = lo
	}
	if len(hi) > 0 {
		hiKey = hi
	}
	return []probeBound{{lo: loKey, hi: hiKey, loInc: loInc, hiInc: hiInc}}, eqKey
}

// probeTrees selects which trees an index lookup must visit: one for
// normal/global indexes; for a local index, the single partition tree when
// the partition column is bound by an equality in the key prefix, otherwise
// every partition (the local-index penalty the paper's §III remark prices).
func (db *DB) probeTrees(meta *catalog.IndexMeta, eqKey sqltypes.Key, trees []*btree.Tree) []*btree.Tree {
	if !meta.Local || len(trees) == 1 {
		return trees[:1]
	}
	t := db.cat.Table(meta.Table)
	if t == nil || !t.IsPartitioned() {
		return trees[:1]
	}
	for i, col := range meta.Columns {
		if i >= len(eqKey) {
			break
		}
		if col == t.PartitionBy {
			return trees[partitionOf(eqKey[i], t.Partitions) : partitionOf(eqKey[i], t.Partitions)+1]
		}
	}
	return trees
}

func (db *DB) runMaterialize(ctx *evalCtx, n *planner.MaterializeNode) ([]row, error) {
	// Execute the subquery as a statement of its own, then re-expose its
	// projected tuples under this binding.
	res, err := db.execSelect(ctx.st, n.Select)
	if err != nil {
		return nil, err
	}
	slot := ctx.lay.slot(n.Binding)
	out := make([]row, len(res.Rows))
	for i, tup := range res.Rows {
		out[i] = ctx.newRow()
		out[i][slot] = tup
	}
	return out, nil
}

// mergeRows overlays src's bound tuples onto dst. Every row of one join
// input binds the same slots, so successive overlays replace each other.
func mergeRows(dst, src row) {
	for i, tup := range src {
		if tup != nil {
			dst[i] = tup
		}
	}
}

func (db *DB) runJoin(ctx *evalCtx, n *planner.JoinNode) ([]row, error) {
	left, err := db.runNode(ctx, n.Left)
	if err != nil {
		return nil, err
	}
	cond, err := ctx.compilePred(n.Cond)
	if err != nil {
		return nil, err
	}
	// Candidate pairs are assembled in one scratch row and copied out only
	// when the join condition accepts them.
	scratch := ctx.newRow()
	var out []row
	accept := func() {
		if cond == nil || cond(scratch) {
			out = append(out, ctx.cloneRow(scratch))
		}
	}

	if n.Strategy == planner.JoinIndexNL {
		inner, ok := n.Right.(*planner.IndexScanNode)
		if !ok {
			return nil, fmt.Errorf("engine: IndexNL join requires index scan inner")
		}
		probe, err := db.compileIndexScan(ctx, inner)
		if err != nil {
			return nil, err
		}
		emit := func(btree.RID, sqltypes.Tuple) { accept() }
		for _, l := range left {
			copy(scratch, l)
			if err := db.indexScan(ctx, probe, scratch, emit); err != nil {
				return nil, err
			}
		}
		return out, nil
	}

	right, err := db.runNode(ctx, n.Right)
	if err != nil {
		return nil, err
	}
	if n.Strategy != planner.JoinHash { // nested loop
		for _, l := range left {
			copy(scratch, l)
			for _, r := range right {
				mergeRows(scratch, r)
				accept()
			}
		}
		return out, nil
	}

	leftKey, err := ctx.compile(n.LeftKey)
	if err != nil {
		return nil, err
	}
	rightKey, err := ctx.compile(n.RightKey)
	if err != nil {
		return nil, err
	}
	table := make(map[string][]int, len(right))
	for i, r := range right {
		v := rightKey(r)
		if v.IsNull() {
			continue
		}
		k := v.String()
		table[k] = append(table[k], i)
		ctx.st.tuplesProcessed++
	}
	for _, l := range left {
		v := leftKey(l)
		if v.IsNull() {
			continue
		}
		copy(scratch, l)
		for _, ri := range table[v.String()] {
			mergeRows(scratch, right[ri])
			accept()
		}
	}
	return out, nil
}

func (db *DB) runFilter(ctx *evalCtx, n *planner.FilterNode) ([]row, error) {
	rows, err := db.runNode(ctx, n.Input)
	if err != nil {
		return nil, err
	}
	cond, err := ctx.compilePred(n.Cond)
	if err != nil || cond == nil {
		return rows, err
	}
	var out []row
	for _, r := range rows {
		if cond(r) {
			out = append(out, r)
		}
	}
	return out, nil
}

// aggState accumulates one aggregate function over a group.
type aggState struct {
	count int64
	sum   float64
	min   sqltypes.Value
	max   sqltypes.Value
	isInt bool
	any   bool
}

func (a *aggState) add(v sqltypes.Value) {
	if v.IsNull() {
		return
	}
	a.count++
	a.sum += v.AsFloat()
	if !a.any {
		a.isInt = v.Kind == sqltypes.KindInt
		a.min, a.max = v, v
		a.any = true
		return
	}
	if v.Kind != sqltypes.KindInt {
		a.isInt = false
	}
	if sqltypes.Compare(v, a.min) < 0 {
		a.min = v
	}
	if sqltypes.Compare(v, a.max) > 0 {
		a.max = v
	}
}

func (a *aggState) result(fn string) sqltypes.Value {
	switch fn {
	case "COUNT":
		return sqltypes.NewInt(a.count)
	case "SUM":
		if !a.any {
			return sqltypes.Null()
		}
		if a.isInt {
			return sqltypes.NewInt(int64(a.sum))
		}
		return sqltypes.NewFloat(a.sum)
	case "AVG":
		if a.count == 0 {
			return sqltypes.Null()
		}
		return sqltypes.NewFloat(a.sum / float64(a.count))
	case "MIN":
		return a.min
	case "MAX":
		return a.max
	default:
		return sqltypes.Null()
	}
}

func (db *DB) runAgg(ctx *evalCtx, n *planner.AggNode) ([]row, error) {
	input, err := db.runNode(ctx, n.Input)
	if err != nil {
		return nil, err
	}

	// Collect aggregate expressions from the select list (and HAVING).
	var aggExprs []*sqlparser.FuncExpr
	collectAggs := func(e sqlparser.Expr) {
		walkExprs(e, func(x sqlparser.Expr) {
			if f, ok := x.(*sqlparser.FuncExpr); ok {
				switch f.Name {
				case "SUM", "COUNT", "AVG", "MIN", "MAX":
					aggExprs = append(aggExprs, f)
				}
			}
		})
	}
	for _, it := range n.Select {
		if !it.Star {
			collectAggs(it.Expr)
		}
	}
	if n.Having != nil {
		collectAggs(n.Having)
	}

	// Per input row: group keys and aggregate arguments, in row context.
	// Per group: HAVING and the select list, over the aggregates' values.
	keys, err := compileEach(n.GroupBy, ctx.compile)
	if err != nil {
		return nil, err
	}
	argExprs := make([]sqlparser.Expr, len(aggExprs))
	for i, f := range aggExprs {
		if !f.Star {
			argExprs[i] = f.Args[0]
		}
	}
	args, err := compileEach(argExprs, ctx.compile)
	if err != nil {
		return nil, err
	}
	perGroup, err := compileEach(append(selectExprs(n.Select), n.Having), func(e sqlparser.Expr) (valFn, error) {
		return ctx.compileGroup(e, aggExprs)
	})
	if err != nil {
		return nil, err
	}
	items, having := perGroup[:len(n.Select)], perGroup[len(n.Select)]

	type group struct {
		keyVals []sqltypes.Value
		states  []aggState
		sample  row
	}
	groups := make(map[string]*group)
	var order []*group

	for _, r := range input {
		ctx.st.tuplesProcessed++
		keyVals := make([]sqltypes.Value, len(keys))
		var sb strings.Builder
		for i, key := range keys {
			keyVals[i] = key(r)
			sb.WriteString(keyVals[i].String())
			sb.WriteByte('|')
		}
		gr, ok := groups[sb.String()]
		if !ok {
			gr = &group{keyVals: keyVals, states: make([]aggState, len(aggExprs)), sample: r}
			groups[sb.String()] = gr
			order = append(order, gr)
		}
		for i, arg := range args {
			if arg == nil { // COUNT(*)
				gr.states[i].add(sqltypes.NewInt(1))
			} else {
				gr.states[i].add(arg(r))
			}
		}
	}

	// Plain aggregate over empty input still yields one row.
	if len(n.GroupBy) == 0 && len(order) == 0 {
		order = append(order, &group{states: make([]aggState, len(aggExprs)), sample: ctx.newRow()})
	}

	var out []row
	for _, gr := range order {
		// The group's sample row, with the aggregates' values where the
		// per-group closures read them.
		r := ctx.cloneRow(gr.sample)
		aggVals := make(sqltypes.Tuple, len(aggExprs))
		for i, f := range aggExprs {
			aggVals[i] = gr.states[i].result(f.Name)
		}
		r[resultSlot] = aggVals
		if having != nil && !truthy(having(r)) {
			continue
		}
		tup := make(sqltypes.Tuple, 0, len(n.Select))
		for i, it := range n.Select {
			if it.Star {
				// star under aggregation: emit group key values
				tup = append(tup, gr.keyVals...)
				continue
			}
			tup = append(tup, items[i](r))
		}
		r[resultSlot] = tup
		out = append(out, r)
	}
	return out, nil
}

func (db *DB) runSort(ctx *evalCtx, n *planner.SortNode) ([]row, error) {
	rows, err := db.runNode(ctx, n.Input)
	if err != nil {
		return nil, err
	}
	if n.Satisfied {
		return rows, nil
	}
	// When sorting above an aggregation, ORDER BY may reference aggregate
	// expressions or select aliases. Those values live positionally in the
	// result tuple; build expression/alias → position lookup.
	agg, overAgg := n.Input.(*planner.AggNode)
	var resultPos map[string]int
	if overAgg {
		resultPos = make(map[string]int)
		pos := 0
		for _, item := range agg.Select {
			if item.Star {
				pos += len(agg.GroupBy)
				continue
			}
			resultPos[item.Expr.String()] = pos
			if item.Alias != "" {
				resultPos[item.Alias] = pos
			}
			pos++
		}
	}
	resultCol := func(p int) valFn {
		return func(r row) sqltypes.Value { return r[resultSlot][p] }
	}
	keys := make([]valFn, len(n.OrderBy))
	for j, o := range n.OrderBy {
		if p, ok := resultPos[o.Expr.String()]; ok {
			keys[j] = resultCol(p)
			continue
		}
		if ref, ok := o.Expr.(*sqlparser.ColumnRef); ok && ref.Table == "" {
			if p, ok := resultPos[ref.Column]; ok {
				keys[j] = resultCol(p)
				continue
			}
		}
		cc := ctx.newCompiler(nil)
		keys[j] = cc.value(o.Expr, false)
		if cc.err == nil {
			continue
		}
		if !overAgg {
			return nil, cc.err
		}
		// A key that exists only in the aggregation's output yet is not
		// one of its columns (an aggregate outside the select list) sorts
		// by the first output column, charged the nodes it took to find out.
		wasted := int64(cc.visited)
		keys[j] = func(r row) sqltypes.Value {
			ctx.ops += wasted
			return r[resultSlot][0]
		}
	}
	type keyed struct {
		r    row
		keys []sqltypes.Value
	}
	items := make([]keyed, len(rows))
	for i, r := range rows {
		ks := make([]sqltypes.Value, len(keys))
		for j, key := range keys {
			ks[j] = key(r)
		}
		items[i] = keyed{r: r, keys: ks}
		ctx.st.operatorEvals++
	}
	desc := make([]bool, len(n.OrderBy))
	for j, o := range n.OrderBy {
		desc[j] = o.Desc
	}
	slices.SortStableFunc(items, func(a, b keyed) int {
		for j, d := range desc {
			if c := sqltypes.Compare(a.keys[j], b.keys[j]); c != 0 {
				if d {
					return -c
				}
				return c
			}
		}
		return 0
	})
	out := make([]row, len(items))
	for i, it := range items {
		out[i] = it.r
	}
	return out, nil
}

func (db *DB) runProject(ctx *evalCtx, n *planner.ProjectNode) ([]row, error) {
	rows, err := db.runNode(ctx, n.Input)
	if err != nil {
		return nil, err
	}
	items, err := compileEach(selectExprs(n.Select), ctx.compile)
	if err != nil {
		return nil, err
	}
	var star []int // SELECT * expands the bindings in name order
	for _, it := range n.Select {
		if it.Star {
			star = ctx.lay.slotsByName()
			break
		}
	}
	out := rows[:0]
	var seen map[string]bool
	if n.Distinct {
		seen = make(map[string]bool)
	}
	for _, r := range rows {
		tup := make(sqltypes.Tuple, 0, len(items))
		for _, item := range items {
			if item != nil {
				tup = append(tup, item(r))
				continue
			}
			for _, slot := range star {
				tup = append(tup, r[slot]...)
			}
		}
		if n.Distinct {
			var sb strings.Builder
			for _, v := range tup {
				sb.WriteString(v.String())
				sb.WriteByte('|')
			}
			if seen[sb.String()] {
				continue
			}
			seen[sb.String()] = true
		}
		r[resultSlot] = tup
		out = append(out, r)
	}
	return out, nil
}

// walkExprs visits every node of an expression tree.
func walkExprs(e sqlparser.Expr, visit func(sqlparser.Expr)) {
	if e == nil {
		return
	}
	visit(e)
	switch v := e.(type) {
	case *sqlparser.BinaryExpr:
		walkExprs(v.L, visit)
		walkExprs(v.R, visit)
	case *sqlparser.NotExpr:
		walkExprs(v.E, visit)
	case *sqlparser.InExpr:
		walkExprs(v.E, visit)
		for _, i := range v.List {
			walkExprs(i, visit)
		}
	case *sqlparser.BetweenExpr:
		walkExprs(v.E, visit)
		walkExprs(v.Lo, visit)
		walkExprs(v.Hi, visit)
	case *sqlparser.IsNullExpr:
		walkExprs(v.E, visit)
	case *sqlparser.FuncExpr:
		for _, a := range v.Args {
			walkExprs(a, visit)
		}
	}
}
