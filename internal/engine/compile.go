// Package engine executes physical plans produced by the planner against
// heap storage and B+Tree indexes, maintains every index on writes, and
// accounts page-level IO and tuple-level CPU work. Those counters are the
// ground truth the AutoIndex cost model trains on, and their weighted sum is
// the deterministic execution-cost proxy used as "latency" in experiments.
package engine

import (
	"fmt"
	"sort"

	"repro/internal/catalog"
	"repro/internal/planner"
	"repro/internal/sqlparser"
	"repro/internal/sqltypes"
)

// This file is the executor's only expression evaluator. Every expression a
// statement evaluates — scan filters, probe bounds, join conditions, GROUP BY
// keys, aggregate arguments, HAVING, projections, SET and VALUES — is
// compiled once per statement into a closure over slot-indexed rows.
//
// The ops contract is load-bearing: engine_operator_evals_total is experiment
// ground truth, and "one operator evaluation" is defined here and nowhere
// else. A closure advances ops by one per expression node it visits, in
// evaluation order with AND/OR/IN short-circuiting; the fused leaf shapes
// charge what their unfused trees would (<col> cmp <lit> is three nodes,
// BETWEEN four, IN two plus one per item tried). testdata/exec_golden.json
// pins the totals per statement.

// row is the executor's tuple context: one tuple per binding, indexed by the
// slot the statement's layout assigned.
type row []sqltypes.Tuple

// resultSlot holds a row's final projected tuple. While an aggregation
// evaluates HAVING and its select list it holds the group's aggregate values
// instead (input rows of an aggregation carry no projection yet).
const resultSlot = 0

// binding is one FROM-clause entry: a base table, or a derived table's
// named output columns.
type binding struct {
	name  string
	table *catalog.Table
	cols  []string
}

// layout assigns every binding of a statement its row slot (index + 1);
// column references resolve against it once, at compile time.
type layout []binding

// planLayout collects the bindings a plan's scans introduce. A derived
// table is one binding here; its subplan runs as a statement of its own.
func (db *DB) planLayout(n planner.Node, lay layout) (layout, error) {
	base := func(table, name string) (layout, error) {
		t := db.cat.Table(table)
		if t == nil {
			return nil, fmt.Errorf("engine: unknown table %q", table)
		}
		return append(lay, binding{name: name, table: t}), nil
	}
	switch v := n.(type) {
	case *planner.SeqScanNode:
		return base(v.Table, v.Binding)
	case *planner.IndexScanNode:
		return base(v.Table, v.Binding)
	case *planner.MaterializeNode:
		return append(lay, binding{name: v.Binding, cols: v.Columns}), nil
	case *planner.JoinNode:
		lay, err := db.planLayout(v.Left, lay)
		if err != nil {
			return nil, err
		}
		return db.planLayout(v.Right, lay)
	case *planner.FilterNode:
		return db.planLayout(v.Input, lay)
	case *planner.AggNode:
		return db.planLayout(v.Input, lay)
	case *planner.SortNode:
		return db.planLayout(v.Input, lay)
	case *planner.ProjectNode:
		return db.planLayout(v.Input, lay)
	case *planner.LimitNode:
		return db.planLayout(v.Input, lay)
	default:
		return nil, fmt.Errorf("engine: unknown plan node %T", n)
	}
}

// slot returns the row slot of a binding, or 0 when the statement has none
// by that name (slot 0 is never a binding).
func (l layout) slot(name string) int {
	for i := range l {
		if l[i].name == name {
			return i + 1
		}
	}
	return 0
}

// slotsByName lists the binding slots in binding-name order.
func (l layout) slotsByName() []int {
	slots := make([]int, len(l))
	for i := range slots {
		slots[i] = i + 1
	}
	sort.Slice(slots, func(a, b int) bool { return l[slots[a]-1].name < l[slots[b]-1].name })
	return slots
}

// resolve maps a column reference to its (slot, position).
func (l layout) resolve(ref *sqlparser.ColumnRef) (int, int, error) {
	slot := l.slot(ref.Table)
	if slot == 0 {
		return 0, 0, fmt.Errorf("engine: binding %q not in row", ref.Table)
	}
	b := &l[slot-1]
	if b.table != nil {
		if col := b.table.Column(ref.Column); col != nil {
			return slot, col.Pos, nil
		}
	}
	for pos, name := range b.cols {
		if name == ref.Column {
			return slot, pos, nil
		}
	}
	return 0, 0, fmt.Errorf("engine: column %s.%s unknown", ref.Table, ref.Column)
}

// evalCtx is one statement's evaluation state.
type evalCtx struct {
	db *DB
	// st is the owning statement's counter scratch; nested statement
	// execution (subqueries, derived tables) shares it.
	st  *stmtState
	lay layout
	// ops counts operator evaluations for CPU accounting.
	ops int64
	// err is the first runtime failure a closure hit (only subquery
	// execution can fail once an expression compiled). Closures yield NULL
	// after it; every operator loop checks it and stops.
	err error
	// subqueries memoizes uncorrelated subquery outcomes per statement.
	subqueries map[*sqlparser.SelectStmt]subqueryResult
	// compiles counts expression trees compiled (a statement compiles each
	// plan node's expressions once, however many rows reach the node).
	compiles int
}

type subqueryResult struct {
	vals []sqltypes.Value
	err  error
}

func (c *evalCtx) newRow() row { return make(row, len(c.lay)+1) }

func (c *evalCtx) cloneRow(r row) row {
	out := c.newRow()
	copy(out, r)
	return out
}

// valFn evaluates a compiled expression to a value; predFn to its truth.
// SQL three-valued logic collapses to two-valued: NULL comparisons are false.
type (
	valFn  func(r row) sqltypes.Value
	predFn func(r row) bool
)

// compiler compiles one expression tree for one evalCtx.
type compiler struct {
	ctx *evalCtx
	// aggs are the aggregate calls whose per-group values the row's
	// resultSlot holds while the tree runs; each reads its value at no charge.
	aggs []*sqlparser.FuncExpr
	// visited counts nodes compiled, in evaluation order, up to and
	// including the first one that failed.
	visited int
	err     error
}

func (c *evalCtx) newCompiler(aggs []*sqlparser.FuncExpr) compiler {
	c.compiles++
	return compiler{ctx: c, aggs: aggs}
}

// compile compiles e in value context. Unknown bindings, columns and
// functions are errors here, before any tuple is read. An absent expression
// (nil: SELECT *, COUNT(*), an open bound, no WHERE) compiles to a nil
// closure, here and in compilePred and compileGroup.
func (c *evalCtx) compile(e sqlparser.Expr) (valFn, error) {
	if e == nil {
		return nil, nil
	}
	cc := c.newCompiler(nil)
	return cc.value(e, false), cc.err
}

// compilePred compiles e in boolean context; a nil predFn accepts every row.
func (c *evalCtx) compilePred(e sqlparser.Expr) (predFn, error) {
	if e == nil {
		return nil, nil
	}
	cc := c.newCompiler(nil)
	return cc.pred(e), cc.err
}

// compileGroup compiles e — a select item or HAVING of an aggregation over
// aggs — to run once per group, charged as the group evaluator always
// charged: binary operators reachable from the root through binary
// operators only are free and evaluate both sides; anything beneath another
// node kind is charged as in row context.
func (c *evalCtx) compileGroup(e sqlparser.Expr, aggs []*sqlparser.FuncExpr) (valFn, error) {
	if e == nil {
		return nil, nil
	}
	cc := c.newCompiler(aggs)
	return cc.value(e, true), cc.err
}

// compileEach compiles a list with one compile function.
func compileEach(exprs []sqlparser.Expr, compile func(sqlparser.Expr) (valFn, error)) ([]valFn, error) {
	if len(exprs) == 0 {
		return nil, nil
	}
	fns := make([]valFn, len(exprs))
	for i, e := range exprs {
		var err error
		if fns[i], err = compile(e); err != nil {
			return nil, err
		}
	}
	return fns, nil
}

// selectExprs lists a select list's expressions, nil for each star.
func selectExprs(items []sqlparser.SelectItem) []sqlparser.Expr {
	exprs := make([]sqlparser.Expr, len(items))
	for i, it := range items {
		if !it.Star {
			exprs[i] = it.Expr
		}
	}
	return exprs
}

// once evaluates e a single time against the empty row. Literals, which is
// what VALUES lists are made of, skip the closure.
func (c *evalCtx) once(e sqlparser.Expr) (sqltypes.Value, error) {
	if lit, ok := e.(*sqlparser.Literal); ok {
		c.ops++
		return lit.Value, nil
	}
	f, err := c.compile(e)
	if err != nil {
		return sqltypes.Null(), err
	}
	v := f(c.newRow())
	return v, c.err
}

func (cc *compiler) fail(err error) {
	if cc.err == nil {
		cc.err = err
	}
}

// visit counts n nodes entered.
func (cc *compiler) visit(n int) {
	if cc.err == nil {
		cc.visited += n
	}
}

// aggIndex reports which aggregate of the context e is, if any.
func (cc *compiler) aggIndex(e sqlparser.Expr) (int, bool) {
	for i, f := range cc.aggs {
		if e == sqlparser.Expr(f) {
			return i, true
		}
	}
	return 0, false
}

func isArith(op sqlparser.BinOp) bool {
	return op == sqlparser.OpAdd || op == sqlparser.OpSub || op == sqlparser.OpMul || op == sqlparser.OpDiv
}

// value compiles e in value context. spine is true while only binary
// operators separate e from the root of a compileGroup tree.
func (cc *compiler) value(e sqlparser.Expr, spine bool) valFn {
	if i, ok := cc.aggIndex(e); ok {
		return func(r row) sqltypes.Value { return r[resultSlot][i] }
	}
	ops := &cc.ctx.ops
	switch v := e.(type) {
	case *sqlparser.Literal:
		cc.visit(1)
		val := v.Value
		return func(row) sqltypes.Value {
			*ops++
			return val
		}
	case *sqlparser.Placeholder:
		cc.visit(1)
		return func(row) sqltypes.Value {
			*ops++
			return sqltypes.Null()
		}
	case *sqlparser.ColumnRef:
		cc.visit(1)
		slot, pos, err := cc.ctx.lay.resolve(v)
		if err != nil {
			cc.fail(err)
			return nil
		}
		return func(r row) sqltypes.Value {
			*ops++
			return column(r, slot, pos)
		}
	case *sqlparser.BinaryExpr:
		op := v.Op
		if spine {
			l, rt := cc.value(v.L, true), cc.value(v.R, true)
			return func(r row) sqltypes.Value {
				lv, rv := l(r), rt(r)
				switch {
				case isArith(op):
					return arith(op, lv, rv)
				case op == sqlparser.OpAnd:
					return boolVal(truthy(lv) && truthy(rv))
				case op == sqlparser.OpOr:
					return boolVal(truthy(lv) || truthy(rv))
				default:
					return boolVal(compare(op, lv, rv))
				}
			}
		}
		if isArith(op) {
			// <col> op <lit>, the SET shape of every counter update, is one
			// closure charging its three nodes.
			if slot, pos, ok := cc.colRef(v.L); ok {
				if lit, isLit := v.R.(*sqlparser.Literal); isLit {
					cc.visit(3)
					c := lit.Value
					return func(r row) sqltypes.Value {
						*ops += 3
						return arith(op, column(r, slot, pos), c)
					}
				}
			}
			cc.visit(1)
			l, rt := cc.value(v.L, false), cc.value(v.R, false)
			return func(r row) sqltypes.Value {
				*ops++
				return arith(op, l(r), rt(r))
			}
		}
	case *sqlparser.FuncExpr:
		cc.visit(1)
		if v.Name != "ABS" {
			cc.fail(fmt.Errorf("engine: function %s not valid outside aggregation", v.Name))
			return nil
		}
		if len(v.Args) != 1 {
			cc.fail(fmt.Errorf("engine: ABS takes 1 argument"))
			return nil
		}
		arg := cc.value(v.Args[0], false)
		return func(r row) sqltypes.Value {
			*ops++
			a := arg(r)
			if a.Kind == sqltypes.KindInt && a.Int < 0 {
				return sqltypes.NewInt(-a.Int)
			}
			if a.Kind == sqltypes.KindFloat && a.Float < 0 {
				return sqltypes.NewFloat(-a.Float)
			}
			return a
		}
	case *sqlparser.SubqueryExpr:
		cc.visit(1)
		ctx, q := cc.ctx, v.Query
		return func(row) sqltypes.Value {
			*ops++
			if vals := ctx.scalarSubquery(q); len(vals) > 0 {
				return vals[0]
			}
			return sqltypes.Null()
		}
	case *sqlparser.NotExpr, *sqlparser.InExpr, *sqlparser.BetweenExpr, *sqlparser.IsNullExpr:
	default:
		cc.fail(fmt.Errorf("engine: cannot evaluate %T", e))
		return nil
	}
	// A predicate in value position: box its truth value.
	p := cc.pred(e)
	return func(r row) sqltypes.Value { return boolVal(p(r)) }
}

// pred compiles e in boolean context. The truthiness test of a
// value-producing root is not a tree node and costs nothing.
func (cc *compiler) pred(e sqlparser.Expr) predFn {
	ops := &cc.ctx.ops
	switch v := e.(type) {
	case *sqlparser.BinaryExpr:
		switch {
		case v.Op == sqlparser.OpAnd, v.Op == sqlparser.OpOr:
			cc.visit(1)
			l, rt := cc.pred(v.L), cc.pred(v.R)
			if v.Op == sqlparser.OpAnd {
				return func(r row) bool {
					*ops++
					return l(r) && rt(r)
				}
			}
			return func(r row) bool {
				*ops++
				return l(r) || rt(r)
			}
		case !isArith(v.Op):
			if f := cc.fusedCompare(v); f != nil {
				return f
			}
			cc.visit(1)
			op := v.Op
			l, rt := cc.value(v.L, false), cc.value(v.R, false)
			return func(r row) bool {
				*ops++
				lv := l(r)
				return compare(op, lv, rt(r))
			}
		}
	case *sqlparser.NotExpr:
		cc.visit(1)
		sub := cc.pred(v.E)
		return func(r row) bool {
			*ops++
			return !sub(r)
		}
	case *sqlparser.InExpr:
		return cc.in(v)
	case *sqlparser.BetweenExpr:
		return cc.between(v)
	case *sqlparser.IsNullExpr:
		cc.visit(1)
		sub, not := cc.value(v.E, false), v.Not
		return func(r row) bool {
			*ops++
			return sub(r).IsNull() != not
		}
	}
	f := cc.value(e, false)
	return func(r row) bool { return truthy(f(r)) }
}

// compare applies a comparison operator under two-valued NULL semantics.
func compare(op sqlparser.BinOp, lv, rv sqltypes.Value) bool {
	if lv.IsNull() || rv.IsNull() {
		return false
	}
	if op == sqlparser.OpLike {
		return likeMatch(lv.Str, rv.Str)
	}
	cmp := sqltypes.Compare(lv, rv)
	switch op {
	case sqlparser.OpEQ:
		return cmp == 0
	case sqlparser.OpNE:
		return cmp != 0
	case sqlparser.OpLT:
		return cmp < 0
	case sqlparser.OpLE:
		return cmp <= 0
	case sqlparser.OpGT:
		return cmp > 0
	default:
		return cmp >= 0
	}
}

// colRef resolves e as a column of the statement, for the fused leaves.
func (cc *compiler) colRef(e sqlparser.Expr) (slot, pos int, ok bool) {
	ref, isRef := e.(*sqlparser.ColumnRef)
	if !isRef {
		return 0, 0, false
	}
	slot, pos, err := cc.ctx.lay.resolve(ref)
	return slot, pos, err == nil
}

// column reads a resolved column; a short tuple yields NULL.
func column(r row, slot, pos int) sqltypes.Value {
	if tup := r[slot]; pos < len(tup) {
		return tup[pos]
	}
	return sqltypes.Null()
}

// fusedCompare is the dominant filter shape — <col> cmp <literal>, either
// way round — as one closure: three nodes per tuple (comparison, column,
// literal), with int and string constants compared without going through
// sqltypes.Compare. It returns nil for any other shape.
func (cc *compiler) fusedCompare(v *sqlparser.BinaryExpr) predFn {
	op, colSide, litSide := v.Op, v.L, v.R
	if _, litLeft := v.L.(*sqlparser.Literal); litLeft && op != sqlparser.OpLike {
		// <lit> cmp <col> is <col> cmp' <lit> with the operator mirrored
		// (LIKE has no mirror).
		colSide, litSide = v.R, v.L
		switch op {
		case sqlparser.OpLT:
			op = sqlparser.OpGT
		case sqlparser.OpLE:
			op = sqlparser.OpGE
		case sqlparser.OpGT:
			op = sqlparser.OpLT
		case sqlparser.OpGE:
			op = sqlparser.OpLE
		}
	}
	slot, pos, ok := cc.colRef(colSide)
	lit, isLit := litSide.(*sqlparser.Literal)
	if !ok || !isLit {
		return nil
	}
	cc.visit(3)
	ops, c := &cc.ctx.ops, lit.Value
	switch {
	case c.Kind == sqltypes.KindInt && op != sqlparser.OpLike:
		ci := c.Int
		return func(r row) bool {
			*ops += 3
			if tup := r[slot]; pos < len(tup) && tup[pos].Kind == sqltypes.KindInt {
				vi := tup[pos].Int
				switch op {
				case sqlparser.OpEQ:
					return vi == ci
				case sqlparser.OpNE:
					return vi != ci
				case sqlparser.OpLT:
					return vi < ci
				case sqlparser.OpLE:
					return vi <= ci
				case sqlparser.OpGT:
					return vi > ci
				default:
					return vi >= ci
				}
			}
			return compare(op, column(r, slot, pos), c)
		}
	case c.Kind == sqltypes.KindString && op == sqlparser.OpEQ:
		cs := c.Str
		return func(r row) bool {
			*ops += 3
			if tup := r[slot]; pos < len(tup) && tup[pos].Kind == sqltypes.KindString {
				return tup[pos].Str == cs
			}
			return compare(op, column(r, slot, pos), c)
		}
	default:
		return func(r row) bool {
			*ops += 3
			return compare(op, column(r, slot, pos), c)
		}
	}
}

// in compiles IN. A list item that is a subquery contributes all of its
// first-column values and, unlike a subquery in value position, is not
// itself a charged node.
func (cc *compiler) in(v *sqlparser.InExpr) predFn {
	ops := &cc.ctx.ops
	// Fused shape: <col> IN (<lit>, ...). Two nodes up front (IN + column)
	// and one per list item tried, stopping at the first match.
	if slot, pos, ok := cc.colRef(v.E); ok {
		lits := make([]sqltypes.Value, 0, len(v.List))
		for _, item := range v.List {
			if lit, isLit := item.(*sqlparser.Literal); isLit {
				lits = append(lits, lit.Value)
			}
		}
		if len(lits) == len(v.List) {
			cc.visit(2 + len(lits))
			return func(r row) bool {
				*ops += 2
				val := column(r, slot, pos)
				if val.IsNull() {
					return false
				}
				for _, c := range lits {
					*ops++
					if val.Kind == sqltypes.KindInt && c.Kind == sqltypes.KindInt {
						if val.Int == c.Int {
							return true
						}
						continue
					}
					if sqltypes.Equal(val, c) {
						return true
					}
				}
				return false
			}
		}
	}
	cc.visit(1)
	sub := cc.value(v.E, false)
	type inItem struct {
		val   valFn
		query *sqlparser.SelectStmt
	}
	items := make([]inItem, len(v.List))
	for i, item := range v.List {
		if sq, ok := item.(*sqlparser.SubqueryExpr); ok {
			items[i].query = sq.Query
		} else {
			items[i].val = cc.value(item, false)
		}
	}
	ctx := cc.ctx
	return func(r row) bool {
		*ops++
		val := sub(r)
		if val.IsNull() {
			return false
		}
		for _, item := range items {
			if item.query == nil {
				if sqltypes.Equal(val, item.val(r)) {
					return true
				}
				continue
			}
			for _, sv := range ctx.scalarSubquery(item.query) {
				if sqltypes.Equal(val, sv) {
					return true
				}
			}
		}
		return false
	}
}

// between compiles BETWEEN; <col> BETWEEN <lit> AND <lit> is fused into one
// closure of four nodes (between, column, both bounds).
func (cc *compiler) between(v *sqlparser.BetweenExpr) predFn {
	ops := &cc.ctx.ops
	within := func(val, lo, hi sqltypes.Value) bool {
		if val.IsNull() || lo.IsNull() || hi.IsNull() {
			return false
		}
		return sqltypes.Compare(val, lo) >= 0 && sqltypes.Compare(val, hi) <= 0
	}
	if slot, pos, ok := cc.colRef(v.E); ok {
		lo, okLo := v.Lo.(*sqlparser.Literal)
		hi, okHi := v.Hi.(*sqlparser.Literal)
		if okLo && okHi {
			cc.visit(4)
			loV, hiV := lo.Value, hi.Value
			ints := loV.Kind == sqltypes.KindInt && hiV.Kind == sqltypes.KindInt
			return func(r row) bool {
				*ops += 4
				if tup := r[slot]; ints && pos < len(tup) && tup[pos].Kind == sqltypes.KindInt {
					return tup[pos].Int >= loV.Int && tup[pos].Int <= hiV.Int
				}
				return within(column(r, slot, pos), loV, hiV)
			}
		}
	}
	cc.visit(1)
	sub, lo, hi := cc.value(v.E, false), cc.value(v.Lo, false), cc.value(v.Hi, false)
	return func(r row) bool {
		*ops++
		val := sub(r)
		lv := lo(r)
		return within(val, lv, hi(r))
	}
}

// scalarSubquery executes an uncorrelated subquery once per statement and
// returns its first-column values. A failure is recorded on the context
// and yields no values.
func (c *evalCtx) scalarSubquery(q *sqlparser.SelectStmt) []sqltypes.Value {
	res, ok := c.subqueries[q]
	if !ok {
		var out *Result
		if out, res.err = c.db.execSelect(c.st, q); res.err == nil {
			res.vals = make([]sqltypes.Value, 0, len(out.Rows))
			for _, r := range out.Rows {
				if len(r) > 0 {
					res.vals = append(res.vals, r[0])
				}
			}
		}
		if c.subqueries == nil {
			c.subqueries = make(map[*sqlparser.SelectStmt]subqueryResult)
		}
		c.subqueries[q] = res
	}
	if res.err != nil && c.err == nil {
		c.err = res.err
	}
	return res.vals
}

func truthy(v sqltypes.Value) bool {
	switch v.Kind {
	case sqltypes.KindInt:
		return v.Int != 0
	case sqltypes.KindFloat:
		return v.Float != 0
	case sqltypes.KindString:
		return v.Str != ""
	default:
		return false
	}
}

func boolVal(b bool) sqltypes.Value {
	if b {
		return sqltypes.NewInt(1)
	}
	return sqltypes.NewInt(0)
}

func arith(op sqlparser.BinOp, l, r sqltypes.Value) sqltypes.Value {
	if l.IsNull() || r.IsNull() {
		return sqltypes.Null()
	}
	intOp := l.Kind == sqltypes.KindInt && r.Kind == sqltypes.KindInt
	switch op {
	case sqlparser.OpAdd:
		if intOp {
			return sqltypes.NewInt(l.Int + r.Int)
		}
		return sqltypes.NewFloat(l.AsFloat() + r.AsFloat())
	case sqlparser.OpSub:
		if intOp {
			return sqltypes.NewInt(l.Int - r.Int)
		}
		return sqltypes.NewFloat(l.AsFloat() - r.AsFloat())
	case sqlparser.OpMul:
		if intOp {
			return sqltypes.NewInt(l.Int * r.Int)
		}
		return sqltypes.NewFloat(l.AsFloat() * r.AsFloat())
	case sqlparser.OpDiv:
		rf := r.AsFloat()
		if rf == 0 {
			return sqltypes.Null()
		}
		return sqltypes.NewFloat(l.AsFloat() / rf)
	default:
		return sqltypes.Null()
	}
}

// likeMatch implements SQL LIKE with % and _ wildcards.
func likeMatch(s, p string) bool {
	for len(p) > 0 {
		switch p[0] {
		case '%':
			for len(p) > 0 && p[0] == '%' {
				p = p[1:]
			}
			if len(p) == 0 {
				return true
			}
			for i := 0; i <= len(s); i++ {
				if likeMatch(s[i:], p) {
					return true
				}
			}
			return false
		case '_':
			if len(s) == 0 {
				return false
			}
			s, p = s[1:], p[1:]
		default:
			if len(s) == 0 || s[0] != p[0] {
				return false
			}
			s, p = s[1:], p[1:]
		}
	}
	return len(s) == 0
}
