package planner

import (
	"math"
	"strings"

	"repro/internal/catalog"
	"repro/internal/costparams"
	"repro/internal/sqlparser"
)

// PlanSelect plans a SELECT statement against the catalog (including any
// hypothetical indexes registered in it). The statement's expressions are
// resolved in place (unqualified columns gain their binding).
func PlanSelect(cat *catalog.Catalog, stmt *sqlparser.SelectStmt) (*SelectPlan, error) {
	sc, err := buildScope(cat, stmt)
	if err != nil {
		return nil, err
	}
	if err := resolveStatement(sc, stmt); err != nil {
		return nil, err
	}

	plan := &SelectPlan{Stmt: stmt}

	// All conjuncts: WHERE plus every JOIN ... ON condition.
	conjuncts := splitConjuncts(stmt.Where)
	for _, j := range stmt.Joins {
		conjuncts = append(conjuncts, splitConjuncts(j.On)...)
	}

	root, used, err := planFromClause(cat, sc, conjuncts)
	if err != nil {
		return nil, err
	}
	plan.IndexesUsed = used

	needAgg := len(stmt.GroupBy) > 0 || hasAggregate(stmt.Select)
	if needAgg {
		groups := float64(1)
		if len(stmt.GroupBy) > 0 {
			groups = math.Max(1, root.EstRows()/10)
		}
		root = &AggNode{
			baseNode: baseNode{rows: groups,
				cost: root.EstCost() + root.EstRows()*costparams.CPUOperatorCost*float64(1+len(stmt.GroupBy))},
			Input:   root,
			GroupBy: stmt.GroupBy,
			Select:  stmt.Select,
			Having:  stmt.Having,
		}
	}

	if len(stmt.OrderBy) > 0 {
		satisfied := orderSatisfied(root, stmt.OrderBy)
		sortCost := 0.0
		if !satisfied {
			n := math.Max(root.EstRows(), 2)
			sortCost = n * math.Log2(n) * costparams.CPUOperatorCost
		}
		root = &SortNode{
			baseNode:  baseNode{rows: root.EstRows(), cost: root.EstCost() + sortCost},
			Input:     root,
			OrderBy:   stmt.OrderBy,
			Satisfied: satisfied,
		}
	}

	if !needAgg {
		root = &ProjectNode{
			baseNode: baseNode{rows: root.EstRows(),
				cost: root.EstCost() + root.EstRows()*costparams.CPUOperatorCost*float64(len(stmt.Select))},
			Input:    root,
			Select:   stmt.Select,
			Distinct: stmt.Distinct,
		}
	}

	if stmt.Limit >= 0 {
		rows := math.Min(float64(stmt.Limit), root.EstRows())
		root = &LimitNode{baseNode: baseNode{rows: rows, cost: root.EstCost()}, Input: root, N: stmt.Limit}
	}

	plan.Root = root
	return plan, nil
}

// resolveStatement resolves all expressions of the SELECT in place.
func resolveStatement(sc *scope, stmt *sqlparser.SelectStmt) error {
	for i := range stmt.Select {
		if stmt.Select[i].Star {
			continue
		}
		if err := sc.resolveExpr(stmt.Select[i].Expr); err != nil {
			return err
		}
	}
	if stmt.Where != nil {
		if err := sc.resolveExpr(stmt.Where); err != nil {
			return err
		}
	}
	for _, j := range stmt.Joins {
		if err := sc.resolveExpr(j.On); err != nil {
			return err
		}
	}
	for _, g := range stmt.GroupBy {
		if err := sc.resolveExpr(g); err != nil {
			return err
		}
	}
	if stmt.Having != nil {
		if err := sc.resolveExpr(stmt.Having); err != nil {
			return err
		}
	}
	// ORDER BY may reference select-list aliases (ORDER BY total); rewrite
	// those to the aliased expression before resolution.
	aliases := make(map[string]sqlparser.Expr)
	for _, item := range stmt.Select {
		if !item.Star && item.Alias != "" {
			aliases[strings.ToLower(item.Alias)] = item.Expr
		}
	}
	for i := range stmt.OrderBy {
		if ref, ok := stmt.OrderBy[i].Expr.(*sqlparser.ColumnRef); ok && ref.Table == "" {
			if e, isAlias := aliases[strings.ToLower(ref.Column)]; isAlias {
				stmt.OrderBy[i].Expr = e
				continue // already resolved via the select list
			}
		}
		if err := sc.resolveExpr(stmt.OrderBy[i].Expr); err != nil {
			return err
		}
	}
	return nil
}

// tableInput is one planned FROM-clause entry awaiting join ordering.
type tableInput struct {
	binding string
	node    Node
	table   *catalog.Table
}

// planFromClause builds the join tree over all bindings: each binding is
// planned standalone with its single-binding conjuncts pushed down, then a
// greedy smallest-first order joins them, preferring index nested loops when
// the inner base table has a usable index on the join key, then hash joins
// for equi-joins, then nested loops.
func planFromClause(cat *catalog.Catalog, sc *scope, conjuncts []sqlparser.Expr) (Node, []string, error) {
	var usedIndexes []string

	inputs := make(map[string]*tableInput)
	for _, b := range sc.order {
		var mine []sqlparser.Expr
		for _, c := range conjuncts {
			if onlyBinding(c, b) && referencesBinding(c, b) {
				mine = append(mine, c)
			}
		}
		scan, idxName := buildScan(cat, sc.bindings[b], b, mine, false)
		if idxName != "" {
			usedIndexes = append(usedIndexes, idxName)
		}
		inputs[b] = &tableInput{binding: b, node: scan, table: sc.bindings[b]}
	}

	// Cross-binding conjuncts become join conditions.
	consumed := make(map[int]bool)
	var cross []sqlparser.Expr
	for _, c := range conjuncts {
		m := make(map[string]bool)
		exprBindings(c, m)
		if len(m) > 1 {
			cross = append(cross, c)
		}
	}

	pickSmallest := func() *tableInput {
		var best *tableInput
		for _, in := range inputs {
			if best == nil || in.node.EstRows() < best.node.EstRows() ||
				(in.node.EstRows() == best.node.EstRows() && in.binding < best.binding) {
				best = in
			}
		}
		return best
	}

	joined := make(map[string]bool)
	first := pickSmallest()
	cur := first.node
	joined[first.binding] = true
	delete(inputs, first.binding)

	for len(inputs) > 0 {
		next := pickConnected(inputs, joined, cross, consumed)
		if next == nil {
			next = pickSmallest()
		}
		// Conjuncts that become fully evaluable once `next` joins.
		var conds []sqlparser.Expr
		for i, c := range cross {
			if consumed[i] {
				continue
			}
			m := make(map[string]bool)
			exprBindings(c, m)
			ok := true
			for b := range m {
				if b != next.binding && !joined[b] {
					ok = false
					break
				}
			}
			if ok && m[next.binding] {
				conds = append(conds, c)
				consumed[i] = true
			}
		}
		node, idxName := buildJoin(cat, cur, next, joined, conds, conjuncts)
		if idxName != "" {
			usedIndexes = append(usedIndexes, idxName)
		}
		cur = node
		joined[next.binding] = true
		delete(inputs, next.binding)
	}

	// Any cross conjunct never consumed (e.g. references bindings joined in
	// an order where it was skipped) is applied as a final filter.
	var leftover []sqlparser.Expr
	for i, c := range cross {
		if !consumed[i] {
			leftover = append(leftover, c)
		}
	}
	if len(leftover) > 0 {
		cond := andAll(leftover)
		rows := cur.EstRows() * 0.5
		if rows < 1 {
			rows = 1
		}
		cur = &FilterNode{
			baseNode: baseNode{rows: rows, cost: cur.EstCost() + cur.EstRows()*costparams.CPUOperatorCost},
			Input:    cur,
			Cond:     cond,
		}
	}
	return cur, usedIndexes, nil
}

// pickConnected returns a remaining input connected to the joined set via an
// unconsumed cross conjunct (preferring the smallest), or nil.
func pickConnected(inputs map[string]*tableInput, joined map[string]bool,
	cross []sqlparser.Expr, consumed map[int]bool) *tableInput {
	var best *tableInput
	for i, c := range cross {
		if consumed[i] {
			continue
		}
		m := make(map[string]bool)
		exprBindings(c, m)
		var candidate string
		ok := true
		for b := range m {
			if joined[b] {
				continue
			}
			if candidate != "" && candidate != b {
				ok = false
				break
			}
			candidate = b
		}
		if !ok || candidate == "" {
			continue
		}
		in, exists := inputs[candidate]
		if !exists {
			continue
		}
		if best == nil || in.node.EstRows() < best.node.EstRows() ||
			(in.node.EstRows() == best.node.EstRows() && in.binding < best.binding) {
			best = in
		}
	}
	return best
}

func hasAggregate(items []sqlparser.SelectItem) bool {
	for _, it := range items {
		if it.Star {
			continue
		}
		if exprHasAggregate(it.Expr) {
			return true
		}
	}
	return false
}

func exprHasAggregate(e sqlparser.Expr) bool {
	found := false
	sqlparser.Walk(e, func(x sqlparser.Expr) bool {
		if f, ok := x.(*sqlparser.FuncExpr); ok {
			switch f.Name {
			case "SUM", "COUNT", "AVG", "MIN", "MAX":
				found = true
			}
		}
		return !found
	})
	return found
}

// referencesBinding reports whether e mentions the binding at all.
func referencesBinding(e sqlparser.Expr, binding string) bool {
	m := make(map[string]bool)
	exprBindings(e, m)
	return m[binding]
}

// orderSatisfied reports whether the plan's leftmost scan already delivers
// the requested order: a single index scan whose key columns extend the
// equality prefix in ORDER BY order, all ascending.
func orderSatisfied(n Node, order []sqlparser.OrderItem) bool {
	scan, ok := leftmostIndexScan(n)
	if !ok {
		return false
	}
	for _, o := range order {
		if o.Desc {
			return false
		}
	}
	pos := len(scan.EqVals)
	for _, o := range order {
		ref, ok := o.Expr.(*sqlparser.ColumnRef)
		if !ok || ref.Table != scan.Binding {
			return false
		}
		if pos >= len(scan.Index.Columns) || scan.Index.Columns[pos] != ref.Column {
			return false
		}
		pos++
	}
	return true
}

// leftmostIndexScan accepts only a bare index scan (possibly under filters
// or projection): joins and aggregation do not preserve index order here.
func leftmostIndexScan(n Node) (*IndexScanNode, bool) {
	switch v := n.(type) {
	case *IndexScanNode:
		return v, true
	case *FilterNode:
		return leftmostIndexScan(v.Input)
	case *ProjectNode:
		return leftmostIndexScan(v.Input)
	default:
		return nil, false
	}
}

// Explain renders an indented plan tree for debugging and EXPLAIN output.
func Explain(n Node) string {
	var b strings.Builder
	explainInto(&b, n, 0)
	return b.String()
}

func explainInto(b *strings.Builder, n Node, depth int) {
	b.WriteString(strings.Repeat("  ", depth))
	b.WriteString(n.Explain())
	b.WriteString("\n")
	switch v := n.(type) {
	case *JoinNode:
		explainInto(b, v.Left, depth+1)
		explainInto(b, v.Right, depth+1)
	case *FilterNode:
		explainInto(b, v.Input, depth+1)
	case *AggNode:
		explainInto(b, v.Input, depth+1)
	case *SortNode:
		explainInto(b, v.Input, depth+1)
	case *ProjectNode:
		explainInto(b, v.Input, depth+1)
	case *LimitNode:
		explainInto(b, v.Input, depth+1)
	}
}
