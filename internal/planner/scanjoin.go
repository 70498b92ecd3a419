package planner

import (
	"math"

	"repro/internal/catalog"
	"repro/internal/costparams"
	"repro/internal/sqlparser"
)

// buildScan plans the access path for one base table with its pushed-down
// conjuncts and returns the scan node plus the used index name ("" for
// seqscan). outerOK allows bounds referencing other bindings (INL inners).
func buildScan(cat *catalog.Catalog, tbl *catalog.Table, binding string,
	conjuncts []sqlparser.Expr, outerOK bool) (Node, string) {

	path := chooseAccessPath(cat, tbl, binding, conjuncts, outerOK)
	if path.index == nil {
		return &SeqScanNode{
			baseNode: baseNode{rows: path.rows, cost: path.cost},
			Table:    tbl.Name,
			Binding:  binding,
			Filter:   andAll(conjuncts),
		}, ""
	}
	residual := residualConjuncts(conjuncts, path.usedConj)
	return &IndexScanNode{
		baseNode: baseNode{rows: path.rows, cost: path.cost},
		Table:    tbl.Name,
		Binding:  binding,
		Index:    path.index,
		EqVals:   path.eqVals,
		In:       path.inVals,
		Lo:       path.lo,
		Hi:       path.hi,
		LoInc:    path.loInc,
		HiInc:    path.hiInc,
		Residual: andAll(residual),
		Sel:      path.sel,
	}, path.index.Name
}

// residualConjuncts removes the conjuncts consumed by index bounds.
func residualConjuncts(all, used []sqlparser.Expr) []sqlparser.Expr {
	var out []sqlparser.Expr
	for _, c := range all {
		consumed := false
		for _, u := range used {
			if c == u {
				consumed = true
				break
			}
		}
		if !consumed {
			out = append(out, c)
		}
	}
	return out
}

// buildJoin joins cur with next using the given join conjuncts. It returns
// the join node and the name of the index chosen for an index nested-loop
// inner scan (or "").
func buildJoin(cat *catalog.Catalog, cur Node, next *tableInput,
	joined map[string]bool, conds []sqlparser.Expr, allConjuncts []sqlparser.Expr) (Node, string) {

	leftRows := math.Max(cur.EstRows(), 1)
	rightRows := math.Max(next.node.EstRows(), 1)
	cond := andAll(conds)

	// Join output cardinality: equi-join assumes FK-like match of the larger
	// side; cross join multiplies.
	var outRows float64
	leftKey, rightKey := equiJoinKeys(conds, joined, next.binding)
	if leftKey != nil {
		outRows = math.Max(leftRows, rightRows) * 0.8
	} else if cond != nil {
		outRows = leftRows * rightRows * 0.1
	} else {
		outRows = leftRows * rightRows
	}
	if outRows < 1 {
		outRows = 1
	}

	// Option 1: index nested loop — next is a base table with an index
	// usable from the join conjuncts (outer references allowed).
	if len(conds) > 0 {
		var mine []sqlparser.Expr
		for _, c := range allConjuncts {
			if onlyBinding(c, next.binding) && referencesBinding(c, next.binding) {
				mine = append(mine, c)
			}
		}
		inner, idxName := buildScan(cat, next.table, next.binding,
			append(append([]sqlparser.Expr{}, mine...), conds...), true)
		if idx, ok := inner.(*IndexScanNode); ok && usesOuterBound(idx, next.binding) {
			perProbe := idx.EstCost()
			cost := cur.EstCost() + leftRows*perProbe
			hashCost := hashJoinCost(cur, next.node, leftRows, rightRows)
			if leftKey == nil || cost < hashCost {
				return &JoinNode{
					baseNode: baseNode{rows: outRows, cost: cost},
					Strategy: JoinIndexNL,
					Left:     cur,
					Right:    inner,
					Cond:     cond,
				}, idxName
			}
		}
	}

	// Option 2: hash join on an equi key.
	if leftKey != nil {
		return &JoinNode{
			baseNode: baseNode{rows: outRows, cost: hashJoinCost(cur, next.node, leftRows, rightRows)},
			Strategy: JoinHash,
			Left:     cur,
			Right:    next.node,
			Cond:     cond,
			LeftKey:  leftKey,
			RightKey: rightKey,
		}, ""
	}

	// Option 3: nested loop.
	cost := cur.EstCost() + next.node.EstCost() + leftRows*rightRows*costparams.CPUOperatorCost
	return &JoinNode{
		baseNode: baseNode{rows: outRows, cost: cost},
		Strategy: JoinNestedLoop,
		Left:     cur,
		Right:    next.node,
		Cond:     cond,
	}, ""
}

func hashJoinCost(left, right Node, leftRows, rightRows float64) float64 {
	return left.EstCost() + right.EstCost() +
		rightRows*costparams.CPUTupleCost + // build
		leftRows*costparams.CPUOperatorCost // probe
}

// equiJoinKeys finds the first conjunct of form leftExpr = rightExpr where
// one side references only already-joined bindings and the other only the
// new binding. Returns (leftKey, rightKey) or nils.
func equiJoinKeys(conds []sqlparser.Expr, joined map[string]bool, newBinding string) (sqlparser.Expr, sqlparser.Expr) {
	for _, c := range conds {
		b, ok := c.(*sqlparser.BinaryExpr)
		if !ok || b.Op != sqlparser.OpEQ {
			continue
		}
		lSide := sideOf(b.L, joined, newBinding)
		rSide := sideOf(b.R, joined, newBinding)
		if lSide == sideLeft && rSide == sideRight {
			return b.L, b.R
		}
		if lSide == sideRight && rSide == sideLeft {
			return b.R, b.L
		}
	}
	return nil, nil
}

type joinSide uint8

const (
	sideNeither joinSide = iota
	sideLeft
	sideRight
)

func sideOf(e sqlparser.Expr, joined map[string]bool, newBinding string) joinSide {
	m := make(map[string]bool)
	exprBindings(e, m)
	if len(m) == 0 {
		return sideNeither
	}
	left, right := true, true
	for b := range m {
		if !joined[b] {
			left = false
		}
		if b != newBinding {
			right = false
		}
	}
	switch {
	case left:
		return sideLeft
	case right:
		return sideRight
	default:
		return sideNeither
	}
}

// usesOuterBound reports whether the index scan's bounds reference bindings
// other than its own (i.e., it is parameterized by the outer row).
func usesOuterBound(idx *IndexScanNode, binding string) bool {
	check := func(e sqlparser.Expr) bool {
		if e == nil {
			return false
		}
		m := make(map[string]bool)
		exprBindings(e, m)
		for b := range m {
			if b != binding {
				return true
			}
		}
		return false
	}
	for _, e := range idx.EqVals {
		if check(e) {
			return true
		}
	}
	return check(idx.Lo) || check(idx.Hi)
}
