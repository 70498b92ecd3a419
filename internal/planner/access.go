package planner

import (
	"math"

	"repro/internal/catalog"
	"repro/internal/costparams"
	"repro/internal/sqlparser"
	"repro/internal/sqltypes"
)

// accessBound is a single-column bound extracted from conjuncts: col = x,
// col < x, etc., usable by an index.
type accessBound struct {
	col     string
	eq      sqlparser.Expr   // non-nil for equality
	in      []sqlparser.Expr // non-empty for a constant IN list
	lo, hi  sqlparser.Expr
	loInc   bool
	hiInc   bool
	conj    sqlparser.Expr // originating conjunct, removed from residual
	conjHi  sqlparser.Expr // second conjunct when lo and hi come separately
	selHint float64
}

// extractBounds pulls per-column sargable bounds from a table's conjuncts.
// outerOK controls whether expressions referencing other bindings may serve
// as bounds (true when building inner sides of index nested-loop joins).
func extractBounds(binding string, conjuncts []sqlparser.Expr, outerOK bool) map[string]*accessBound {
	bounds := make(map[string]*accessBound)
	boundOK := func(e sqlparser.Expr) bool {
		if isConstExpr(e) {
			return true
		}
		if !outerOK {
			return false
		}
		// must not reference the scanned binding itself
		m := make(map[string]bool)
		exprBindings(e, m)
		return !m[binding]
	}
	for _, c := range conjuncts {
		switch v := c.(type) {
		case *sqlparser.BinaryExpr:
			if v.Op == sqlparser.OpLike {
				// Prefix LIKE ('abc%') becomes a range bound [abc, abc\xff);
				// the LIKE itself stays in the residual filter, so the bound
				// only narrows the scan and can never change results.
				col, okCol := v.L.(*sqlparser.ColumnRef)
				lit, okLit := v.R.(*sqlparser.Literal)
				if !okCol || !okLit || col.Table != binding {
					continue
				}
				prefix := likePrefix(lit.Value.Str)
				if prefix == "" {
					continue
				}
				b := bounds[col.Column]
				if b == nil {
					b = &accessBound{col: col.Column}
					bounds[col.Column] = b
				}
				if b.eq == nil && len(b.in) == 0 && b.lo == nil && b.hi == nil {
					b.lo = &sqlparser.Literal{Value: sqltypes.NewString(prefix)}
					b.hi = &sqlparser.Literal{Value: sqltypes.NewString(prefix + "\xff")}
					b.loInc, b.hiInc = true, false
					// No conj consumption: LIKE must remain in the residual.
				}
				continue
			}
			if !v.Op.IsComparison() || v.Op == sqlparser.OpNE {
				continue
			}
			col, val, op := normalizeComparison(binding, v)
			if col == nil || !boundOK(val) {
				continue
			}
			b := bounds[col.Column]
			if b == nil {
				b = &accessBound{col: col.Column}
				bounds[col.Column] = b
			}
			switch op {
			case sqlparser.OpEQ:
				if b.eq == nil {
					b.eq = val
					b.conj = c
				}
			case sqlparser.OpLT, sqlparser.OpLE:
				if b.hi == nil {
					b.hi = val
					b.hiInc = op == sqlparser.OpLE
					if b.conj == nil {
						b.conj = c
					} else {
						b.conjHi = c
					}
				}
			case sqlparser.OpGT, sqlparser.OpGE:
				if b.lo == nil {
					b.lo = val
					b.loInc = op == sqlparser.OpGE
					if b.conj == nil {
						b.conj = c
					} else {
						b.conjHi = c
					}
				}
			}
		case *sqlparser.BetweenExpr:
			col, ok := v.E.(*sqlparser.ColumnRef)
			if !ok || col.Table != binding || !boundOK(v.Lo) || !boundOK(v.Hi) {
				continue
			}
			b := bounds[col.Column]
			if b == nil {
				b = &accessBound{col: col.Column}
				bounds[col.Column] = b
			}
			if b.lo == nil && b.hi == nil && b.eq == nil {
				b.lo, b.hi = v.Lo, v.Hi
				b.loInc, b.hiInc = true, true
				b.conj = c
			}
		case *sqlparser.InExpr:
			col, ok := v.E.(*sqlparser.ColumnRef)
			if !ok || col.Table != binding || len(v.List) == 0 {
				continue
			}
			allConst := true
			for _, item := range v.List {
				if !isConstExpr(item) {
					allConst = false
					break
				}
			}
			if !allConst {
				continue
			}
			b := bounds[col.Column]
			if b == nil {
				b = &accessBound{col: col.Column}
				bounds[col.Column] = b
			}
			if b.eq == nil && len(b.in) == 0 {
				b.in = v.List
				if b.conj == nil {
					b.conj = c
				} else {
					b.conjHi = c
				}
			}
		}
	}
	return bounds
}

// likePrefix returns the literal prefix of a LIKE pattern before the first
// wildcard ("" when the pattern starts with one).
func likePrefix(pattern string) string {
	for i := 0; i < len(pattern); i++ {
		if pattern[i] == '%' || pattern[i] == '_' {
			return pattern[:i]
		}
	}
	return pattern
}

// normalizeComparison orients col-op-expr with the column on the left and
// verifies the column belongs to the binding.
func normalizeComparison(binding string, v *sqlparser.BinaryExpr) (*sqlparser.ColumnRef, sqlparser.Expr, sqlparser.BinOp) {
	if col, ok := v.L.(*sqlparser.ColumnRef); ok && col.Table == binding {
		return col, v.R, v.Op
	}
	if col, ok := v.R.(*sqlparser.ColumnRef); ok && col.Table == binding {
		return col, v.L, flipOp(v.Op)
	}
	return nil, nil, v.Op
}

// candidatePath is one possible access path for a table.
type candidatePath struct {
	index    *catalog.IndexMeta // nil for seqscan
	eqVals   []sqlparser.Expr
	inVals   []sqlparser.Expr
	lo, hi   sqlparser.Expr
	loInc    bool
	hiInc    bool
	usedConj []sqlparser.Expr
	sel      float64
	rows     float64
	cost     float64
	// probes is how many separate descents the path performs (IN lists
	// probe once per value; local indexes may probe per partition).
	probes float64
}

// chooseAccessPath picks the cheapest path for a base table given its
// conjuncts, considering seqscan and every (real or hypothetical) index.
func chooseAccessPath(cat *catalog.Catalog, tbl *catalog.Table, binding string,
	conjuncts []sqlparser.Expr, outerOK bool) candidatePath {

	numRows := float64(tbl.NumRows)
	if numRows < 1 {
		numRows = 1
	}
	heapPages := numRows / 64 // storage.TuplesPerPage; avoid import cycle
	if heapPages < 1 {
		heapPages = 1
	}

	// Selectivity of all conjuncts combined (applies to every path's output).
	outSel := 1.0
	for _, c := range conjuncts {
		if onlyBinding(c, binding) {
			outSel *= predicateSelectivity(tbl, c)
		}
	}
	outRows := numRows * outSel
	if outRows < 1 {
		outRows = 1
	}

	best := candidatePath{
		sel:  1,
		rows: outRows,
		cost: heapPages*costparams.SeqPageCost + numRows*costparams.CPUTupleCost,
	}

	bounds := extractBounds(binding, conjuncts, outerOK)
	if len(bounds) == 0 {
		return best
	}

	for _, idx := range cat.TableIndexes(tbl.Name, true) {
		path, ok := buildIndexPath(tbl, idx, bounds)
		if !ok {
			continue
		}
		matchRows := numRows * path.sel
		if matchRows < 1 {
			matchRows = 1
		}
		height := float64(idx.Height)
		if height < 1 {
			height = 1
		}
		// Local indexes on partitioned tables: one descent when the
		// partition column is equality-bound in the used prefix, otherwise
		// one descent per partition (paper §III: local is less efficient
		// for lookups that miss the partition key, but smaller). IN lists
		// multiply probes by list length.
		probes := 1.0
		if len(path.inVals) > 0 {
			probes = float64(len(path.inVals))
		}
		if idx.Local && tbl.IsPartitioned() && !partitionBound(tbl, idx, len(path.eqVals)) {
			probes *= float64(tbl.Partitions)
		}
		leafPages := float64(idx.NumPages) * path.sel
		if leafPages < 1 {
			leafPages = 1
		}
		// descent + leaf scan + heap fetches + tuple processing; page
		// pricing mirrors engine.ExecStats.ActualCost so estimated and
		// measured costs stay commensurable.
		path.cost = probes*height*costparams.RandomPageCost +
			math.Max(leafPages, probes)*costparams.RandomPageCost +
			matchRows*costparams.SeqPageCost +
			matchRows*(costparams.CPUIndexTupleCost+costparams.CPUTupleCost)
		path.rows = outRows
		if path.cost < best.cost {
			best = path
		}
	}
	return best
}

// partitionBound reports whether the table's partition column is among the
// first eqCols equality-bound columns of the index prefix.
func partitionBound(tbl *catalog.Table, idx *catalog.IndexMeta, eqCols int) bool {
	for i := 0; i < eqCols && i < len(idx.Columns); i++ {
		if idx.Columns[i] == tbl.PartitionBy {
			return true
		}
	}
	return false
}

// buildIndexPath matches bounds against an index's leftmost prefix: as many
// equality columns as possible, then at most one range column.
func buildIndexPath(tbl *catalog.Table, idx *catalog.IndexMeta, bounds map[string]*accessBound) (candidatePath, bool) {
	path := candidatePath{index: idx, sel: 1}
	for _, col := range idx.Columns {
		b, ok := bounds[col]
		if !ok {
			break
		}
		if b.eq != nil {
			path.eqVals = append(path.eqVals, b.eq)
			path.usedConj = append(path.usedConj, b.conj)
			stats := tbl.ColumnStatsFor(col)
			path.sel *= stats.SelectivityEq()
			continue
		}
		if len(b.in) > 0 {
			path.inVals = b.in
			path.usedConj = append(path.usedConj, b.conj)
			if b.conjHi != nil {
				path.usedConj = append(path.usedConj, b.conjHi)
			}
			stats := tbl.ColumnStatsFor(col)
			sel := stats.SelectivityEq() * float64(len(b.in))
			if sel > 1 {
				sel = 1
			}
			path.sel *= sel
			break // multi-probe column ends the prefix
		}
		if b.lo != nil || b.hi != nil {
			path.lo, path.hi = b.lo, b.hi
			path.loInc, path.hiInc = b.loInc, b.hiInc
			path.usedConj = append(path.usedConj, b.conj)
			if b.conjHi != nil {
				path.usedConj = append(path.usedConj, b.conjHi)
			}
			stats := tbl.ColumnStatsFor(col)
			sel := costparams.DefaultRangeSelectivity
			if stats != nil {
				lo := sqltypes.Null()
				hi := sqltypes.Null()
				okLo, okHi := false, false
				if b.lo != nil {
					lo, okLo = constValue(b.lo)
				}
				if b.hi != nil {
					hi, okHi = constValue(b.hi)
				}
				if okLo || okHi {
					sel = stats.SelectivityRange(lo, hi, b.loInc, b.hiInc)
				}
			}
			path.sel *= sel
		}
		break // at most one range column, and nothing after it
	}
	if len(path.eqVals) == 0 && len(path.inVals) == 0 && path.lo == nil && path.hi == nil {
		return path, false
	}
	if path.sel > 1 {
		path.sel = 1
	}
	if path.sel < 1e-9 {
		path.sel = 1e-9
	}
	return path, true
}

// onlyBinding reports whether the expression references at most the given
// binding (constants allowed).
func onlyBinding(e sqlparser.Expr, binding string) bool {
	m := make(map[string]bool)
	exprBindings(e, m)
	for b := range m {
		if b != binding {
			return false
		}
	}
	return true
}
