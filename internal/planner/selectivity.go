package planner

import (
	"repro/internal/catalog"
	"repro/internal/costparams"
	"repro/internal/sqlparser"
	"repro/internal/sqltypes"
)

// constValue evaluates a constant expression to a value. Placeholders return
// (null, false) so callers fall back to default selectivities.
func constValue(e sqlparser.Expr) (sqltypes.Value, bool) {
	switch v := e.(type) {
	case *sqlparser.Literal:
		return v.Value, true
	case *sqlparser.Placeholder:
		return sqltypes.Null(), false
	case *sqlparser.BinaryExpr:
		l, okL := constValue(v.L)
		r, okR := constValue(v.R)
		if !okL || !okR {
			return sqltypes.Null(), false
		}
		// A NULL operand folds to NULL under any operator.
		return v.Op.Arith(l, r), v.Op.IsArith() || l.IsNull() || r.IsNull()
	default:
		return sqltypes.Null(), false
	}
}

// predicateSelectivity estimates the fraction of a table's rows passing one
// predicate that references only that table's binding.
func predicateSelectivity(tbl *catalog.Table, e sqlparser.Expr) float64 {
	switch v := e.(type) {
	case *sqlparser.BinaryExpr:
		switch v.Op {
		case sqlparser.OpAnd:
			return predicateSelectivity(tbl, v.L) * predicateSelectivity(tbl, v.R)
		case sqlparser.OpOr:
			a := predicateSelectivity(tbl, v.L)
			b := predicateSelectivity(tbl, v.R)
			return a + b - a*b
		default:
			return comparisonSelectivity(tbl, v)
		}
	case *sqlparser.NotExpr:
		return 1 - predicateSelectivity(tbl, v.E)
	case *sqlparser.InExpr:
		col, ok := v.E.(*sqlparser.ColumnRef)
		if !ok {
			return costparams.DefaultEqSelectivity
		}
		stats := columnStats(tbl, col)
		eq := stats.SelectivityEq()
		sel := eq * float64(len(v.List))
		if sel > 1 {
			sel = 1
		}
		return sel
	case *sqlparser.BetweenExpr:
		col, ok := v.E.(*sqlparser.ColumnRef)
		if !ok {
			return costparams.DefaultRangeSelectivity
		}
		stats := columnStats(tbl, col)
		lo, okLo := constValue(v.Lo)
		hi, okHi := constValue(v.Hi)
		if !okLo || !okHi {
			return costparams.DefaultRangeSelectivity
		}
		return stats.SelectivityRange(lo, hi, true, true)
	case *sqlparser.IsNullExpr:
		if v.Not {
			return 0.95
		}
		return 0.05
	default:
		return 0.5
	}
}

// comparisonSelectivity handles col <op> const and const <op> col.
func comparisonSelectivity(tbl *catalog.Table, b *sqlparser.BinaryExpr) float64 {
	col, cok := b.L.(*sqlparser.ColumnRef)
	val := b.R
	op := b.Op
	if !cok {
		if col2, ok := b.R.(*sqlparser.ColumnRef); ok {
			col, val = col2, b.L
			op = flipOp(op)
		} else {
			return 0.5
		}
	}
	if !isConstExpr(val) {
		// column-to-column comparison inside one table
		return costparams.DefaultRangeSelectivity
	}
	stats := columnStats(tbl, col)
	switch op {
	case sqlparser.OpEQ:
		if stats == nil {
			return costparams.DefaultEqSelectivity
		}
		return stats.SelectivityEq()
	case sqlparser.OpNE:
		if stats == nil {
			return 1 - costparams.DefaultEqSelectivity
		}
		return 1 - stats.SelectivityEq()
	case sqlparser.OpLT, sqlparser.OpLE:
		v, ok := constValue(val)
		if !ok || stats == nil {
			return costparams.DefaultRangeSelectivity
		}
		return stats.SelectivityRange(sqltypes.Null(), v, false, op == sqlparser.OpLE)
	case sqlparser.OpGT, sqlparser.OpGE:
		v, ok := constValue(val)
		if !ok || stats == nil {
			return costparams.DefaultRangeSelectivity
		}
		return stats.SelectivityRange(v, sqltypes.Null(), op == sqlparser.OpGE, false)
	default:
		return 0.5
	}
}

func flipOp(op sqlparser.BinOp) sqlparser.BinOp {
	switch op {
	case sqlparser.OpLT:
		return sqlparser.OpGT
	case sqlparser.OpLE:
		return sqlparser.OpGE
	case sqlparser.OpGT:
		return sqlparser.OpLT
	case sqlparser.OpGE:
		return sqlparser.OpLE
	default:
		return op
	}
}

func columnStats(tbl *catalog.Table, ref *sqlparser.ColumnRef) *catalog.ColumnStats {
	if tbl == nil || ref == nil {
		return nil
	}
	return tbl.ColumnStatsFor(ref.Column)
}
