package planner

import (
	"fmt"
	"strings"

	"repro/internal/catalog"
	"repro/internal/sqlparser"
)

// scope maps query bindings to their base tables during name resolution.
type scope struct {
	// order preserves FROM-clause order for join planning.
	order    []string
	bindings map[string]*catalog.Table
}

// buildScope registers every FROM and JOIN binding of the statement.
func buildScope(cat *catalog.Catalog, stmt *sqlparser.SelectStmt) (*scope, error) {
	sc := &scope{bindings: make(map[string]*catalog.Table)}
	add := func(ref sqlparser.TableRef) error {
		b := ref.Binding()
		if _, dup := sc.bindings[b]; dup {
			return fmt.Errorf("planner: duplicate binding %q", b)
		}
		t := cat.Table(ref.Name)
		if t == nil {
			return fmt.Errorf("planner: unknown table %q", ref.Name)
		}
		sc.bindings[b] = t
		sc.order = append(sc.order, b)
		return nil
	}
	for _, ref := range stmt.From {
		if err := add(ref); err != nil {
			return nil, err
		}
	}
	for _, j := range stmt.Joins {
		if err := add(j.Table); err != nil {
			return nil, err
		}
	}
	return sc, nil
}

// resolveExpr rewrites every unqualified ColumnRef in the expression to
// carry its binding, verifying qualified references. It returns an error on
// unknown or ambiguous columns.
func (sc *scope) resolveExpr(e sqlparser.Expr) error {
	var err error
	sqlparser.Walk(e, func(x sqlparser.Expr) bool {
		if ref, ok := x.(*sqlparser.ColumnRef); ok && err == nil {
			err = sc.resolveRef(ref)
		}
		return err == nil
	})
	return err
}

func (sc *scope) resolveRef(ref *sqlparser.ColumnRef) error {
	ref.Column = strings.ToLower(ref.Column)
	if ref.Table != "" {
		ref.Table = strings.ToLower(ref.Table)
		t, ok := sc.bindings[ref.Table]
		if !ok {
			return fmt.Errorf("planner: unknown binding %q", ref.Table)
		}
		if t.Column(ref.Column) == nil {
			return fmt.Errorf("planner: column %q not in %q", ref.Column, ref.Table)
		}
		return nil
	}
	var found string
	for _, b := range sc.order {
		if sc.bindings[b].Column(ref.Column) != nil {
			if found != "" {
				return fmt.Errorf("planner: ambiguous column %q (in %q and %q)", ref.Column, found, b)
			}
			found = b
		}
	}
	if found == "" {
		return fmt.Errorf("planner: unknown column %q", ref.Column)
	}
	ref.Table = found
	return nil
}

// exprBindings collects the set of bindings an expression references.
func exprBindings(e sqlparser.Expr, out map[string]bool) {
	sqlparser.Walk(e, func(x sqlparser.Expr) bool {
		if ref, ok := x.(*sqlparser.ColumnRef); ok {
			out[ref.Table] = true
		}
		return true
	})
}

// splitConjuncts flattens a predicate into its AND-ed conjuncts.
func splitConjuncts(e sqlparser.Expr) []sqlparser.Expr {
	if b, ok := e.(*sqlparser.BinaryExpr); ok && b.Op == sqlparser.OpAnd {
		return append(splitConjuncts(b.L), splitConjuncts(b.R)...)
	}
	if e == nil {
		return nil
	}
	return []sqlparser.Expr{e}
}

// andAll recombines conjuncts into one expression (nil for empty).
func andAll(conjuncts []sqlparser.Expr) sqlparser.Expr {
	var out sqlparser.Expr
	for _, c := range conjuncts {
		if out == nil {
			out = c
		} else {
			out = &sqlparser.BinaryExpr{Op: sqlparser.OpAnd, L: out, R: c}
		}
	}
	return out
}

// isConstExpr reports whether the expression references no columns (it can
// be evaluated before execution). Placeholders count as constants: they
// stand for literal parameters in templates.
func isConstExpr(e sqlparser.Expr) bool {
	m := make(map[string]bool)
	exprBindings(e, m)
	return len(m) == 0
}
