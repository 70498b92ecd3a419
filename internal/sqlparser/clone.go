package sqlparser

// Deep copies of the AST. The planner mutates statements in place during
// name resolution (qualifying ColumnRefs, rewriting ORDER BY aliases), and
// the what-if estimator re-plans the same workload template under many
// hypothetical index configurations — so every planning round needs a
// private copy. Clone produces one structurally, replacing the old
// render-to-SQL-and-reparse round trip (a full lex+parse per query per
// configuration evaluation).
//
// sqltypes.Value and plain string/scalar fields are immutable by
// convention and copied by value; every Expr node and slice is duplicated.

import "slices"

// cloneExpr deep-copies an expression, passing nil through (optional
// clauses like WHERE/HAVING are nil when absent).
func cloneExpr(e Expr) Expr {
	if e == nil {
		return nil
	}
	return e.Clone()
}

func cloneExprs(list []Expr) []Expr {
	if list == nil {
		return nil
	}
	out := make([]Expr, len(list))
	for i, e := range list {
		out[i] = cloneExpr(e)
	}
	return out
}

// Clone deep-copies the column reference.
func (c *ColumnRef) Clone() Expr { cp := *c; return &cp }

// Clone deep-copies the literal.
func (l *Literal) Clone() Expr { cp := *l; return &cp }

// Clone deep-copies the placeholder.
func (p *Placeholder) Clone() Expr { return &Placeholder{} }

// Clone deep-copies the binary expression.
func (b *BinaryExpr) Clone() Expr {
	return &BinaryExpr{Op: b.Op, L: cloneExpr(b.L), R: cloneExpr(b.R)}
}

// Clone deep-copies the negation.
func (n *NotExpr) Clone() Expr { return &NotExpr{E: cloneExpr(n.E)} }

// Clone deep-copies the IN expression.
func (i *InExpr) Clone() Expr {
	return &InExpr{E: cloneExpr(i.E), List: cloneExprs(i.List)}
}

// Clone deep-copies the BETWEEN expression.
func (b *BetweenExpr) Clone() Expr {
	return &BetweenExpr{E: cloneExpr(b.E), Lo: cloneExpr(b.Lo), Hi: cloneExpr(b.Hi)}
}

// Clone deep-copies the IS [NOT] NULL expression.
func (i *IsNullExpr) Clone() Expr {
	return &IsNullExpr{E: cloneExpr(i.E), Not: i.Not}
}

// Clone deep-copies the function call.
func (f *FuncExpr) Clone() Expr {
	return &FuncExpr{Name: f.Name, Args: cloneExprs(f.Args), Star: f.Star}
}

// CloneSelect deep-copies a SELECT with its concrete type (Clone returns
// the Statement interface; the planner needs the *SelectStmt itself).
func (s *SelectStmt) CloneSelect() *SelectStmt {
	if s == nil {
		return nil
	}
	cp := &SelectStmt{
		Distinct: s.Distinct,
		Limit:    s.Limit,
	}
	if s.Select != nil {
		cp.Select = make([]SelectItem, len(s.Select))
		for i, it := range s.Select {
			cp.Select[i] = SelectItem{Expr: cloneExpr(it.Expr), Alias: it.Alias, Star: it.Star}
		}
	}
	cp.From = slices.Clone(s.From)
	if s.Joins != nil {
		cp.Joins = make([]JoinClause, len(s.Joins))
		for i, j := range s.Joins {
			cp.Joins[i] = JoinClause{Table: j.Table, On: cloneExpr(j.On)}
		}
	}
	cp.Where = cloneExpr(s.Where)
	cp.GroupBy = cloneExprs(s.GroupBy)
	cp.Having = cloneExpr(s.Having)
	if s.OrderBy != nil {
		cp.OrderBy = make([]OrderItem, len(s.OrderBy))
		for i, o := range s.OrderBy {
			cp.OrderBy[i] = OrderItem{Expr: cloneExpr(o.Expr), Desc: o.Desc}
		}
	}
	return cp
}

// Clone deep-copies the SELECT.
func (s *SelectStmt) Clone() Statement { return s.CloneSelect() }

// Clone deep-copies the INSERT.
func (s *InsertStmt) Clone() Statement {
	cp := &InsertStmt{Table: s.Table}
	if s.Columns != nil {
		cp.Columns = append([]string{}, s.Columns...)
	}
	if s.Values != nil {
		cp.Values = make([][]Expr, len(s.Values))
		for i, row := range s.Values {
			cp.Values[i] = cloneExprs(row)
		}
	}
	return cp
}

// Clone deep-copies the UPDATE.
func (s *UpdateStmt) Clone() Statement {
	cp := &UpdateStmt{Table: s.Table, Where: cloneExpr(s.Where)}
	if s.Set != nil {
		cp.Set = make([]Assignment, len(s.Set))
		for i, a := range s.Set {
			cp.Set[i] = Assignment{Column: a.Column, Value: cloneExpr(a.Value)}
		}
	}
	return cp
}

// Clone deep-copies the DELETE.
func (s *DeleteStmt) Clone() Statement {
	return &DeleteStmt{Table: s.Table, Where: cloneExpr(s.Where)}
}

// Clone deep-copies the CREATE TABLE.
func (s *CreateTableStmt) Clone() Statement {
	cp := &CreateTableStmt{
		Table:       s.Table,
		PartitionBy: s.PartitionBy,
		Partitions:  s.Partitions,
	}
	if s.Columns != nil {
		cp.Columns = append([]ColumnDef{}, s.Columns...)
	}
	if s.PrimaryKey != nil {
		cp.PrimaryKey = append([]string{}, s.PrimaryKey...)
	}
	return cp
}

// Clone deep-copies the CREATE INDEX.
func (s *CreateIndexStmt) Clone() Statement {
	cp := &CreateIndexStmt{Name: s.Name, Table: s.Table, Unique: s.Unique, Local: s.Local}
	if s.Columns != nil {
		cp.Columns = append([]string{}, s.Columns...)
	}
	return cp
}

// Clone deep-copies the DROP INDEX.
func (s *DropIndexStmt) Clone() Statement { return &DropIndexStmt{Name: s.Name} }

// Clone deep-copies EXPLAIN with its wrapped statement.
func (s *ExplainStmt) Clone() Statement { return &ExplainStmt{Stmt: s.Stmt.Clone()} }
