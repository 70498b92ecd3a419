// Package sqlparser implements a hand-written lexer and recursive-descent
// parser for the SQL subset used by AutoIndex workloads: SELECT over base
// tables with joins, GROUP BY / ORDER BY / LIMIT, and the DML statements
// INSERT, UPDATE and DELETE, plus the DDL needed to define schemas and
// indexes. A statement is one scope: subqueries, derived tables and LIKE
// are rejected with an error naming the construct. It produces a typed AST
// that the planner and the candidate index generator consume.
package sqlparser

import (
	"strings"

	"repro/internal/sqltypes"
)

// Statement is any parsed SQL statement.
type Statement interface {
	stmt()
	// String renders the statement back to SQL (normalized form).
	String() string
	// Clone returns a deep copy sharing no mutable nodes with the receiver.
	Clone() Statement
}

// SelectStmt is a SELECT query.
type SelectStmt struct {
	Distinct bool
	Select   []SelectItem
	From     []TableRef
	Joins    []JoinClause
	Where    Expr
	GroupBy  []Expr
	Having   Expr
	OrderBy  []OrderItem
	Limit    int64 // -1 when absent
}

// SelectItem is one projection in the select list.
type SelectItem struct {
	Expr  Expr
	Alias string
	Star  bool
}

// TableRef is a base table in the FROM clause.
type TableRef struct {
	Name  string
	Alias string
}

// Binding returns the name the table is referenced by in expressions.
func (t TableRef) Binding() string {
	if t.Alias != "" {
		return t.Alias
	}
	return t.Name
}

// JoinClause is an explicit JOIN ... ON clause.
type JoinClause struct {
	Table TableRef
	On    Expr
}

// OrderItem is one ORDER BY element.
type OrderItem struct {
	Expr Expr
	Desc bool
}

// InsertStmt is an INSERT statement.
type InsertStmt struct {
	Table   string
	Columns []string
	Values  [][]Expr
}

// UpdateStmt is an UPDATE statement.
type UpdateStmt struct {
	Table string
	Set   []Assignment
	Where Expr
}

// Assignment is one SET column = expr pair.
type Assignment struct {
	Column string
	Value  Expr
}

// DeleteStmt is a DELETE statement.
type DeleteStmt struct {
	Table string
	Where Expr
}

// CreateTableStmt defines a table, optionally hash-partitioned:
// CREATE TABLE t (...) PARTITION BY HASH (col) PARTITIONS n.
type CreateTableStmt struct {
	Table      string
	Columns    []ColumnDef
	PrimaryKey []string
	// PartitionBy is the hash-partition column ("" = unpartitioned).
	PartitionBy string
	// Partitions is the partition count (0 = unpartitioned).
	Partitions int
}

// ColumnDef is a column in CREATE TABLE.
type ColumnDef struct {
	Name string
	Type sqltypes.Kind
}

// CreateIndexStmt defines an index. On hash-partitioned tables the index is
// GLOBAL (one tree over all partitions) unless LOCAL is specified (one tree
// per partition).
type CreateIndexStmt struct {
	Name    string
	Table   string
	Columns []string
	Unique  bool
	Local   bool
}

// DropIndexStmt removes an index.
type DropIndexStmt struct {
	Name string
}

// ExplainStmt wraps a statement whose plan should be shown, not executed.
type ExplainStmt struct {
	Stmt Statement
}

func (*SelectStmt) stmt()      {}
func (*InsertStmt) stmt()      {}
func (*UpdateStmt) stmt()      {}
func (*DeleteStmt) stmt()      {}
func (*CreateTableStmt) stmt() {}
func (*CreateIndexStmt) stmt() {}
func (*DropIndexStmt) stmt()   {}
func (*ExplainStmt) stmt()     {}

// String renders EXPLAIN <statement>.
func (s *ExplainStmt) String() string { return "EXPLAIN " + s.Stmt.String() }

// Expr is any scalar or boolean expression.
type Expr interface {
	expr()
	String() string
	// Clone returns a deep copy sharing no mutable nodes with the receiver.
	Clone() Expr
}

// BinOp enumerates binary operators.
type BinOp uint8

// Binary operators, comparison first then boolean connectives.
const (
	OpEQ BinOp = iota
	OpNE
	OpLT
	OpLE
	OpGT
	OpGE
	OpAnd
	OpOr
	OpAdd
	OpSub
	OpMul
	OpDiv
)

var opNames = map[BinOp]string{
	OpEQ: "=", OpNE: "<>", OpLT: "<", OpLE: "<=", OpGT: ">", OpGE: ">=",
	OpAnd: "AND", OpOr: "OR", OpAdd: "+", OpSub: "-", OpMul: "*", OpDiv: "/",
}

// String returns the SQL spelling of the operator.
func (o BinOp) String() string { return opNames[o] }

// IsComparison reports whether the operator is a scalar comparison.
func (o BinOp) IsComparison() bool { return o <= OpGE }

// IsArith reports whether the operator is arithmetic (+, -, *, /).
func (o BinOp) IsArith() bool { return o >= OpAdd && o <= OpDiv }

// Arith applies an arithmetic operator under SQL NULL rules: a NULL operand
// yields NULL, and so does division by zero. Two ints stay an int except
// under division. A non-arithmetic operator yields NULL. The planner's
// constant folder and the executor both evaluate arithmetic through it.
func (o BinOp) Arith(l, r sqltypes.Value) sqltypes.Value {
	if l.IsNull() || r.IsNull() {
		return sqltypes.Null()
	}
	intOp := l.Kind == sqltypes.KindInt && r.Kind == sqltypes.KindInt
	switch o {
	case OpAdd:
		if intOp {
			return sqltypes.NewInt(l.Int + r.Int)
		}
		return sqltypes.NewFloat(l.AsFloat() + r.AsFloat())
	case OpSub:
		if intOp {
			return sqltypes.NewInt(l.Int - r.Int)
		}
		return sqltypes.NewFloat(l.AsFloat() - r.AsFloat())
	case OpMul:
		if intOp {
			return sqltypes.NewInt(l.Int * r.Int)
		}
		return sqltypes.NewFloat(l.AsFloat() * r.AsFloat())
	case OpDiv:
		rf := r.AsFloat()
		if rf == 0 {
			return sqltypes.Null()
		}
		return sqltypes.NewFloat(l.AsFloat() / rf)
	default:
		return sqltypes.Null()
	}
}

// ColumnRef references table.column (table part optional).
type ColumnRef struct {
	Table  string
	Column string
}

// Literal is a constant value.
type Literal struct {
	Value sqltypes.Value
}

// Placeholder is a template parameter ($ or ?), produced by SQL2Template
// normalization and accepted by the parser so templates re-parse.
type Placeholder struct{}

// BinaryExpr applies Op to L and R.
type BinaryExpr struct {
	Op   BinOp
	L, R Expr
}

// NotExpr negates a boolean expression.
type NotExpr struct {
	E Expr
}

// InExpr is col IN (v1, v2, ...).
type InExpr struct {
	E    Expr
	List []Expr
}

// BetweenExpr is col BETWEEN lo AND hi.
type BetweenExpr struct {
	E      Expr
	Lo, Hi Expr
}

// IsNullExpr is col IS [NOT] NULL.
type IsNullExpr struct {
	E   Expr
	Not bool
}

// FuncExpr is a function call, including aggregates.
type FuncExpr struct {
	Name string // upper-cased
	Args []Expr
	Star bool // COUNT(*)
}

func (*ColumnRef) expr()   {}
func (*Literal) expr()     {}
func (*Placeholder) expr() {}
func (*BinaryExpr) expr()  {}
func (*NotExpr) expr()     {}
func (*InExpr) expr()      {}
func (*BetweenExpr) expr() {}
func (*IsNullExpr) expr()  {}
func (*FuncExpr) expr()    {}

// String renders the column reference.
func (c *ColumnRef) String() string {
	if c.Table != "" {
		return c.Table + "." + c.Column
	}
	return c.Column
}

// String renders the literal.
func (l *Literal) String() string { return l.Value.String() }

// String renders the placeholder.
func (*Placeholder) String() string { return "$" }

// String renders the binary expression with parentheses.
func (b *BinaryExpr) String() string {
	return "(" + b.L.String() + " " + b.Op.String() + " " + b.R.String() + ")"
}

// String renders NOT expr.
func (n *NotExpr) String() string { return "NOT " + n.E.String() }

// String renders the IN list.
func (i *InExpr) String() string {
	parts := make([]string, len(i.List))
	for j, e := range i.List {
		parts[j] = e.String()
	}
	return i.E.String() + " IN (" + strings.Join(parts, ", ") + ")"
}

// String renders BETWEEN.
func (b *BetweenExpr) String() string {
	return b.E.String() + " BETWEEN " + b.Lo.String() + " AND " + b.Hi.String()
}

// String renders IS [NOT] NULL.
func (i *IsNullExpr) String() string {
	if i.Not {
		return i.E.String() + " IS NOT NULL"
	}
	return i.E.String() + " IS NULL"
}

// String renders the function call.
func (f *FuncExpr) String() string {
	if f.Star {
		return f.Name + "(*)"
	}
	parts := make([]string, len(f.Args))
	for i, a := range f.Args {
		parts[i] = a.String()
	}
	return f.Name + "(" + strings.Join(parts, ", ") + ")"
}

// String renders a normalized SELECT.
func (s *SelectStmt) String() string {
	var b strings.Builder
	b.WriteString("SELECT ")
	if s.Distinct {
		b.WriteString("DISTINCT ")
	}
	for i, it := range s.Select {
		if i > 0 {
			b.WriteString(", ")
		}
		if it.Star {
			b.WriteString("*")
			continue
		}
		b.WriteString(it.Expr.String())
		if it.Alias != "" {
			b.WriteString(" AS " + it.Alias)
		}
	}
	b.WriteString(" FROM ")
	for i, t := range s.From {
		if i > 0 {
			b.WriteString(", ")
		}
		writeTableRef(&b, t)
	}
	for _, j := range s.Joins {
		b.WriteString(" JOIN ")
		writeTableRef(&b, j.Table)
		b.WriteString(" ON " + j.On.String())
	}
	if s.Where != nil {
		b.WriteString(" WHERE " + s.Where.String())
	}
	if len(s.GroupBy) > 0 {
		b.WriteString(" GROUP BY ")
		for i, e := range s.GroupBy {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(e.String())
		}
	}
	if s.Having != nil {
		b.WriteString(" HAVING " + s.Having.String())
	}
	if len(s.OrderBy) > 0 {
		b.WriteString(" ORDER BY ")
		for i, o := range s.OrderBy {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(o.Expr.String())
			if o.Desc {
				b.WriteString(" DESC")
			}
		}
	}
	if s.Limit >= 0 {
		b.WriteString(" LIMIT " + sqltypes.NewInt(s.Limit).String())
	}
	return b.String()
}

func writeTableRef(b *strings.Builder, t TableRef) {
	b.WriteString(t.Name)
	if t.Alias != "" {
		b.WriteString(" " + t.Alias)
	}
}

// String renders a normalized INSERT.
func (s *InsertStmt) String() string {
	var b strings.Builder
	b.WriteString("INSERT INTO " + s.Table)
	if len(s.Columns) > 0 {
		b.WriteString(" (" + strings.Join(s.Columns, ", ") + ")")
	}
	b.WriteString(" VALUES ")
	for i, row := range s.Values {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString("(")
		for j, e := range row {
			if j > 0 {
				b.WriteString(", ")
			}
			b.WriteString(e.String())
		}
		b.WriteString(")")
	}
	return b.String()
}

// String renders a normalized UPDATE.
func (s *UpdateStmt) String() string {
	var b strings.Builder
	b.WriteString("UPDATE " + s.Table + " SET ")
	for i, a := range s.Set {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(a.Column + " = " + a.Value.String())
	}
	if s.Where != nil {
		b.WriteString(" WHERE " + s.Where.String())
	}
	return b.String()
}

// String renders a normalized DELETE.
func (s *DeleteStmt) String() string {
	out := "DELETE FROM " + s.Table
	if s.Where != nil {
		out += " WHERE " + s.Where.String()
	}
	return out
}

// String renders CREATE TABLE.
func (s *CreateTableStmt) String() string {
	var b strings.Builder
	b.WriteString("CREATE TABLE " + s.Table + " (")
	for i, c := range s.Columns {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(c.Name + " " + c.Type.String())
	}
	if len(s.PrimaryKey) > 0 {
		if len(s.Columns) > 0 {
			b.WriteString(", ")
		}
		b.WriteString("PRIMARY KEY (" + strings.Join(s.PrimaryKey, ", ") + ")")
	}
	b.WriteString(")")
	if s.Partitions > 0 {
		b.WriteString(" PARTITION BY HASH (" + s.PartitionBy + ") PARTITIONS " +
			sqltypes.NewInt(int64(s.Partitions)).String())
	}
	return b.String()
}

// String renders CREATE INDEX.
func (s *CreateIndexStmt) String() string {
	var mods string
	if s.Unique {
		mods += "UNIQUE "
	}
	if s.Local {
		mods += "LOCAL "
	}
	return "CREATE " + mods + "INDEX " + s.Name + " ON " + s.Table +
		" (" + strings.Join(s.Columns, ", ") + ")"
}

// String renders DROP INDEX.
func (s *DropIndexStmt) String() string { return "DROP INDEX " + s.Name }
