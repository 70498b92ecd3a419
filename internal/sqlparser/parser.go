package sqlparser

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/sqltypes"
)

// Parse parses a single SQL statement.
func Parse(sql string) (Statement, error) {
	toks, err := lex(sql)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks, src: sql}
	stmt, err := p.parseStatement()
	if err != nil {
		return nil, err
	}
	// allow trailing semicolon
	if p.peek().kind == tokSymbol && p.peek().text == ";" {
		p.advance()
	}
	if p.peek().kind != tokEOF {
		return nil, p.errorf("trailing input starting with %q", p.peek().text)
	}
	return stmt, nil
}

type parser struct {
	toks  []token
	pos   int
	src   string
	depth int
}

// maxParseDepth bounds recursion through nested expressions, NOT/unary
// chains, and EXPLAIN prefixes. Adversarial inputs like a long
// run of "(" otherwise recurse once per byte and can exhaust the stack
// (found by FuzzParse); real workload SQL nests a handful of levels.
const maxParseDepth = 512

func (p *parser) enter() error {
	p.depth++
	if p.depth > maxParseDepth {
		return fmt.Errorf("sqlparser: nesting exceeds %d levels", maxParseDepth)
	}
	return nil
}

func (p *parser) leave() { p.depth-- }

func (p *parser) peek() token    { return p.toks[p.pos] }
func (p *parser) advance() token { t := p.toks[p.pos]; p.pos++; return t }

func (p *parser) errorf(format string, args ...any) error {
	return fmt.Errorf("sqlparser: %s (near offset %d in %q)",
		fmt.Sprintf(format, args...), p.peek().pos, truncate(p.src, 80))
}

func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n] + "..."
}

func (p *parser) expectKeyword(kw string) error {
	t := p.peek()
	if t.kind != tokKeyword || t.text != kw {
		return p.errorf("expected %s, got %q", kw, t.text)
	}
	p.advance()
	return nil
}

func (p *parser) acceptKeyword(kw string) bool {
	t := p.peek()
	if t.kind == tokKeyword && t.text == kw {
		p.advance()
		return true
	}
	return false
}

func (p *parser) expectSymbol(sym string) error {
	t := p.peek()
	if t.kind != tokSymbol || t.text != sym {
		return p.errorf("expected %q, got %q", sym, t.text)
	}
	p.advance()
	return nil
}

func (p *parser) acceptSymbol(sym string) bool {
	t := p.peek()
	if t.kind == tokSymbol && t.text == sym {
		p.advance()
		return true
	}
	return false
}

func (p *parser) expectIdent() (string, error) {
	t := p.peek()
	if t.kind != tokIdent {
		return "", p.errorf("expected identifier, got %q", t.text)
	}
	p.advance()
	return t.text, nil
}

func (p *parser) parseStatement() (Statement, error) {
	if err := p.enter(); err != nil {
		return nil, err
	}
	defer p.leave()
	t := p.peek()
	if t.kind != tokKeyword {
		return nil, p.errorf("expected statement keyword, got %q", t.text)
	}
	switch t.text {
	case "EXPLAIN":
		p.advance()
		inner, err := p.parseStatement()
		if err != nil {
			return nil, err
		}
		return &ExplainStmt{Stmt: inner}, nil
	case "SELECT":
		return p.parseSelect()
	case "INSERT":
		return p.parseInsert()
	case "UPDATE":
		return p.parseUpdate()
	case "DELETE":
		return p.parseDelete()
	case "CREATE":
		return p.parseCreate()
	case "DROP":
		return p.parseDrop()
	default:
		return nil, p.errorf("unsupported statement %q", t.text)
	}
}

func (p *parser) parseSelect() (*SelectStmt, error) {
	if err := p.expectKeyword("SELECT"); err != nil {
		return nil, err
	}
	s := &SelectStmt{Limit: -1}
	s.Distinct = p.acceptKeyword("DISTINCT")

	for {
		if p.acceptSymbol("*") {
			s.Select = append(s.Select, SelectItem{Star: true})
		} else {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			item := SelectItem{Expr: e}
			if p.acceptKeyword("AS") {
				name, err := p.expectIdent()
				if err != nil {
					return nil, err
				}
				item.Alias = name
			} else if p.peek().kind == tokIdent {
				item.Alias = p.advance().text
			}
			s.Select = append(s.Select, item)
		}
		if !p.acceptSymbol(",") {
			break
		}
	}

	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	for {
		ref, err := p.parseTableRef()
		if err != nil {
			return nil, err
		}
		s.From = append(s.From, ref)
		if !p.acceptSymbol(",") {
			break
		}
	}

	for {
		if p.acceptKeyword("INNER") {
			if err := p.expectKeyword("JOIN"); err != nil {
				return nil, err
			}
		} else if !p.acceptKeyword("JOIN") {
			break
		}
		ref, err := p.parseTableRef()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("ON"); err != nil {
			return nil, err
		}
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		s.Joins = append(s.Joins, JoinClause{Table: ref, On: cond})
	}

	if p.acceptKeyword("WHERE") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		s.Where = e
	}
	if p.acceptKeyword("GROUP") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			s.GroupBy = append(s.GroupBy, e)
			if !p.acceptSymbol(",") {
				break
			}
		}
	}
	if p.acceptKeyword("HAVING") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		s.Having = e
	}
	if p.acceptKeyword("ORDER") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			item := OrderItem{Expr: e}
			if p.acceptKeyword("DESC") {
				item.Desc = true
			} else {
				p.acceptKeyword("ASC")
			}
			s.OrderBy = append(s.OrderBy, item)
			if !p.acceptSymbol(",") {
				break
			}
		}
	}
	if p.acceptKeyword("LIMIT") {
		t := p.peek()
		if t.kind != tokInt {
			return nil, p.errorf("expected integer after LIMIT, got %q", t.text)
		}
		p.advance()
		n, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return nil, p.errorf("bad LIMIT value %q", t.text)
		}
		s.Limit = n
	}
	return s, nil
}

func (p *parser) parseTableRef() (TableRef, error) {
	var ref TableRef
	if p.peek().kind == tokSymbol && p.peek().text == "(" {
		return ref, p.errorf("derived tables (FROM (SELECT ...)) are not supported")
	}
	name, err := p.expectIdent()
	if err != nil {
		return ref, err
	}
	ref.Name = name
	if p.acceptKeyword("AS") {
		alias, err := p.expectIdent()
		if err != nil {
			return ref, err
		}
		ref.Alias = alias
	} else if p.peek().kind == tokIdent {
		ref.Alias = p.advance().text
	}
	return ref, nil
}

func (p *parser) parseInsert() (*InsertStmt, error) {
	if err := p.expectKeyword("INSERT"); err != nil {
		return nil, err
	}
	if err := p.expectKeyword("INTO"); err != nil {
		return nil, err
	}
	table, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	s := &InsertStmt{Table: table}
	if p.acceptSymbol("(") {
		for {
			col, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			s.Columns = append(s.Columns, col)
			if !p.acceptSymbol(",") {
				break
			}
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
	}
	if err := p.expectKeyword("VALUES"); err != nil {
		return nil, err
	}
	for {
		if err := p.expectSymbol("("); err != nil {
			return nil, err
		}
		var row []Expr
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			row = append(row, e)
			if !p.acceptSymbol(",") {
				break
			}
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
		s.Values = append(s.Values, row)
		if !p.acceptSymbol(",") {
			break
		}
	}
	return s, nil
}

func (p *parser) parseUpdate() (*UpdateStmt, error) {
	if err := p.expectKeyword("UPDATE"); err != nil {
		return nil, err
	}
	table, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("SET"); err != nil {
		return nil, err
	}
	s := &UpdateStmt{Table: table}
	for {
		col, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		if err := p.expectSymbol("="); err != nil {
			return nil, err
		}
		val, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		s.Set = append(s.Set, Assignment{Column: col, Value: val})
		if !p.acceptSymbol(",") {
			break
		}
	}
	if p.acceptKeyword("WHERE") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		s.Where = e
	}
	return s, nil
}

func (p *parser) parseDelete() (*DeleteStmt, error) {
	if err := p.expectKeyword("DELETE"); err != nil {
		return nil, err
	}
	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	table, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	s := &DeleteStmt{Table: table}
	if p.acceptKeyword("WHERE") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		s.Where = e
	}
	return s, nil
}

func (p *parser) parseCreate() (Statement, error) {
	if err := p.expectKeyword("CREATE"); err != nil {
		return nil, err
	}
	unique := p.acceptKeyword("UNIQUE")
	local := false
	if p.acceptKeyword("LOCAL") {
		local = true
	} else if p.acceptKeyword("GLOBAL") {
		// GLOBAL is the default; accepted for symmetry.
		local = false
	}
	switch {
	case p.acceptKeyword("TABLE"):
		if unique || local {
			return nil, p.errorf("UNIQUE/LOCAL are not valid on CREATE TABLE")
		}
		return p.parseCreateTable()
	case p.acceptKeyword("INDEX"):
		return p.parseCreateIndex(unique, local)
	default:
		return nil, p.errorf("expected TABLE or INDEX after CREATE")
	}
}

func (p *parser) parseCreateTable() (*CreateTableStmt, error) {
	table, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	if err := p.expectSymbol("("); err != nil {
		return nil, err
	}
	s := &CreateTableStmt{Table: table}
	for {
		if p.acceptKeyword("PRIMARY") {
			if err := p.expectKeyword("KEY"); err != nil {
				return nil, err
			}
			if err := p.expectSymbol("("); err != nil {
				return nil, err
			}
			for {
				col, err := p.expectIdent()
				if err != nil {
					return nil, err
				}
				s.PrimaryKey = append(s.PrimaryKey, col)
				if !p.acceptSymbol(",") {
					break
				}
			}
			if err := p.expectSymbol(")"); err != nil {
				return nil, err
			}
		} else {
			name, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			kind, err := p.parseTypeName()
			if err != nil {
				return nil, err
			}
			s.Columns = append(s.Columns, ColumnDef{Name: name, Type: kind})
		}
		if !p.acceptSymbol(",") {
			break
		}
	}
	if err := p.expectSymbol(")"); err != nil {
		return nil, err
	}
	if p.acceptKeyword("PARTITION") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		if err := p.expectKeyword("HASH"); err != nil {
			return nil, err
		}
		if err := p.expectSymbol("("); err != nil {
			return nil, err
		}
		col, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
		if err := p.expectKeyword("PARTITIONS"); err != nil {
			return nil, err
		}
		t := p.peek()
		if t.kind != tokInt {
			return nil, p.errorf("expected partition count, got %q", t.text)
		}
		p.advance()
		n, err := strconv.Atoi(t.text)
		if err != nil || n < 2 {
			return nil, p.errorf("bad partition count %q (need >= 2)", t.text)
		}
		s.PartitionBy = col
		s.Partitions = n
	}
	return s, nil
}

func (p *parser) parseTypeName() (sqltypes.Kind, error) {
	t := p.peek()
	if t.kind != tokKeyword {
		return sqltypes.KindNull, p.errorf("expected type name, got %q", t.text)
	}
	p.advance()
	var kind sqltypes.Kind
	switch t.text {
	case "BIGINT", "INT", "INTEGER":
		kind = sqltypes.KindInt
	case "DOUBLE", "FLOAT", "NUMERIC", "DECIMAL":
		kind = sqltypes.KindFloat
	case "TEXT", "VARCHAR", "CHAR":
		kind = sqltypes.KindString
	default:
		return sqltypes.KindNull, p.errorf("unknown type %q", t.text)
	}
	// optional (n) or (p, s) suffix
	if p.acceptSymbol("(") {
		for p.peek().kind == tokInt || (p.peek().kind == tokSymbol && p.peek().text == ",") {
			p.advance()
		}
		if err := p.expectSymbol(")"); err != nil {
			return sqltypes.KindNull, err
		}
	}
	return kind, nil
}

func (p *parser) parseCreateIndex(unique, local bool) (*CreateIndexStmt, error) {
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("ON"); err != nil {
		return nil, err
	}
	table, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	if err := p.expectSymbol("("); err != nil {
		return nil, err
	}
	s := &CreateIndexStmt{Name: name, Table: table, Unique: unique, Local: local}
	for {
		col, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		s.Columns = append(s.Columns, col)
		if !p.acceptSymbol(",") {
			break
		}
	}
	if err := p.expectSymbol(")"); err != nil {
		return nil, err
	}
	return s, nil
}

func (p *parser) parseDrop() (*DropIndexStmt, error) {
	if err := p.expectKeyword("DROP"); err != nil {
		return nil, err
	}
	if err := p.expectKeyword("INDEX"); err != nil {
		return nil, err
	}
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	return &DropIndexStmt{Name: name}, nil
}

// Expression parsing: precedence climbing.
// OR < AND < NOT < comparison < additive < multiplicative < unary < primary.

func (p *parser) parseExpr() (Expr, error) {
	if err := p.enter(); err != nil {
		return nil, err
	}
	defer p.leave()
	return p.parseOr()
}

func (p *parser) parseOr() (Expr, error) {
	left, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("OR") {
		right, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		left = &BinaryExpr{Op: OpOr, L: left, R: right}
	}
	return left, nil
}

func (p *parser) parseAnd() (Expr, error) {
	left, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("AND") {
		right, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		left = &BinaryExpr{Op: OpAnd, L: left, R: right}
	}
	return left, nil
}

func (p *parser) parseNot() (Expr, error) {
	if err := p.enter(); err != nil {
		return nil, err
	}
	defer p.leave()
	if p.acceptKeyword("NOT") {
		e, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return &NotExpr{E: e}, nil
	}
	return p.parseComparison()
}

var compOps = map[string]BinOp{
	"=": OpEQ, "<>": OpNE, "<": OpLT, "<=": OpLE, ">": OpGT, ">=": OpGE,
}

func (p *parser) parseComparison() (Expr, error) {
	left, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	t := p.peek()
	if t.kind == tokSymbol {
		if op, ok := compOps[t.text]; ok {
			p.advance()
			right, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			return &BinaryExpr{Op: op, L: left, R: right}, nil
		}
	}
	if t.kind == tokKeyword {
		switch t.text {
		case "LIKE":
			return nil, p.errorf("LIKE is not supported")
		case "BETWEEN":
			p.advance()
			lo, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			if err := p.expectKeyword("AND"); err != nil {
				return nil, err
			}
			hi, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			return &BetweenExpr{E: left, Lo: lo, Hi: hi}, nil
		case "IN":
			p.advance()
			if err := p.expectSymbol("("); err != nil {
				return nil, err
			}
			if p.peek().kind == tokKeyword && p.peek().text == "SELECT" {
				return nil, p.errorf("IN (SELECT ...) subqueries are not supported")
			}
			var list []Expr
			for {
				e, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				list = append(list, e)
				if !p.acceptSymbol(",") {
					break
				}
			}
			if err := p.expectSymbol(")"); err != nil {
				return nil, err
			}
			return &InExpr{E: left, List: list}, nil
		case "IS":
			p.advance()
			not := p.acceptKeyword("NOT")
			if err := p.expectKeyword("NULL"); err != nil {
				return nil, err
			}
			return &IsNullExpr{E: left, Not: not}, nil
		}
	}
	return left, nil
}

func (p *parser) parseAdditive() (Expr, error) {
	left, err := p.parseMultiplicative()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		if t.kind != tokSymbol || (t.text != "+" && t.text != "-") {
			return left, nil
		}
		p.advance()
		right, err := p.parseMultiplicative()
		if err != nil {
			return nil, err
		}
		op := OpAdd
		if t.text == "-" {
			op = OpSub
		}
		left = &BinaryExpr{Op: op, L: left, R: right}
	}
}

func (p *parser) parseMultiplicative() (Expr, error) {
	left, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		if t.kind != tokSymbol || (t.text != "*" && t.text != "/") {
			return left, nil
		}
		p.advance()
		right, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		op := OpMul
		if t.text == "/" {
			op = OpDiv
		}
		left = &BinaryExpr{Op: op, L: left, R: right}
	}
}

func (p *parser) parseUnary() (Expr, error) {
	if err := p.enter(); err != nil {
		return nil, err
	}
	defer p.leave()
	if p.acceptSymbol("-") {
		e, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		if lit, ok := e.(*Literal); ok {
			v := lit.Value
			switch v.Kind {
			case sqltypes.KindInt:
				return &Literal{Value: sqltypes.NewInt(-v.Int)}, nil
			case sqltypes.KindFloat:
				f := -v.Float
				if f == 0 {
					// Fold -0.0 to +0.0: strconv renders negative zero as
					// "-0", which re-lexes as an integer and would break
					// render/reparse stability (found by FuzzParse).
					f = 0
				}
				return &Literal{Value: sqltypes.NewFloat(f)}, nil
			}
		}
		return &BinaryExpr{Op: OpSub, L: &Literal{Value: sqltypes.NewInt(0)}, R: e}, nil
	}
	return p.parsePrimary()
}

func (p *parser) parsePrimary() (Expr, error) {
	t := p.peek()
	switch t.kind {
	case tokInt:
		p.advance()
		n, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return nil, p.errorf("bad integer %q", t.text)
		}
		return &Literal{Value: sqltypes.NewInt(n)}, nil
	case tokFloat:
		p.advance()
		f, err := strconv.ParseFloat(t.text, 64)
		if err != nil {
			return nil, p.errorf("bad float %q", t.text)
		}
		return &Literal{Value: sqltypes.NewFloat(f)}, nil
	case tokString:
		p.advance()
		return &Literal{Value: sqltypes.NewString(t.text)}, nil
	case tokPlaceholder:
		p.advance()
		return &Placeholder{}, nil
	case tokKeyword:
		if t.text == "NULL" {
			p.advance()
			return &Literal{Value: sqltypes.Null()}, nil
		}
		return nil, p.errorf("unexpected keyword %q in expression", t.text)
	case tokIdent:
		p.advance()
		name := t.text
		// function call
		if p.peek().kind == tokSymbol && p.peek().text == "(" {
			p.advance()
			fn := &FuncExpr{Name: strings.ToUpper(name)}
			if p.acceptSymbol("*") {
				fn.Star = true
				if err := p.expectSymbol(")"); err != nil {
					return nil, err
				}
				return fn, nil
			}
			if p.acceptSymbol(")") {
				return fn, nil
			}
			for {
				arg, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				fn.Args = append(fn.Args, arg)
				if !p.acceptSymbol(",") {
					break
				}
			}
			if err := p.expectSymbol(")"); err != nil {
				return nil, err
			}
			return fn, nil
		}
		// qualified column
		if p.acceptSymbol(".") {
			col, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			return &ColumnRef{Table: name, Column: col}, nil
		}
		return &ColumnRef{Column: name}, nil
	case tokSymbol:
		if t.text == "(" {
			p.advance()
			if p.peek().kind == tokKeyword && p.peek().text == "SELECT" {
				return nil, p.errorf("scalar subqueries ((SELECT ...) as a value) are not supported")
			}
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expectSymbol(")"); err != nil {
				return nil, err
			}
			return e, nil
		}
	}
	return nil, p.errorf("unexpected token %q in expression", t.text)
}
