package candgen

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"repro/internal/catalog"
	"repro/internal/costparams"
	"repro/internal/hypo"
	"repro/internal/sqlparser"
	"repro/internal/workload"
)

// Candidate is one proposed index with the statistics the hypothetical
// estimator attached and the weighted benefit potential of the templates
// that produced it.
type Candidate struct {
	Meta *catalog.IndexMeta
	// Source notes which clause produced the candidate: filter, join, group,
	// order.
	Source string
	// TemplateWeight sums the frequencies of templates wanting this index.
	TemplateWeight float64
}

// Key returns the candidate's identity (table + column list).
func (c *Candidate) Key() string { return c.Meta.Key() }

// Generator extracts candidate indexes from workload templates.
type Generator struct {
	cat *catalog.Catalog
	// MaxIndexColumns bounds composite index width.
	MaxIndexColumns int
	// SelectivityThreshold is the paper's cutoff (default 1/3): predicates
	// must filter the table to at most this fraction to earn an index.
	SelectivityThreshold float64
}

// NewGenerator creates a generator over the catalog.
func NewGenerator(cat *catalog.Catalog) *Generator {
	return &Generator{
		cat:                  cat,
		MaxIndexColumns:      3,
		SelectivityThreshold: costparams.IndexSelectivityThreshold,
	}
}

// Generate runs the full three-step pipeline of §IV-A over a compressed
// workload: extract expressions per template, derive indexes, then dedup,
// merge by leftmost prefix, and drop candidates already covered by existing
// (real) indexes. Cancellation stops the per-template extraction early; the
// already-extracted candidates still go through merge/dedup, so a degraded
// round works with a truncated (never inconsistent) pool.
func (g *Generator) Generate(ctx context.Context, w *workload.Workload) []*Candidate {
	byKey := make(map[string]*Candidate)
	for i := range w.Queries {
		if ctx.Err() != nil {
			break
		}
		q := &w.Queries[i]
		for _, raw := range g.extractFromStatement(q.Stmt) {
			g.addCandidate(byKey, raw, q.Weight)
		}
	}
	merged := g.mergeLeftmost(byKey)
	final := g.dropExisting(merged)
	sort.Slice(final, func(i, j int) bool {
		if final[i].TemplateWeight != final[j].TemplateWeight {
			return final[i].TemplateWeight > final[j].TemplateWeight
		}
		return final[i].Key() < final[j].Key()
	})
	return final
}

// rawCandidate is an un-deduped (table, columns, source) triple.
type rawCandidate struct {
	table   string
	columns []string
	source  string
}

// extractFromStatement derives raw candidates from one statement.
func (g *Generator) extractFromStatement(stmt sqlparser.Statement) []rawCandidate {
	switch s := stmt.(type) {
	case *sqlparser.SelectStmt:
		return g.extractFromSelect(s)
	case *sqlparser.UpdateStmt:
		// The WHERE clause of an update benefits from indexes like a read.
		return g.extractFromWhere(s.Table, map[string]string{s.Table: s.Table}, s.Where)
	case *sqlparser.DeleteStmt:
		return g.extractFromWhere(s.Table, map[string]string{s.Table: s.Table}, s.Where)
	default:
		// Inserts request no indexes.
		return nil
	}
}

func (g *Generator) extractFromSelect(s *sqlparser.SelectStmt) []rawCandidate {
	// binding → base table name
	bindings := make(map[string]string)
	for _, ref := range s.From {
		bindings[ref.Binding()] = strings.ToLower(ref.Name)
	}
	for _, j := range s.Joins {
		bindings[j.Table.Binding()] = strings.ToLower(j.Table.Name)
	}

	// 1. Filter predicates (WHERE, via DNF).
	out := g.extractFromWhere("", bindings, s.Where)

	// 2. Join predicates: WHERE equi-joins plus JOIN ... ON.
	out = append(out, g.extractJoins(bindings, s.Where)...)
	for _, j := range s.Joins {
		out = append(out, g.extractJoins(bindings, j.On)...)
		out = append(out, g.extractFromWhere("", bindings, j.On)...)
	}

	// 3. Other expressions: GROUP BY and ORDER BY columns.
	out = append(out, g.extractColumnList(bindings, s.GroupBy, "group")...)
	orderExprs := make([]sqlparser.Expr, 0, len(s.OrderBy))
	for _, o := range s.OrderBy {
		orderExprs = append(orderExprs, o.Expr)
	}
	return append(out, g.extractColumnList(bindings, orderExprs, "order")...)
}

// extractFromWhere rewrites the predicate to DNF; every AND-branch yields a
// composite candidate over its selective, same-table atom columns.
// defaultTable resolves unqualified columns when only one table is in scope.
func (g *Generator) extractFromWhere(defaultTable string, bindings map[string]string, where sqlparser.Expr) []rawCandidate {
	if where == nil {
		return nil
	}
	var out []rawCandidate
	for _, branch := range toDNF(where) {
		// Group atom columns by table, preserving first-seen order.
		cols := make(map[string][]string)
		var tables []string
		for _, atom := range branch {
			table, col, sel := g.atomColumn(defaultTable, bindings, atom)
			if table == "" || sel > g.SelectivityThreshold {
				continue
			}
			if _, seen := cols[table]; !seen {
				tables = append(tables, table)
			}
			if !containsStr(cols[table], col) {
				cols[table] = append(cols[table], col)
			}
		}
		for _, table := range tables {
			cc := cols[table]
			if len(cc) > g.MaxIndexColumns {
				cc = cc[:g.MaxIndexColumns]
			}
			// Order equality columns first for better prefix utility.
			out = append(out, rawCandidate{table: table, columns: cc, source: "filter"})
		}
	}
	return out
}

// atomColumn resolves an atomic predicate to (table, column, selectivity).
// Unsupported atoms return table "".
func (g *Generator) atomColumn(defaultTable string, bindings map[string]string, atom sqlparser.Expr) (string, string, float64) {
	var ref *sqlparser.ColumnRef
	sel := 1.0
	switch v := atom.(type) {
	case *sqlparser.BinaryExpr:
		if !v.Op.IsComparison() {
			return "", "", 1
		}
		l, lok := v.L.(*sqlparser.ColumnRef)
		r, rok := v.R.(*sqlparser.ColumnRef)
		switch {
		case lok && !rok:
			ref = l
		case rok && !lok:
			ref = r
		default:
			return "", "", 1 // col-col atoms handled by the join extractor
		}
		switch v.Op {
		case sqlparser.OpEQ:
			sel = costparams.DefaultEqSelectivity
		case sqlparser.OpNE:
			return "", "", 1 // inequality is not indexable
		default:
			sel = costparams.DefaultRangeSelectivity
		}
	case *sqlparser.InExpr:
		if r, ok := v.E.(*sqlparser.ColumnRef); ok {
			ref = r
			sel = costparams.DefaultEqSelectivity * float64(len(v.List))
		} else {
			return "", "", 1
		}
	case *sqlparser.BetweenExpr:
		if r, ok := v.E.(*sqlparser.ColumnRef); ok {
			ref = r
			sel = costparams.DefaultRangeSelectivity
		} else {
			return "", "", 1
		}
	default:
		return "", "", 1
	}

	table := defaultTable
	if ref.Table != "" {
		if base, ok := bindings[ref.Table]; ok {
			table = base
		} else {
			table = ref.Table
		}
	} else if table == "" && len(bindings) == 1 {
		for _, base := range bindings {
			table = base
		}
	}
	tbl := g.cat.Table(table)
	if tbl == nil || tbl.Column(strings.ToLower(ref.Column)) == nil {
		return "", "", 1
	}
	// Refine selectivity from stats when available.
	if st := tbl.ColumnStatsFor(ref.Column); st != nil {
		if b, ok := atom.(*sqlparser.BinaryExpr); ok && b.Op == sqlparser.OpEQ {
			sel = st.SelectivityEq()
		}
	}
	return tbl.Name, strings.ToLower(ref.Column), sel
}

// extractJoins finds col = col atoms across two tables and emits a candidate
// on the driven (smaller) table's join column, per §IV-A index generation
// rule (2).
func (g *Generator) extractJoins(bindings map[string]string, e sqlparser.Expr) []rawCandidate {
	var out []rawCandidate
	for _, branch := range toDNF(e) {
		for _, atom := range branch {
			b, ok := atom.(*sqlparser.BinaryExpr)
			if !ok || b.Op != sqlparser.OpEQ {
				continue
			}
			l, lok := b.L.(*sqlparser.ColumnRef)
			r, rok := b.R.(*sqlparser.ColumnRef)
			if !lok || !rok {
				continue
			}
			lt := g.resolveTable(bindings, l)
			rt := g.resolveTable(bindings, r)
			if lt == nil || rt == nil || lt.Name == rt.Name {
				continue
			}
			// Driven table: the smaller one (looked up during the join).
			driven, col := rt, r
			if lt.NumRows < rt.NumRows {
				driven, col = lt, l
			}
			if driven.Column(strings.ToLower(col.Column)) == nil {
				continue
			}
			out = append(out, rawCandidate{
				table:   driven.Name,
				columns: []string{strings.ToLower(col.Column)},
				source:  "join",
			})
		}
	}
	return out
}

func (g *Generator) resolveTable(bindings map[string]string, ref *sqlparser.ColumnRef) *catalog.Table {
	if ref.Table != "" {
		if base, ok := bindings[ref.Table]; ok {
			return g.cat.Table(base)
		}
		return g.cat.Table(ref.Table)
	}
	// Unqualified: find the unique table containing the column.
	var found *catalog.Table
	for _, base := range bindings {
		t := g.cat.Table(base)
		if t != nil && t.Column(strings.ToLower(ref.Column)) != nil {
			if found != nil {
				return nil
			}
			found = t
		}
	}
	return found
}

// extractColumnList emits candidates for GROUP/ORDER expressions when the
// columns "actually take effect" (not already distinct single-row groups).
func (g *Generator) extractColumnList(bindings map[string]string, exprs []sqlparser.Expr, source string) []rawCandidate {
	if len(exprs) == 0 {
		return nil
	}
	cols := make(map[string][]string)
	var tables []string
	for _, e := range exprs {
		ref, ok := e.(*sqlparser.ColumnRef)
		if !ok {
			continue
		}
		tbl := g.resolveTable(bindings, ref)
		if tbl == nil {
			continue
		}
		col := strings.ToLower(ref.Column)
		if tbl.Column(col) == nil {
			continue
		}
		// Paper: skip when the expression has no effect — a unique column
		// never benefits a GROUP BY (every group is one row).
		if source == "group" {
			if st := tbl.ColumnStatsFor(col); st != nil && st.NumRows > 0 &&
				st.NumDistinct >= st.NumRows {
				continue
			}
		}
		if _, seen := cols[tbl.Name]; !seen {
			tables = append(tables, tbl.Name)
		}
		if !containsStr(cols[tbl.Name], col) {
			cols[tbl.Name] = append(cols[tbl.Name], col)
		}
	}
	var out []rawCandidate
	for _, t := range tables {
		cc := cols[t]
		if len(cc) > g.MaxIndexColumns {
			cc = cc[:g.MaxIndexColumns]
		}
		out = append(out, rawCandidate{table: t, columns: cc, source: source})
	}
	return out
}

// addCandidate dedups raw candidates into the byKey map, estimating index
// stats hypothetically on first sight. On hash-partitioned tables each
// column set yields two candidates — a GLOBAL and a LOCAL variant — and the
// search picks between them by cost (the paper's index type selection).
func (g *Generator) addCandidate(byKey map[string]*Candidate, raw rawCandidate, weight float64) {
	if len(raw.columns) == 0 {
		return
	}
	tbl := g.cat.Table(raw.table)
	if tbl == nil {
		return
	}
	variants := make([]catalog.IndexMeta, 0, 2)
	meta, err := hypo.Estimate(tbl, raw.columns)
	if err != nil {
		return
	}
	variants = append(variants, meta)
	if tbl.IsPartitioned() {
		if local, err := hypo.EstimateLocal(tbl, raw.columns); err == nil {
			variants = append(variants, local)
		}
	}
	for _, v := range variants {
		key := v.Key()
		if c, ok := byKey[key]; ok {
			c.TemplateWeight += weight
			continue
		}
		m := v
		m.Name = "cand_" + sanitizeName(key)
		byKey[key] = &Candidate{Meta: &m, Source: raw.source, TemplateWeight: weight}
	}
}

// EstimateCandidate exposes hypothetical stat estimation for one column set
// on a table (the Greedy baseline uses it to build atomic candidate pools).
func (g *Generator) EstimateCandidate(table string, columns []string, local bool) (*catalog.IndexMeta, error) {
	tbl := g.cat.Table(table)
	if tbl == nil {
		return nil, fmt.Errorf("candgen: unknown table %q", table)
	}
	var meta catalog.IndexMeta
	var err error
	if local {
		meta, err = hypo.EstimateLocal(tbl, columns)
	} else {
		meta, err = hypo.Estimate(tbl, columns)
	}
	if err != nil {
		return nil, err
	}
	m := meta
	return &m, nil
}

// mergeLeftmost applies the leftmost matching principle: a candidate whose
// column list is a prefix of another candidate on the same table is absorbed
// by the longer one (its weight transfers).
func (g *Generator) mergeLeftmost(byKey map[string]*Candidate) []*Candidate {
	all := make([]*Candidate, 0, len(byKey))
	for _, c := range byKey {
		all = append(all, c)
	}
	// Longer column lists first so prefixes find their longest superset.
	sort.Slice(all, func(i, j int) bool {
		if len(all[i].Meta.Columns) != len(all[j].Meta.Columns) {
			return len(all[i].Meta.Columns) > len(all[j].Meta.Columns)
		}
		return all[i].Key() < all[j].Key()
	})
	var out []*Candidate
	for _, c := range all {
		absorbed := false
		for _, kept := range out {
			if kept.Meta.Table == c.Meta.Table && kept.Meta.Local == c.Meta.Local &&
				kept.Meta.Covers(c.Meta.Columns) {
				kept.TemplateWeight += c.TemplateWeight
				absorbed = true
				break
			}
		}
		if !absorbed {
			out = append(out, c)
		}
	}
	return out
}

// dropExisting removes candidates already covered by a real index's prefix.
func (g *Generator) dropExisting(cands []*Candidate) []*Candidate {
	var out []*Candidate
	for _, c := range cands {
		covered := false
		for _, m := range g.cat.TableIndexes(c.Meta.Table, false) {
			if m.Covers(c.Meta.Columns) {
				covered = true
				break
			}
		}
		if !covered {
			out = append(out, c)
		}
	}
	return out
}

func containsStr(s []string, v string) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

func sanitizeName(s string) string {
	var b strings.Builder
	for _, r := range s {
		switch r {
		case '(', ')', ',', '.', ' ':
			b.WriteByte('_')
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}
