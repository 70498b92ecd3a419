// Package template implements SQL2Template (paper §IV-A step 1 and §IV-C):
// incoming queries are fingerprinted by replacing literal predicate values
// with placeholders, matched against a bounded store of query templates, and
// the store is maintained LRU-style with frequency decay so it tracks the
// live workload as it drifts.
package template

import (
	"sort"

	"repro/internal/sqlparser"
	"repro/internal/workload"
)

// Template is one access pattern: a normalized statement with the count of
// queries that mapped onto it.
type Template struct {
	Fingerprint string
	Stmt        sqlparser.Statement
	Frequency   float64
	// LastSeen is the logical tick of the most recent match.
	LastSeen int64
	// Trend is the exponentially weighted per-window match rate maintained
	// by CloseWindow; it drives ForecastWorkload (paper §IV-C: familiar
	// historical templates have high possibility to recur).
	Trend float64
	// windowStart is Frequency at the last CloseWindow.
	windowStart float64
	// sample is the most recent concrete statement mapped to this template
	// (literals intact). The estimator plans against the sample so range
	// selectivities come from real predicate values, not placeholders. A
	// shape hit only remembers the text (sampleSQL) and clears sample;
	// sampleStmt parses it when a round asks for the workload.
	sample    sqlparser.Statement
	sampleSQL string
	// shapes are the keys of Store.shapes that map to this template, oldest
	// first; they leave the map with it.
	shapes []string
}

// sampleStmt returns the latest concrete statement, parsing the remembered
// text on first use since the last match.
func (t *Template) sampleStmt() sqlparser.Statement {
	if t.sample == nil && t.sampleSQL != "" {
		// A text whose shape matched a parsed statement's parses too; if it
		// ever did not, the normalized statement below stands in.
		t.sample, _ = sqlparser.Parse(t.sampleSQL)
	}
	if t.sample == nil {
		return t.Stmt
	}
	return t.sample
}

// Store is the bounded template set. Not safe for concurrent use; callers
// serialize (the paper's index manager is a single tuning loop).
type Store struct {
	capacity  int
	templates map[string]*Template
	// shapes maps a statement shape (sqlparser.Shape) to the template that
	// owns it, so a statement whose shape was seen before is matched without
	// parsing it. Many shapes may name one template; a template keeps at most
	// maxShapesPerTemplate, which bounds the map at that many per capacity.
	shapes   map[string]*Template
	shapeBuf []byte
	tick     int64
	// matches and misses count mapping outcomes for diagnostics.
	matches int64
	misses  int64
}

// DefaultCapacity bounds the template store (paper: "e.g., 5000 for TPC-C").
const DefaultCapacity = 5000

// maxShapesPerTemplate is how many spellings of one template (literal kinds,
// $ for a literal, a trailing semicolon) are matched without a parse; a
// further one replaces the oldest.
const maxShapesPerTemplate = 8

// NewStore creates a store holding at most capacity templates (0 selects
// DefaultCapacity).
func NewStore(capacity int) *Store {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Store{
		capacity:  capacity,
		templates: make(map[string]*Template),
		shapes:    make(map[string]*Template),
	}
}

// Fingerprint normalizes a statement: every literal is replaced with a
// placeholder and the result rendered to canonical SQL. Queries differing
// only in predicate values share a fingerprint. The error is always nil: the
// deep copy is a Clone, no longer a render and reparse that could fail.
func Fingerprint(stmt sqlparser.Statement) (string, sqlparser.Statement, error) {
	cp := stmt.Clone()
	stripStatement(cp)
	return cp.String(), cp, nil
}

// Observe maps one statement into the store, creating a template on first
// sight and bumping frequency on every match. It returns the template and
// whether it already existed. When the store is full, the least valuable
// template (lowest frequency, oldest) is evicted to make room.
func (s *Store) Observe(stmt sqlparser.Statement) (*Template, bool, error) {
	fp, normalized, err := Fingerprint(stmt)
	if err != nil {
		return nil, false, err
	}
	if t, ok := s.templates[fp]; ok {
		s.match(t)
		t.sample, t.sampleSQL = stmt, ""
		return t, true, nil
	}
	s.tick++
	s.misses++
	if len(s.templates) >= s.capacity {
		s.evictOne()
	}
	t := &Template{Fingerprint: fp, Stmt: normalized, sample: stmt, Frequency: 1, LastSeen: s.tick}
	s.templates[fp] = t
	return t, false, nil
}

// match books one more statement on a live template.
func (s *Store) match(t *Template) {
	s.tick++
	s.matches++
	t.Frequency++
	t.LastSeen = s.tick
}

// ObserveSQL observes raw SQL. A statement whose shape the store has seen is
// matched on the shape alone — no parse, no allocation; any other is parsed
// and observed by its canonical fingerprint, and its shape registered under
// the template that took it.
func (s *Store) ObserveSQL(sql string) (*Template, bool, error) {
	shape, err := sqlparser.Shape(s.shapeBuf[:0], sql)
	s.shapeBuf = shape
	if err != nil {
		return nil, false, err
	}
	if t, ok := s.shapes[string(shape)]; ok {
		s.match(t)
		t.sample, t.sampleSQL = nil, sql
		return t, true, nil
	}
	stmt, err := sqlparser.Parse(sql)
	if err != nil {
		return nil, false, err
	}
	t, existed, err := s.Observe(stmt)
	if err != nil {
		return nil, false, err
	}
	if len(t.shapes) == maxShapesPerTemplate {
		delete(s.shapes, t.shapes[0])
		t.shapes = append(t.shapes[:0], t.shapes[1:]...)
	}
	key := string(shape)
	t.shapes = append(t.shapes, key)
	s.shapes[key] = t
	return t, existed, nil
}

// drop removes a template and the shapes that lead to it.
func (s *Store) drop(t *Template) {
	delete(s.templates, t.Fingerprint)
	for _, key := range t.shapes {
		delete(s.shapes, key)
	}
}

// evictOne removes the template with the lowest (frequency, LastSeen) pair.
func (s *Store) evictOne() {
	var victim *Template
	for _, t := range s.templates {
		if victim == nil ||
			t.Frequency < victim.Frequency ||
			(t.Frequency == victim.Frequency && t.LastSeen < victim.LastSeen) {
			victim = t
		}
	}
	if victim != nil {
		s.drop(victim)
	}
}

// Decay multiplies every frequency by factor (paper §IV-C: applied when the
// workload shifts) and drops templates whose frequency falls below minFreq.
// The window start scales with the frequency, so the next CloseWindow counts
// only the matches since the last one.
func (s *Store) Decay(factor, minFreq float64) int {
	var dropped int
	for _, t := range s.templates {
		t.Frequency *= factor
		t.windowStart *= factor
		if t.Frequency < minFreq {
			s.drop(t)
			dropped++
		}
	}
	return dropped
}

// CloseWindow ends one observation window: each template's match count in
// the window updates its Trend as an exponentially weighted moving average
// with smoothing factor alpha (0 < alpha ≤ 1; higher weights the newest
// window more). Call it at tuning-round boundaries.
func (s *Store) CloseWindow(alpha float64) {
	if alpha <= 0 || alpha > 1 {
		alpha = 0.5
	}
	for _, t := range s.templates {
		windowCount := t.Frequency - t.windowStart
		t.Trend = alpha*windowCount + (1-alpha)*t.Trend
		t.windowStart = t.Frequency
	}
}

// ForecastWorkload returns the workload weighted by each template's Trend —
// the predicted next-window mix — rather than cumulative history. Templates
// with zero trend (never matched since trend tracking started) fall back to
// a minimal weight so brand-new patterns are not invisible.
func (s *Store) ForecastWorkload() *workload.Workload {
	w := &workload.Workload{}
	for _, t := range s.Templates() {
		stmt := t.sampleStmt()
		weight := t.Trend
		if weight <= 0 {
			weight = 0.5
		}
		w.Queries = append(w.Queries, workload.Query{
			SQL:    stmt.String(),
			Stmt:   stmt,
			Weight: weight,
		})
	}
	return w
}

// StalenessRatio reports the fraction of templates not seen within the last
// window ticks — the paper's "most historical templates have low update
// frequency" workload-shift signal.
func (s *Store) StalenessRatio(window int64) float64 {
	if len(s.templates) == 0 {
		return 0
	}
	cutoff := s.tick - window
	var stale int
	for _, t := range s.templates {
		if t.LastSeen < cutoff {
			stale++
		}
	}
	return float64(stale) / float64(len(s.templates))
}

// Len returns the number of live templates.
func (s *Store) Len() int { return len(s.templates) }

// MatchStats returns (matches, misses) since creation.
func (s *Store) MatchStats() (int64, int64) { return s.matches, s.misses }

// Templates returns the live templates ordered by descending frequency.
func (s *Store) Templates() []*Template {
	out := make([]*Template, 0, len(s.templates))
	for _, t := range s.templates {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Frequency != out[j].Frequency {
			return out[i].Frequency > out[j].Frequency
		}
		return out[i].Fingerprint < out[j].Fingerprint
	})
	return out
}

// Workload converts the template store into a weighted workload: one entry
// per template, weighted by its observed frequency. This is the compressed
// workload AutoIndex feeds the candidate generator and the estimator.
func (s *Store) Workload() *workload.Workload {
	w := &workload.Workload{}
	for _, t := range s.Templates() {
		stmt := t.sampleStmt()
		w.Queries = append(w.Queries, workload.Query{
			SQL:    stmt.String(),
			Stmt:   stmt,
			Weight: t.Frequency,
		})
	}
	return w
}

// stripStatement replaces every literal in the statement with a placeholder.
func stripStatement(stmt sqlparser.Statement) {
	switch s := stmt.(type) {
	case *sqlparser.SelectStmt:
		stripSelect(s)
	case *sqlparser.InsertStmt:
		for _, row := range s.Values {
			for i := range row {
				row[i] = stripExpr(row[i])
			}
		}
	case *sqlparser.UpdateStmt:
		for i := range s.Set {
			s.Set[i].Value = stripExpr(s.Set[i].Value)
		}
		s.Where = stripExpr(s.Where)
	case *sqlparser.DeleteStmt:
		s.Where = stripExpr(s.Where)
	}
}

func stripSelect(s *sqlparser.SelectStmt) {
	for i := range s.Select {
		if !s.Select[i].Star {
			s.Select[i].Expr = stripExpr(s.Select[i].Expr)
		}
	}
	for i := range s.From {
		if s.From[i].Subquery != nil {
			stripSelect(s.From[i].Subquery)
		}
	}
	for i := range s.Joins {
		s.Joins[i].On = stripExpr(s.Joins[i].On)
	}
	s.Where = stripExpr(s.Where)
	for i := range s.GroupBy {
		s.GroupBy[i] = stripExpr(s.GroupBy[i])
	}
	s.Having = stripExpr(s.Having)
	for i := range s.OrderBy {
		s.OrderBy[i].Expr = stripExpr(s.OrderBy[i].Expr)
	}
	// LIMIT values are part of the shape, keep them.
}

func stripExpr(e sqlparser.Expr) sqlparser.Expr {
	switch v := e.(type) {
	case nil:
		return nil
	case *sqlparser.Literal:
		return &sqlparser.Placeholder{}
	case *sqlparser.BinaryExpr:
		v.L = stripExpr(v.L)
		v.R = stripExpr(v.R)
		return v
	case *sqlparser.NotExpr:
		v.E = stripExpr(v.E)
		return v
	case *sqlparser.InExpr:
		v.E = stripExpr(v.E)
		// Collapse the IN list to one placeholder so lists of different
		// lengths share a template.
		hasSub := false
		for _, item := range v.List {
			if _, ok := item.(*sqlparser.SubqueryExpr); ok {
				hasSub = true
			}
		}
		if !hasSub {
			v.List = []sqlparser.Expr{&sqlparser.Placeholder{}}
			return v
		}
		// A list that keeps its subquery keeps its other items too, stripped
		// like any expression (they used to keep their literals).
		for i, item := range v.List {
			v.List[i] = stripExpr(item)
		}
		return v
	case *sqlparser.BetweenExpr:
		v.E = stripExpr(v.E)
		v.Lo = stripExpr(v.Lo)
		v.Hi = stripExpr(v.Hi)
		return v
	case *sqlparser.IsNullExpr:
		v.E = stripExpr(v.E)
		return v
	case *sqlparser.FuncExpr:
		for i := range v.Args {
			v.Args[i] = stripExpr(v.Args[i])
		}
		return v
	case *sqlparser.SubqueryExpr:
		stripSelect(v.Query)
		return v
	default:
		return e
	}
}
