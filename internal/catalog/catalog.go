// Package catalog holds the schema metadata and per-column statistics the
// planner, the hypothetical-index estimator and the candidate generator all
// consult: table and column definitions, row counts, distinct-value counts,
// min/max bounds, equi-depth histograms, and index descriptors.
package catalog

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/sqltypes"
)

// Column describes one table column.
type Column struct {
	Name string
	Type sqltypes.Kind
	Pos  int // ordinal position in the tuple
}

// ColumnStats summarizes the value distribution of one column, refreshed by
// ANALYZE (engine.Analyze). The planner derives selectivities from it.
type ColumnStats struct {
	NumRows      int64
	NumDistinct  int64
	NullFraction float64
	Min, Max     sqltypes.Value
	// Histogram holds equi-depth bucket upper bounds (ascending). Empty for
	// unanalyzed columns; the planner falls back to default selectivities.
	Histogram []sqltypes.Value
	// AvgWidth is the mean encoded byte width of values in this column.
	AvgWidth float64
}

// IndexMeta describes an index (real or hypothetical).
type IndexMeta struct {
	Name    string
	Table   string
	Columns []string
	Unique  bool
	// Local marks a per-partition index on a hash-partitioned table: one
	// tree per partition. A lookup that binds the partition column probes a
	// single (shallower) tree; otherwise all partitions are probed. Global
	// indexes (Local=false) keep one tree over all partitions — faster for
	// non-partition-key lookups, larger on disk (paper §III).
	Local bool
	// Hypothetical marks what-if indexes that exist only for planning.
	Hypothetical bool
	// SizeBytes is the (estimated, for hypothetical) on-disk footprint.
	SizeBytes int64
	// Height is the B+Tree height (estimated for hypothetical).
	Height int
	// NumTuples is the number of index entries.
	NumTuples int64
	// NumPages is the leaf+internal page count.
	NumPages int64
}

// Key returns the canonical identity of an index: table + column list, plus
// the local marker — a local and a global index on the same columns are
// distinct alternatives the search chooses between. Two indexes with the
// same key are duplicates regardless of name.
func (m *IndexMeta) Key() string {
	k := m.Table + "(" + strings.Join(m.Columns, ",") + ")"
	if m.Local {
		k += "/local"
	}
	return k
}

// IsPrimary reports whether this is a table's primary-key index (pk_<table>,
// created with the table): never a candidate for removal and present in
// every what-if configuration.
func (m *IndexMeta) IsPrimary() bool { return strings.HasPrefix(m.Name, "pk_") }

// before is the order of a table's index list: by name, and — only in a
// view, whose specs may share a name or have none — then by key.
func before(a, b *IndexMeta) bool {
	if a.Name != b.Name {
		return a.Name < b.Name
	}
	return a.Key() < b.Key()
}

// insert returns list with m at its ordered position, in a new backing array.
func insert(list []*IndexMeta, m *IndexMeta) []*IndexMeta {
	i := sort.Search(len(list), func(i int) bool { return !before(list[i], m) })
	return slices.Insert(slices.Clip(list), i, m)
}

// Covers reports whether the index's column prefix covers the given columns
// in order (leftmost matching principle).
func (m *IndexMeta) Covers(cols []string) bool {
	if len(cols) > len(m.Columns) {
		return false
	}
	for i, c := range cols {
		if m.Columns[i] != c {
			return false
		}
	}
	return true
}

// Table describes a table with its columns and primary key.
type Table struct {
	Name       string
	Columns    []Column
	PrimaryKey []string
	colByName  map[string]*Column
	Stats      map[string]*ColumnStats // column name → stats
	NumRows    int64
	// AvgTupleBytes is the mean encoded tuple width; used for heap sizing.
	AvgTupleBytes float64
	// PartitionBy / Partitions describe hash partitioning ("", 0 when the
	// table is unpartitioned).
	PartitionBy string
	Partitions  int
}

// IsPartitioned reports whether the table is hash-partitioned.
func (t *Table) IsPartitioned() bool { return t.Partitions > 1 }

// Column returns the column descriptor by name, or nil.
func (t *Table) Column(name string) *Column {
	return t.colByName[name]
}

// ColumnNames returns the ordered column names.
func (t *Table) ColumnNames() []string {
	out := make([]string, len(t.Columns))
	for i, c := range t.Columns {
		out[i] = c.Name
	}
	return out
}

// Catalog is the schema registry for one database.
type Catalog struct {
	tables map[string]*Table
	// indexes is the index set: each table's indexes in name order. The
	// lists are copy-on-write — AddIndex and DropIndex install a new slice —
	// so a view (WithIndexes) shares the lists it does not change.
	indexes map[string][]*IndexMeta
	// generation counts mutations that can change what-if planning output:
	// DDL on real objects and statistics refreshes. Cached plan costs are
	// valid only within one generation. Hypothetical index churn does not
	// bump it, and a what-if configuration is a view and a cache key, not a
	// catalog mutation.
	generation uint64
}

// New creates an empty catalog.
func New() *Catalog {
	return &Catalog{
		tables:  make(map[string]*Table),
		indexes: make(map[string][]*IndexMeta),
	}
}

// Generation identifies the current schema/statistics version. Any cost
// computed from the catalog is stale once Generation changes.
func (c *Catalog) Generation() uint64 { return c.generation }

// BumpGeneration marks a schema or statistics mutation, invalidating every
// externally cached cost. The engine calls it on writes, ANALYZE and index
// (re)builds; catalog DDL on real objects bumps it internally.
func (c *Catalog) BumpGeneration() { c.generation++ }

// CreateTable registers a table. Column order defines tuple layout.
func (c *Catalog) CreateTable(name string, cols []Column, pk []string) (*Table, error) {
	name = strings.ToLower(name)
	if _, ok := c.tables[name]; ok {
		return nil, fmt.Errorf("catalog: table %q already exists", name)
	}
	t := &Table{
		Name:      name,
		Columns:   make([]Column, len(cols)),
		colByName: make(map[string]*Column, len(cols)),
		Stats:     make(map[string]*ColumnStats),
	}
	for i, col := range cols {
		col.Name = strings.ToLower(col.Name)
		col.Pos = i
		t.Columns[i] = col
		if _, dup := t.colByName[col.Name]; dup {
			return nil, fmt.Errorf("catalog: duplicate column %q in table %q", col.Name, name)
		}
		t.colByName[col.Name] = &t.Columns[i]
	}
	for _, k := range pk {
		k = strings.ToLower(k)
		if t.Column(k) == nil {
			return nil, fmt.Errorf("catalog: primary key column %q not in table %q", k, name)
		}
		t.PrimaryKey = append(t.PrimaryKey, k)
	}
	c.tables[name] = t
	c.generation++
	return t, nil
}

// Table returns the table by name, or nil.
func (c *Catalog) Table(name string) *Table {
	return c.tables[strings.ToLower(name)]
}

// Tables returns all tables sorted by name.
func (c *Catalog) Tables() []*Table {
	out := make([]*Table, 0, len(c.tables))
	for _, t := range c.tables {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// checkIndex reports an index on a table or column the catalog lacks.
func (c *Catalog) checkIndex(m *IndexMeta) error {
	t := c.tables[m.Table]
	if t == nil {
		return fmt.Errorf("catalog: index %q references unknown table %q", m.Name, m.Table)
	}
	for _, col := range m.Columns {
		if t.Column(col) == nil {
			return fmt.Errorf("catalog: index %q references unknown column %s.%s", m.Name, m.Table, col)
		}
	}
	return nil
}

// AddIndex registers index metadata. Fails on duplicate name or when the
// table/columns don't exist.
func (c *Catalog) AddIndex(m *IndexMeta) error {
	m.Name = strings.ToLower(m.Name)
	m.Table = strings.ToLower(m.Table)
	for i, col := range m.Columns {
		m.Columns[i] = strings.ToLower(col)
	}
	if c.Index(m.Name) != nil {
		return fmt.Errorf("catalog: index %q already exists", m.Name)
	}
	if err := c.checkIndex(m); err != nil {
		return err
	}
	c.indexes[m.Table] = insert(c.indexes[m.Table], m)
	if !m.Hypothetical {
		c.generation++
	}
	return nil
}

// DropIndex removes index metadata by name.
func (c *Catalog) DropIndex(name string) error {
	m := c.Index(name)
	if m == nil {
		return fmt.Errorf("catalog: index %q does not exist", strings.ToLower(name))
	}
	list := c.indexes[m.Table]
	i := slices.Index(list, m)
	c.indexes[m.Table] = append(slices.Clip(list[:i]), list[i+1:]...)
	if !m.Hypothetical {
		c.generation++
	}
	return nil
}

// Index returns the index by name, or nil. It searches every table's list:
// lookups by name happen at DDL, not per statement.
func (c *Catalog) Index(name string) *IndexMeta {
	name = strings.ToLower(name)
	for _, list := range c.indexes {
		i := sort.Search(len(list), func(i int) bool { return list[i].Name >= name })
		if i < len(list) && list[i].Name == name {
			return list[i]
		}
	}
	return nil
}

// Indexes returns all indexes sorted by name. When includeHypothetical is
// false, what-if indexes are filtered out.
func (c *Catalog) Indexes(includeHypothetical bool) []*IndexMeta {
	n := 0
	for _, list := range c.indexes {
		n += len(list)
	}
	out := make([]*IndexMeta, 0, n)
	for _, list := range c.indexes {
		for _, m := range list {
			if includeHypothetical || !m.Hypothetical {
				out = append(out, m)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return before(out[i], out[j]) })
	return out
}

// TableIndexes returns the indexes on one table (optionally including
// hypothetical ones), sorted by name. The slice is the caller's own.
func (c *Catalog) TableIndexes(table string, includeHypothetical bool) []*IndexMeta {
	list := c.indexes[strings.ToLower(table)]
	out := make([]*IndexMeta, 0, len(list))
	for _, m := range list {
		if includeHypothetical || !m.Hypothetical {
			out = append(out, m)
		}
	}
	return out
}

// WithIndexes returns a read-only view of the catalog for what-if planning:
// the same tables, statistics and generation, with exactly the configuration
// config as its secondary indexes. Every primary-key index stays. A real
// index whose Key() config names stays too, as itself — name, measured size
// and height — whatever the entry naming it says; every other real index and
// every registered hypothetical one is left out. An entry no real index
// answers is taken as given, once per key. The receiver is only read, the
// view shares no index list the receiver will ever change, and index DDL on
// either is invisible to the other; tables must not be created through a view.
func (c *Catalog) WithIndexes(config []*IndexMeta) (*Catalog, error) {
	// pending maps each configured key to the first entry naming it, then to
	// nil once a real index has answered for that key.
	pending := make(map[string]*IndexMeta, len(config))
	keys := make([]string, len(config))
	for i, m := range config {
		keys[i] = m.Key()
		if _, dup := pending[keys[i]]; !dup {
			pending[keys[i]] = m
		}
	}
	v := &Catalog{
		tables:     c.tables,
		indexes:    make(map[string][]*IndexMeta, len(c.indexes)),
		generation: c.generation,
	}
	for table, list := range c.indexes {
		kept, shared := list, true
		for i, m := range list {
			keep := false
			if !m.Hypothetical {
				key := m.Key()
				_, named := pending[key]
				if named {
					pending[key] = nil
				}
				keep = named || m.IsPrimary()
			}
			switch {
			case keep && !shared:
				kept = append(kept, m)
			case !keep && shared:
				kept, shared = append(make([]*IndexMeta, 0, len(list)-1), list[:i]...), false
			}
		}
		v.indexes[table] = kept
	}
	for i, m := range config {
		if pending[keys[i]] != m {
			continue
		}
		pending[keys[i]] = nil
		if err := c.checkIndex(m); err != nil {
			return nil, err
		}
		v.indexes[m.Table] = insert(v.indexes[m.Table], m)
	}
	return v, nil
}

// Stats returns the column statistics, or nil when unanalyzed.
func (t *Table) ColumnStatsFor(col string) *ColumnStats {
	return t.Stats[strings.ToLower(col)]
}

// SelectivityEq estimates the fraction of rows matching col = const using
// histogram/NDV stats, with the textbook 1/NDV fallback.
func (s *ColumnStats) SelectivityEq() float64 {
	if s == nil || s.NumDistinct <= 0 {
		return 0.1 // default when unanalyzed
	}
	return (1 - s.NullFraction) / float64(s.NumDistinct)
}

// SelectivityRange estimates the fraction of rows in (lo, hi) where either
// bound may be NULL meaning unbounded. Uses the histogram when present,
// otherwise linear interpolation between min and max.
func (s *ColumnStats) SelectivityRange(lo, hi sqltypes.Value, loInc, hiInc bool) float64 {
	if s == nil || s.NumRows == 0 {
		return 1.0 / 3 // default range selectivity
	}
	if len(s.Histogram) > 1 {
		loF := 0.0
		if !lo.IsNull() {
			loF = s.histogramPosition(lo)
		}
		hiF := 1.0
		if !hi.IsNull() {
			hiF = s.histogramPosition(hi)
		}
		sel := hiF - loF
		if sel < 0 {
			sel = 0
		}
		// Floor at one histogram bucket: the bound's true position inside
		// its bucket is unknown, and a zero estimate would make the planner
		// treat any narrow range as free.
		if minSel := 1 / float64(len(s.Histogram)); sel < minSel {
			sel = minSel
		}
		if sel > 1 {
			sel = 1
		}
		return sel
	}
	// Linear interpolation fallback for numeric columns.
	if s.Min.IsNull() || s.Max.IsNull() {
		return 1.0 / 3
	}
	minF, maxF := s.Min.AsFloat(), s.Max.AsFloat()
	if maxF <= minF {
		return 1.0
	}
	loF := minF
	if !lo.IsNull() {
		loF = lo.AsFloat()
	}
	hiF := maxF
	if !hi.IsNull() {
		hiF = hi.AsFloat()
	}
	sel := (hiF - loF) / (maxF - minF)
	if sel < 0 {
		sel = 0
	}
	if sel > 1 {
		sel = 1
	}
	return sel
}

// histogramPosition returns the fraction of values < v per the equi-depth
// histogram.
func (s *ColumnStats) histogramPosition(v sqltypes.Value) float64 {
	n := len(s.Histogram)
	idx := sort.Search(n, func(i int) bool {
		return sqltypes.Compare(s.Histogram[i], v) >= 0
	})
	return float64(idx) / float64(n)
}
