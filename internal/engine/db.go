package engine

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/btree"
	"repro/internal/bufferpool"
	"repro/internal/catalog"
	"repro/internal/costparams"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/planner"
	"repro/internal/sqlparser"
	"repro/internal/sqltypes"
	"repro/internal/storage"
)

// BTreeOrder is the page capacity for all index trees.
const BTreeOrder = btree.DefaultOrder

// DB is a single-node database instance: catalog, heaps, indexes, and the
// statement executor.
type DB struct {
	cat   *catalog.Catalog
	heaps map[string]*storage.Heap
	// indexes maps index name to its trees: one tree for normal/global
	// indexes, one per partition for LOCAL indexes on partitioned tables.
	indexes map[string][]*btree.Tree
	// statsMu guards indexUsage, which concurrent reader sessions update in
	// parallel. All other DB state is protected by the session layer's
	// reader/writer discipline: structural mutations only happen under its
	// exclusive lock.
	statsMu sync.Mutex
	// indexUsage counts, per index name, how many statements probed it;
	// the diagnosis module reads this to spot rarely-used indexes.
	indexUsage map[string]int64
	// statements counts executed statements since the last ResetUsage.
	statements atomic.Int64
	// changeLog, when attached by an online index build, records every write
	// so the build can replay changes that landed after its snapshot scan.
	changeLog *ChangeLog
	// observer, when set, receives the SQL text of every executed DML
	// statement (a template store attaches here, mirroring the paper's
	// server-side workload logging).
	observer func(sql string)
	// metrics, when set via SetMetrics, receives engine_* counters and
	// histograms; nil (the default) keeps the hot path free of them.
	metrics *dbMetrics
	// order is the node capacity for index trees (BTreeOrder unless
	// overridden via NewWithConfig).
	order int
	// faults, when armed via SetFaultInjector, is propagated to every heap
	// and index tree, including ones created later.
	faults *fault.Injector
	// pool is the shared buffer pool fronting every heap (physical page-
	// cache accounting; logical IOCounter charges never depend on it). Nil
	// disables pooling entirely.
	pool *bufferpool.Manager
	// nextHeapID assigns buffer-pool table ids in table-creation order, so
	// page identities are deterministic for a deterministic DDL sequence.
	nextHeapID int32
}

// SetObserver installs a statement observer (nil to detach). The observer
// receives the text of every SELECT, INSERT, UPDATE and DELETE that parses,
// synchronously before it executes, whether or not execution then succeeds;
// DDL and EXPLAIN never reach it. Under a session layer it runs on
// concurrent reader goroutines.
func (db *DB) SetObserver(fn func(sql string)) { db.observer = fn }

// stmtState is the per-statement scratch: IO and CPU-ish work counters for
// exactly one statement. Each ExecStmt call owns its own instance, so
// concurrent reader sessions never contend on shared counters.
type stmtState struct {
	io              storage.IOCounter
	tuplesProcessed int64
	indexTuplesRW   int64
	operatorEvals   int64
	indexDescents   int64
	// indexSplits counts the page splits this statement's index inserts
	// caused. (An index the statement itself creates is bulk-built and adds
	// none.)
	indexSplits int64
}

// ExecStats summarizes the measured work of one statement. ActualCost() is
// the deterministic latency proxy used throughout the experiments.
type ExecStats struct {
	IO              storage.IOCounter
	TuplesProcessed int64
	IndexTuplesRW   int64
	OperatorEvals   int64
	IndexDescents   int64
	RowsReturned    int64
	RowsAffected    int64
	IndexSplits     int64
}

// ActualCost converts the counters into cost units with the shared
// hyperparameters: this is the engine's "measured execution time".
func (s ExecStats) ActualCost() float64 {
	return float64(s.IO.HeapPagesRead)*costparams.SeqPageCost +
		float64(s.IO.HeapPagesWritten)*costparams.SeqPageCost +
		float64(s.IO.IndexPagesRead)*costparams.RandomPageCost +
		float64(s.IO.IndexPagesWritten)*costparams.SeqPageCost +
		float64(s.TuplesProcessed)*costparams.CPUTupleCost +
		float64(s.IndexTuplesRW)*costparams.CPUIndexTupleCost +
		float64(s.OperatorEvals)*costparams.CPUOperatorCost +
		float64(s.IndexDescents)*costparams.RandomPageCost
}

// Add accumulates another stats record.
func (s *ExecStats) Add(o ExecStats) {
	s.IO.Add(o.IO)
	s.TuplesProcessed += o.TuplesProcessed
	s.IndexTuplesRW += o.IndexTuplesRW
	s.OperatorEvals += o.OperatorEvals
	s.IndexDescents += o.IndexDescents
	s.RowsReturned += o.RowsReturned
	s.RowsAffected += o.RowsAffected
	s.IndexSplits += o.IndexSplits
}

// Result is the output of one statement.
type Result struct {
	Columns []string
	Rows    []sqltypes.Tuple
	Stats   ExecStats
	// plan is the root of the executed (or, for EXPLAIN, explained) access
	// plan and planHeader EXPLAIN's summary line for a write; PlanText
	// renders them.
	plan       planner.Node
	planHeader string
}

// PlanText renders the explain text of the statement's plan: the executed
// plan of a SELECT, the explained one of an EXPLAIN, empty for a write.
func (r *Result) PlanText() string {
	text := r.planHeader
	if r.plan != nil {
		if text != "" {
			text += "\n"
		}
		text += planner.Explain(r.plan)
	}
	return text
}

// New creates an empty database. When a process-wide metrics registry is
// installed (obs.SetDefaultRegistry — benchrunner's -bench-out does this),
// the instance instruments itself into it, mirroring how managers pick up
// obs.DefaultTracer; with no default registry the hot path stays
// uninstrumented. SetMetrics overrides either way.
func New() *DB {
	db := &DB{
		cat:        catalog.New(),
		heaps:      make(map[string]*storage.Heap),
		indexes:    make(map[string][]*btree.Tree),
		indexUsage: make(map[string]int64),
		order:      BTreeOrder,
		pool:       bufferpool.NewManager(0),
	}
	if reg := obs.DefaultRegistry(); reg != nil {
		db.SetMetrics(reg)
	}
	return db
}

// Config customizes a database instance.
type Config struct {
	// BTreeOrder is the node capacity for index trees. Zero means
	// DefaultOrder; values below the B+Tree minimum are rejected.
	BTreeOrder int
	// BufferPoolPages is the buffer pool's frame capacity. Zero means
	// bufferpool.DefaultCapacity (large enough that experiment runs never
	// evict, keeping the physical counters deterministic under concurrent
	// readers); negative disables the pool.
	BufferPoolPages int
}

// NewWithConfig creates an empty database with the given configuration,
// validating it at this boundary (btree.New's panic stays an internal
// invariant for already-validated orders).
func NewWithConfig(cfg Config) (*DB, error) {
	order := cfg.BTreeOrder
	if order == 0 {
		order = BTreeOrder
	}
	if err := btree.ValidateOrder(order); err != nil {
		return nil, fmt.Errorf("engine: invalid config: %w", err)
	}
	db := New()
	db.order = order
	switch {
	case cfg.BufferPoolPages < 0:
		db.pool = nil
	case cfg.BufferPoolPages > 0:
		db.pool = bufferpool.NewManager(cfg.BufferPoolPages)
		if db.metrics != nil {
			db.pool.Instrument(db.metrics.reg)
		}
	}
	return db, nil
}

// BufferPool exposes the shared page cache (nil when disabled); tests and
// the bench runner read its Stats.
func (db *DB) BufferPool() *bufferpool.Manager { return db.pool }

// SetFaultInjector arms (or with nil disarms) fault injection across the
// whole instance: every existing heap and index tree, plus any created
// later. Faults from paths without an error return surface as panics and are
// recovered at the ExecStmt boundary.
func (db *DB) SetFaultInjector(in *fault.Injector) {
	db.faults = in
	db.pool.SetFaultInjector(in)
	for _, h := range db.heaps {
		h.SetFaultInjector(in)
	}
	for _, trees := range db.indexes {
		for _, t := range trees {
			t.SetFaultInjector(in)
		}
	}
}

// IndexUsage returns a copy of the per-index probe counters.
func (db *DB) IndexUsage() map[string]int64 {
	db.statsMu.Lock()
	defer db.statsMu.Unlock()
	out := make(map[string]int64, len(db.indexUsage))
	for k, v := range db.indexUsage {
		out[k] = v
	}
	return out
}

// bumpIndexUsage counts one statement-level probe of an index.
func (db *DB) bumpIndexUsage(name string) {
	db.statsMu.Lock()
	db.indexUsage[name]++
	db.statsMu.Unlock()
}

// StatementCount returns how many statements have executed.
func (db *DB) StatementCount() int64 { return db.statements.Load() }

// ResetUsage zeroes the usage counters (start of a tuning window).
func (db *DB) ResetUsage() {
	db.statsMu.Lock()
	db.indexUsage = make(map[string]int64)
	db.statsMu.Unlock()
	db.statements.Store(0)
}

// Catalog exposes the schema registry. AutoIndex reads statistics and the
// live index set through it; what-if pricing plans against a catalog view
// (catalog.WithIndexes) and never writes here.
func (db *DB) Catalog() *catalog.Catalog { return db.cat }

// Reader is the read-only face of a DB that session.Manager.Read hands its
// closure. The database is unexported, so code running under the shared
// reader lock has no method that mutates engine state and no way to assert
// its way back to the *DB.
type Reader struct{ db *DB }

// Reader returns the read-only face of db.
func (db *DB) Reader() Reader { return Reader{db: db} }

// Catalog is DB.Catalog.
func (r Reader) Catalog() *catalog.Catalog { return r.db.Catalog() }

// IndexUsage is DB.IndexUsage.
func (r Reader) IndexUsage() map[string]int64 { return r.db.IndexUsage() }

// StatementCount is DB.StatementCount.
func (r Reader) StatementCount() int64 { return r.db.StatementCount() }

// NewIndexBuild is DB.NewIndexBuild: an online build validates, attaches its
// change log and snapshots under the reader lock.
func (r Reader) NewIndexBuild(spec IndexBuildSpec) (*IndexBuild, error) {
	return r.db.NewIndexBuild(spec)
}

// CreateTable registers a table and its heap. A primary-key index named
// pk_<table> is created automatically when a primary key is declared.
func (db *DB) CreateTable(stmt *sqlparser.CreateTableStmt) error {
	cols := make([]catalog.Column, len(stmt.Columns))
	for i, c := range stmt.Columns {
		cols[i] = catalog.Column{Name: c.Name, Type: c.Type}
	}
	t, err := db.cat.CreateTable(stmt.Table, cols, stmt.PrimaryKey)
	if err != nil {
		return err
	}
	if stmt.Partitions > 1 {
		pcol := strings.ToLower(stmt.PartitionBy)
		if t.Column(pcol) == nil {
			return fmt.Errorf("engine: partition column %q not in table %q", pcol, t.Name)
		}
		t.PartitionBy = pcol
		t.Partitions = stmt.Partitions
	}
	heap := storage.NewHeap()
	heap.SetFaultInjector(db.faults)
	if db.pool != nil {
		heap.AttachPool(db.pool, db.nextHeapID)
		db.nextHeapID++
	}
	db.heaps[t.Name] = heap
	if len(stmt.PrimaryKey) > 0 {
		return db.createIndex(&stmtState{}, IndexBuildSpec{
			Name: "pk_" + t.Name, Table: t.Name, Columns: stmt.PrimaryKey, Unique: true,
		})
	}
	return nil
}

// partitionOf hashes a partition-column value to its partition number.
func partitionOf(v sqltypes.Value, partitions int) int {
	h := fnv1a(v.String())
	return int(h % uint64(partitions))
}

func fnv1a(s string) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime
	}
	return h
}

// refreshIndexMeta updates catalog metadata from the live trees. Global
// indexes on partitioned tables carry a per-entry partition-pointer
// overhead, mirroring the paper's "global takes much storage" remark.
func (db *DB) refreshIndexMeta(meta *catalog.IndexMeta, trees []*btree.Tree, keyBytes int64) {
	var n, pages int64
	height := 0
	for _, tree := range trees {
		n += tree.Len()
		pages += tree.NumPages()
		if tree.Height() > height {
			height = tree.Height()
		}
	}
	meta.NumTuples = n
	meta.NumPages = pages
	meta.Height = height
	if keyBytes == 0 && n > 0 {
		keyBytes = n * 16
	}
	perEntryPtr := int64(8)
	t := db.cat.Table(meta.Table)
	if t != nil && t.IsPartitioned() && !meta.Local {
		perEntryPtr = 12 // RID + partition pointer
	}
	meta.SizeBytes = int64(float64(keyBytes+n*perEntryPtr) * 1.3)
	db.cat.BumpGeneration()
	if db.metrics != nil {
		db.metrics.indexHeight.With(meta.Name).Set(float64(meta.Height))
		db.metrics.indexBytes.With(meta.Name).Set(float64(meta.SizeBytes))
	}
}

// DropIndex removes a real index. Dropping the primary-key index is refused.
func (db *DB) DropIndex(name string) error {
	name = strings.ToLower(name)
	meta := db.cat.Index(name)
	if meta == nil {
		return fmt.Errorf("engine: unknown index %q", name)
	}
	if meta.IsPrimary() {
		return fmt.Errorf("engine: refusing to drop primary-key index %q", name)
	}
	if err := db.cat.DropIndex(name); err != nil {
		return err
	}
	delete(db.indexes, name)
	if db.metrics != nil {
		db.metrics.indexHeight.Delete(name)
		db.metrics.indexBytes.Delete(name)
	}
	return nil
}

// IndexTrees exposes all trees of an index (one per partition for local).
func (db *DB) IndexTrees(name string) []*btree.Tree {
	return db.indexes[strings.ToLower(name)]
}

// indexLen sums entries across an index's trees.
func indexLen(trees []*btree.Tree) int64 {
	var n int64
	for _, t := range trees {
		n += t.Len()
	}
	return n
}

// Heap exposes a table's heap.
func (db *DB) Heap(table string) *storage.Heap {
	return db.heaps[strings.ToLower(table)]
}

// Analyze recomputes statistics for one table: row count, per-column NDV,
// min/max, null fraction, equi-depth histogram, and average widths.
func (db *DB) Analyze(table string) error {
	t := db.cat.Table(table)
	if t == nil {
		return fmt.Errorf("engine: unknown table %q", table)
	}
	heap := db.heaps[t.Name]
	type colAgg struct {
		distinct map[string]struct{}
		values   []sqltypes.Value
		nulls    int64
		width    float64
		min, max sqltypes.Value
	}
	aggs := make([]colAgg, len(t.Columns))
	for i := range aggs {
		aggs[i].distinct = make(map[string]struct{})
		aggs[i].min = sqltypes.Null()
		aggs[i].max = sqltypes.Null()
	}
	var rows int64
	var tupleBytes float64
	heap.ScanBatch(nil, func(page *storage.Batch) bool {
		rows += int64(page.Len())
		for _, s := range page.Sel {
			tup := page.Tuples[s]
			for i := range t.Columns {
				if i >= len(tup) {
					continue
				}
				v := tup[i]
				tupleBytes += float64(v.EncodedSize())
				a := &aggs[i]
				if v.IsNull() {
					a.nulls++
					continue
				}
				a.distinct[v.String()] = struct{}{}
				a.values = append(a.values, v)
				a.width += float64(v.EncodedSize())
				if a.min.IsNull() || sqltypes.Compare(v, a.min) < 0 {
					a.min = v
				}
				if a.max.IsNull() || sqltypes.Compare(v, a.max) > 0 {
					a.max = v
				}
			}
		}
		return true
	})
	t.NumRows = rows
	if rows > 0 {
		t.AvgTupleBytes = tupleBytes / float64(rows)
	}
	for i, col := range t.Columns {
		a := &aggs[i]
		st := &catalog.ColumnStats{
			NumRows:     rows,
			NumDistinct: int64(len(a.distinct)),
			Min:         a.min,
			Max:         a.max,
		}
		if rows > 0 {
			st.NullFraction = float64(a.nulls) / float64(rows)
		}
		if n := len(a.values); n > 0 {
			st.AvgWidth = a.width / float64(n)
			sort.Slice(a.values, func(x, y int) bool {
				return sqltypes.Compare(a.values[x], a.values[y]) < 0
			})
			buckets := 128
			if n < buckets {
				buckets = n
			}
			hist := make([]sqltypes.Value, buckets)
			for b := 0; b < buckets; b++ {
				idx := (b + 1) * n / buckets
				if idx >= n {
					idx = n - 1
				}
				hist[b] = a.values[idx]
			}
			st.Histogram = hist
		}
		t.Stats[col.Name] = st
	}
	// Refresh index metadata (heights, sizes) after bulk changes too.
	for _, meta := range db.cat.TableIndexes(t.Name, false) {
		if trees := db.indexes[meta.Name]; len(trees) > 0 {
			db.refreshIndexMeta(meta, trees, 0)
		}
	}
	db.cat.BumpGeneration()
	return nil
}

// AnalyzeAll refreshes statistics on every table.
func (db *DB) AnalyzeAll() error {
	for _, t := range db.cat.Tables() {
		if err := db.Analyze(t.Name); err != nil {
			return err
		}
	}
	return nil
}

// snapshotStats captures the per-statement counters into ExecStats.
func (st *stmtState) snapshotStats() ExecStats {
	return ExecStats{
		IO:              st.io,
		TuplesProcessed: st.tuplesProcessed,
		IndexTuplesRW:   st.indexTuplesRW,
		OperatorEvals:   st.operatorEvals,
		IndexDescents:   st.indexDescents,
		IndexSplits:     st.indexSplits,
	}
}

// BulkLoad appends tuples directly to a table's heap and maintains its
// indexes, bypassing SQL parsing and planning. Loaders use this to build
// large datasets quickly; per-statement counters are not affected. Tuples
// must match the table's column order. Like ExecStmt it is panic-safe, since
// it runs outside the statement boundary.
func (db *DB) BulkLoad(table string, rows []sqltypes.Tuple) (err error) {
	defer db.recoverToError("BulkLoad", nil, &err)
	t := db.cat.Table(table)
	if t == nil {
		return fmt.Errorf("engine: unknown table %q", table)
	}
	heap := db.heaps[t.Name]
	indexes := db.cat.TableIndexes(t.Name, false)
	type idxState struct {
		meta      *catalog.IndexMeta
		trees     []*btree.Tree
		positions []int
	}
	states := make([]idxState, 0, len(indexes))
	partPos := -1
	if t.IsPartitioned() {
		partPos = t.Column(t.PartitionBy).Pos
	}
	for _, meta := range indexes {
		trees := db.indexes[meta.Name]
		if len(trees) == 0 {
			continue
		}
		pos := make([]int, len(meta.Columns))
		for i, c := range meta.Columns {
			pos[i] = t.Column(c).Pos
		}
		states = append(states, idxState{meta: meta, trees: trees, positions: pos})
	}
	for _, tup := range rows {
		if len(tup) != len(t.Columns) {
			return fmt.Errorf("engine: bulk tuple arity %d, table %q has %d columns",
				len(tup), t.Name, len(t.Columns))
		}
		rid := heap.Insert(tup, nil)
		if db.changeLog != nil {
			db.changeLog.Append(ChangeEntry{Table: t.Name, Op: ChangeInsert, RID: rid, New: tup})
		}
		for _, st := range states {
			key := make(sqltypes.Key, len(st.positions))
			for i, p := range st.positions {
				key[i] = tup[p]
			}
			ti := 0
			if st.meta.Local {
				ti = partitionOf(tup[partPos], t.Partitions)
			}
			st.trees[ti].Insert(key, rid)
		}
	}
	t.NumRows += int64(len(rows))
	db.cat.BumpGeneration()
	for _, st := range states {
		db.refreshIndexMeta(st.meta, st.trees, 0)
	}
	return nil
}

// TotalDataPages reports heap pages across all tables (memory-pressure
// signal for the banking removal experiment).
func (db *DB) TotalDataPages() int64 {
	var n int64
	for _, h := range db.heaps {
		n += h.NumPages()
	}
	return n
}
