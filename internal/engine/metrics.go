package engine

import (
	"time"

	"repro/internal/btree"
	"repro/internal/obs"
)

// stmtCostBuckets are the fixed upper bounds for the per-statement cost
// histogram, in engine cost units (the deterministic latency proxy). The
// range spans a point index lookup (~a few units) through multi-join scans.
var stmtCostBuckets = []float64{
	0.5, 1, 2.5, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000, 25000, 100000,
}

// dbMetrics holds the engine's pre-resolved instrument handles so the per-
// statement hot path does one nil check plus atomic adds — no map lookups.
type dbMetrics struct {
	reg *obs.Registry

	stmtTotal      *obs.Counter
	stmtErrors     *obs.Counter
	stmtCost       *obs.Histogram
	stmtSeconds    *obs.Histogram
	internalPanics *obs.Counter

	heapPagesRead     *obs.Counter
	heapPagesWritten  *obs.Counter
	indexPagesRead    *obs.Counter
	indexPagesWritten *obs.Counter
	tuplesProcessed   *obs.Counter
	indexTuplesRW     *obs.Counter
	operatorEvals     *obs.Counter
	indexDescents     *obs.Counter
	rowsReturned      *obs.Counter
	rowsAffected      *obs.Counter

	indexProbes *obs.CounterVec
	indexSplits *obs.CounterVec
	indexHeight *obs.GaugeVec
	indexBytes  *obs.GaugeVec
}

// SetMetrics attaches a metrics registry to the database (nil detaches).
// While attached, every executed statement feeds the engine_* metrics and
// every live index tree reports splits and height changes; detached (the
// default), the hot path pays a single nil check.
func (db *DB) SetMetrics(reg *obs.Registry) {
	if reg == nil {
		db.metrics = nil
		db.pool.Instrument(nil)
		for _, trees := range db.indexes {
			for _, t := range trees {
				t.SetMonitor(nil)
			}
		}
		return
	}
	m := &dbMetrics{
		reg:        reg,
		stmtTotal:  reg.Counter("engine_statements_total", "Statements executed"),
		stmtErrors: reg.Counter("engine_statement_errors_total", "Statements that returned an error"),
		stmtCost: reg.Histogram("engine_statement_cost",
			"Per-statement deterministic cost units (latency proxy)", stmtCostBuckets),
		stmtSeconds: reg.Histogram("engine_statement_seconds",
			"Per-statement wall-clock service time (seconds, log-spaced buckets)",
			obs.LogBuckets(1e-7, 10, 5)),
		internalPanics: reg.Counter("engine_internal_panics_total",
			"Panics recovered at the statement boundary and returned as *InternalError"),
		heapPagesRead:     reg.Counter("engine_heap_pages_read_total", "Heap pages read"),
		heapPagesWritten:  reg.Counter("engine_heap_pages_written_total", "Heap pages written"),
		indexPagesRead:    reg.Counter("engine_index_pages_read_total", "Index pages read"),
		indexPagesWritten: reg.Counter("engine_index_pages_written_total", "Index pages written"),
		tuplesProcessed:   reg.Counter("engine_tuples_processed_total", "Heap tuples processed"),
		indexTuplesRW:     reg.Counter("engine_index_tuples_rw_total", "Index entries read or written"),
		operatorEvals:     reg.Counter("engine_operator_evals_total", "Expression operator evaluations"),
		indexDescents:     reg.Counter("engine_index_descents_total", "B+Tree root-to-leaf descents"),
		rowsReturned:      reg.Counter("engine_rows_returned_total", "Rows returned to clients"),
		rowsAffected:      reg.Counter("engine_rows_affected_total", "Rows affected by writes"),
		indexProbes: reg.CounterVec("engine_index_probes_total",
			"Statements that probed each index", "index"),
		indexSplits: reg.CounterVec("engine_index_splits_total",
			"B+Tree page splits per index", "index"),
		indexHeight: reg.GaugeVec("engine_index_height", "B+Tree height per index", "index"),
		indexBytes:  reg.GaugeVec("engine_index_size_bytes", "Estimated index size per index", "index"),
	}
	db.metrics = m
	db.pool.Instrument(reg)
	// Attach monitors to live trees and publish current structural gauges;
	// trees built later attach when their build registers.
	for name, trees := range db.indexes {
		db.monitorIndex(name, trees)
	}
	for _, meta := range db.cat.Indexes(false) {
		m.indexHeight.With(meta.Name).Set(float64(meta.Height))
		m.indexBytes.With(meta.Name).Set(float64(meta.SizeBytes))
	}
}

// Metrics returns the attached registry (nil when detached).
func (db *DB) Metrics() *obs.Registry {
	if db.metrics == nil {
		return nil
	}
	return db.metrics.reg
}

// treeMonitor adapts one index's trees to the metrics registry.
type treeMonitor struct {
	splits *obs.Counter
	height *obs.Gauge
}

// Both hooks guard the receiver so a detached (nil) monitor is a no-op,
// per the btree.Monitor contract enforced by autoindexlint's nilsafeobs.
func (tm *treeMonitor) Split() {
	if tm == nil {
		return
	}
	tm.splits.Inc()
}

func (tm *treeMonitor) HeightChanged(h int) {
	if tm == nil {
		return
	}
	tm.height.Set(float64(h))
}

// monitorIndex installs metric monitors on an index's trees and publishes
// its current height (no-op when metrics are detached).
func (db *DB) monitorIndex(name string, trees []*btree.Tree) {
	if db.metrics == nil {
		return
	}
	tm := &treeMonitor{
		splits: db.metrics.indexSplits.With(name),
		height: db.metrics.indexHeight.With(name),
	}
	maxH := 0
	for _, t := range trees {
		t.SetMonitor(tm)
		if t.Height() > maxH {
			maxH = t.Height()
		}
	}
	tm.height.Set(float64(maxH))
}

// recordStmt feeds one finished statement into the registry: its stats, its
// cost sample and its service time since wallStart. Every successful
// statement — executed or stood for by a published index build — passes
// through here exactly once, so engine_statement_cost's count always equals
// the successes in engine_statements_total.
func (m *dbMetrics) recordStmt(s ExecStats, wallStart time.Time) {
	m.stmtTotal.Inc()
	m.stmtSeconds.Observe(time.Since(wallStart).Seconds())
	m.stmtCost.Observe(s.ActualCost())
	m.heapPagesRead.Add(s.IO.HeapPagesRead)
	m.heapPagesWritten.Add(s.IO.HeapPagesWritten)
	m.indexPagesRead.Add(s.IO.IndexPagesRead)
	m.indexPagesWritten.Add(s.IO.IndexPagesWritten)
	m.tuplesProcessed.Add(s.TuplesProcessed)
	m.indexTuplesRW.Add(s.IndexTuplesRW)
	m.operatorEvals.Add(s.OperatorEvals)
	m.indexDescents.Add(s.IndexDescents)
	m.rowsReturned.Add(s.RowsReturned)
	m.rowsAffected.Add(s.RowsAffected)
}
