package engine

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/btree"
	"repro/internal/catalog"
	"repro/internal/fault"
	"repro/internal/sqltypes"
	"repro/internal/storage"
)

// IndexBuildSpec names the index a build is to produce.
type IndexBuildSpec struct {
	Name    string
	Table   string
	Columns []string
	Unique  bool
	Local   bool
}

// IndexBuild is the only code that turns a spec into a live index. The
// non-blocking protocol, in caller-lock order:
//
//  1. StartLogging + Snapshot under a session *reader* lock — the reader
//     lock excludes all writers, so the change log attaches empty and the
//     heap scan sees a write-free snapshot.
//  2. Build with no lock at all: bulk-build the B+Tree from the snapshot
//     while foreground traffic proceeds; its writes land in the change log.
//  3. Catchup with no lock: replay logged writes in batches toward the
//     last_sync watermark until the lag is small.
//  4. Publish under the session *exclusive* lock: drain the remaining tail
//     of the log (writers are excluded, so it empties), then atomically
//     register catalog entry + trees. Readers either ran before the
//     exclusive lock (no index) or after (complete index) — never between.
//
// Abort (under the exclusive lock) detaches the log and discards the trees;
// nothing was published, so nothing needs rolling back.
//
// A CREATE INDEX statement (and CreateTable's pk_ index, and snapshot Load)
// holds the caller's lock from start to end, so no write can interleave: it
// runs the same Snapshot → Build → register steps with no change log
// (db.createIndex).
//
// What a build costs and what it leaves behind. Snapshot is the only step
// that holds traffic up (writers wait out its reader lock), so it is a bare
// copy of key columns, one allocation per heap page: the keys of a page are
// cut from one []Value arena. Build sorts positions, not entries
// (btree.BulkBuild), and the trees it makes share the snapshot's Key slices.
// Entries reach BulkBuild in heap order, so among equal keys RIDs ascend —
// BulkBuild's stability makes the tree a pure function of the heap. The
// arena's price: a key's backing array stays reachable while any key cut
// from the same page is still in the index, so deleting 63 of a page's 64
// entries frees nothing until the last goes. That is bounded by the page —
// TuplesPerPage keys, a few KB — and by the index's own lifetime; keys that
// arrive later (catch-up replay, foreground inserts) are allocated singly.
type IndexBuild struct {
	db        *DB
	spec      IndexBuildSpec
	table     *catalog.Table
	positions []int
	partPos   int
	nTrees    int
	log       *ChangeLog
	entries   [][]btree.Entry
	trees     []*btree.Tree
	keyBytes  int64
	// io is the snapshot scan's logical IO — what the build costs as the one
	// CREATE INDEX statement it stands for.
	io storage.IOCounter
	// start times the build for engine_statement_seconds.
	start time.Time
	// lastSync is the LSN watermark: every change-log entry with LSN <=
	// lastSync has been replayed into the offline trees.
	lastSync    uint64
	catchupRows int64
}

// NewIndexBuild validates the spec against the catalog without touching it:
// the catalog learns about the index only when the build registers.
func (db *DB) NewIndexBuild(spec IndexBuildSpec) (*IndexBuild, error) {
	spec.Name = strings.ToLower(spec.Name)
	t := db.cat.Table(spec.Table)
	if t == nil {
		return nil, fmt.Errorf("engine: unknown table %q", spec.Table)
	}
	if spec.Local && !t.IsPartitioned() {
		return nil, fmt.Errorf("engine: LOCAL index requires a partitioned table, %q is not", t.Name)
	}
	if db.cat.Index(spec.Name) != nil {
		return nil, fmt.Errorf("engine: index %q already exists", spec.Name)
	}
	lower := make([]string, len(spec.Columns))
	positions := make([]int, len(spec.Columns))
	for i, c := range spec.Columns {
		lower[i] = strings.ToLower(c)
		col := t.Column(lower[i])
		if col == nil {
			return nil, fmt.Errorf("engine: unknown column %s.%s", t.Name, c)
		}
		positions[i] = col.Pos
	}
	spec.Columns = lower
	b := &IndexBuild{
		db:        db,
		spec:      spec,
		table:     t,
		positions: positions,
		partPos:   -1,
		nTrees:    1,
		start:     time.Now(),
	}
	if spec.Local {
		b.nTrees = t.Partitions
		b.partPos = t.Column(t.PartitionBy).Pos
	}
	return b, nil
}

// createIndex runs a build to completion under the caller's lock, charging
// the scan to the calling statement.
func (db *DB) createIndex(st *stmtState, spec IndexBuildSpec) error {
	b, err := db.NewIndexBuild(spec)
	if err != nil {
		return err
	}
	if err := b.Snapshot(); err != nil {
		return err
	}
	st.io.Add(b.io)
	if err := b.Build(); err != nil {
		return err
	}
	return b.register()
}

// StartLogging attaches a fresh change log to the database. The caller must
// hold the session reader lock (excluding writers) and keep holding it
// through Snapshot, so no write can slip between attach and scan.
func (b *IndexBuild) StartLogging() error {
	if b.db.changeLog != nil {
		return fmt.Errorf("engine: another online index build is already logging")
	}
	b.log = NewChangeLog()
	b.db.SetChangeLog(b.log)
	return nil
}

// Snapshot scans the heap into per-tree entry sets, charging the scan's
// page reads to the build. An online build must run it under the same reader
// lock as StartLogging. Per tuple it only copies key columns: the entry sets
// are sized from the heap's tuple count, and a page's keys share one arena
// (see the type comment). Injected faults surfacing as panics from the scan
// are recovered into the returned error.
func (b *IndexBuild) Snapshot() (err error) {
	defer b.db.recoverToError("IndexBuild.Snapshot", nil, &err)
	heap := b.db.heaps[b.table.Name]
	b.entries = make([][]btree.Entry, b.nTrees)
	// Exact for a GLOBAL index; for a LOCAL one an even split that append
	// corrects where the partitioning is skewed.
	perTree := int(heap.NumTuples()) / b.nTrees
	for i := range b.entries {
		b.entries[i] = make([]btree.Entry, 0, perTree)
	}
	width := len(b.positions)
	heap.ScanBatch(&b.io, func(page *storage.Batch) bool {
		arena := make([]sqltypes.Value, page.Len()*width)
		for _, s := range page.Sel {
			tup := page.Tuples[s]
			// The three-index slice caps the key at its own columns, so an
			// append to it reallocates instead of running into the next key.
			key := sqltypes.Key(arena[:width:width])
			arena = arena[width:]
			b.fillKey(key, tup)
			b.keyBytes += keySize(key)
			ti := b.treeOf(tup)
			b.entries[ti] = append(b.entries[ti], btree.Entry{Key: key, RID: page.RID(s)})
		}
		return true
	})
	return nil
}

// Build bulk-builds the offline trees from the snapshot, dropping each entry
// set as soon as its tree stands. Needs no lock: it only touches
// build-private state.
func (b *IndexBuild) Build() (err error) {
	defer b.db.recoverToError("IndexBuild.Build", nil, &err)
	b.trees = make([]*btree.Tree, b.nTrees)
	for i := range b.trees {
		b.trees[i] = btree.BulkBuild(b.entries[i], b.db.order)
		b.trees[i].SetFaultInjector(b.db.faults)
		b.entries[i] = nil
	}
	b.entries = nil
	return nil
}

// treeOf picks which of the index's trees a tuple's entry belongs to.
func (b *IndexBuild) treeOf(tup sqltypes.Tuple) int {
	if b.spec.Local {
		return partitionOf(tup[b.partPos], b.table.Partitions)
	}
	return 0
}

// keyOf copies the index's key columns out of a tuple into a key of its own.
func (b *IndexBuild) keyOf(tup sqltypes.Tuple) sqltypes.Key {
	key := make(sqltypes.Key, len(b.positions))
	b.fillKey(key, tup)
	return key
}

func (b *IndexBuild) fillKey(key sqltypes.Key, tup sqltypes.Tuple) {
	for i, p := range b.positions {
		key[i] = tup[p]
	}
}

func keySize(key sqltypes.Key) int64 {
	var n int64
	for _, v := range key {
		n += int64(v.EncodedSize())
	}
	return n
}

// replay applies one change-log entry to the offline trees and advances the
// last_sync watermark.
func (b *IndexBuild) replay(e ChangeEntry) {
	b.lastSync = e.LSN
	if e.Table != b.table.Name {
		return // other table's write: watermark advances, trees untouched
	}
	b.catchupRows++
	switch e.Op {
	case ChangeInsert:
		key := b.keyOf(e.New)
		b.trees[b.treeOf(e.New)].Insert(key, e.RID)
		b.keyBytes += keySize(key)
	case ChangeDelete:
		key := b.keyOf(e.Old)
		if b.trees[b.treeOf(e.Old)].Delete(key, e.RID) {
			b.keyBytes -= keySize(key)
		}
	case ChangeUpdate:
		oldKey, newKey := b.keyOf(e.Old), b.keyOf(e.New)
		oldTree, newTree := b.trees[b.treeOf(e.Old)], b.trees[b.treeOf(e.New)]
		if oldTree == newTree && sqltypes.CompareKeys(oldKey, newKey) == 0 {
			return // key columns unchanged: entry already correct
		}
		if oldTree.Delete(oldKey, e.RID) {
			b.keyBytes -= keySize(oldKey)
		}
		newTree.Insert(newKey, e.RID)
		b.keyBytes += keySize(newKey)
	}
}

// Catchup replays up to max logged writes past the watermark (all of them
// when max <= 0), without any session lock: the log is internally locked,
// and the offline trees are build-private. Returns how many entries were
// applied and how many remain. The fault site SiteBuildCatchup fires once
// per call, modeling a crash mid-catchup.
func (b *IndexBuild) Catchup(max int) (applied, remaining int, err error) {
	defer b.db.recoverToError("IndexBuild.Catchup", nil, &err)
	if b.db.faults != nil {
		if ferr := b.db.faults.Check(fault.SiteBuildCatchup); ferr != nil {
			return 0, b.Lag(), ferr
		}
	}
	batch := b.log.Since(b.lastSync, max)
	for _, e := range batch {
		b.replay(e)
	}
	return len(batch), b.Lag(), nil
}

// Lag returns how many logged writes have not been replayed yet. LSNs are
// dense from 1, so it is the distance from the watermark to the log's head.
func (b *IndexBuild) Lag() int { return int(b.log.LSN() - b.lastSync) }

// LastSync returns the replay watermark (highest replayed LSN).
func (b *IndexBuild) LastSync() uint64 { return b.lastSync }

// CatchupRows returns how many logged writes of the target table were
// replayed into the trees.
func (b *IndexBuild) CatchupRows() int64 { return b.catchupRows }

// Publish drains the change-log tail and atomically registers the index.
// The caller must hold the session exclusive lock: with writers excluded
// the final drain empties the log for good, and no reader can observe the
// catalog between registration steps. A published build enters the statement
// ledgers as the one CREATE INDEX it stands for — one statement whose cost is
// the snapshot scan's IO — so the numbers the tuner and bench snapshots read
// do not depend on which lock the build ran under. A failed attempt counts
// nothing, like a statement that was never issued.
func (b *IndexBuild) Publish() (err error) {
	defer b.db.recoverToError("IndexBuild.Publish", nil, &err)
	defer b.detach()
	for _, e := range b.log.Since(b.lastSync, 0) {
		b.replay(e)
	}
	if err := b.register(); err != nil {
		return err
	}
	b.db.statements.Add(1)
	if b.db.metrics != nil {
		b.db.metrics.recordStmt(ExecStats{IO: b.io}, b.start)
	}
	return nil
}

// register makes the built trees a live index: catalog entry, tree set,
// size/height metadata, metric monitors. The caller's lock excludes every
// reader and writer, so the steps are atomic to them.
func (b *IndexBuild) register() error {
	meta := &catalog.IndexMeta{
		Name:    b.spec.Name,
		Table:   b.table.Name,
		Columns: b.spec.Columns,
		Unique:  b.spec.Unique,
		Local:   b.spec.Local,
	}
	if err := b.db.cat.AddIndex(meta); err != nil {
		return err
	}
	b.db.indexes[meta.Name] = b.trees
	b.db.refreshIndexMeta(meta, b.trees, b.keyBytes)
	b.db.monitorIndex(meta.Name, b.trees)
	return nil
}

// Abort detaches the change log and discards the build. Must run under the
// session exclusive lock (same reason as Publish: the log detach must not
// race writers appending to it).
func (b *IndexBuild) Abort() {
	b.detach()
	b.trees = nil
	b.entries = nil
}

func (b *IndexBuild) detach() {
	if b.db.changeLog == b.log {
		b.db.SetChangeLog(nil)
	}
}
