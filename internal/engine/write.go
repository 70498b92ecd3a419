package engine

import (
	"fmt"

	"repro/internal/btree"
	"repro/internal/catalog"
	"repro/internal/planner"
	"repro/internal/sqlparser"
	"repro/internal/sqltypes"
)

// execInsert appends tuples and maintains every real index instantly.
func (db *DB) execInsert(st *stmtState, s *sqlparser.InsertStmt) (*Result, error) {
	t := db.cat.Table(s.Table)
	if t == nil {
		return nil, fmt.Errorf("engine: unknown table %q", s.Table)
	}
	heap := db.heaps[t.Name]
	ctx := &evalCtx{st: st}

	// Column mapping: explicit list or positional.
	positions := make([]int, 0, len(t.Columns))
	if len(s.Columns) > 0 {
		for _, c := range s.Columns {
			col := t.Column(c)
			if col == nil {
				return nil, fmt.Errorf("engine: unknown column %s.%s", t.Name, c)
			}
			positions = append(positions, col.Pos)
		}
	} else {
		for i := range t.Columns {
			positions = append(positions, i)
		}
	}

	indexes := db.cat.TableIndexes(t.Name, false)
	var affected int64
	for _, rowExprs := range s.Values {
		if len(rowExprs) != len(positions) {
			return nil, fmt.Errorf("engine: INSERT arity mismatch: %d values for %d columns",
				len(rowExprs), len(positions))
		}
		tup := make(sqltypes.Tuple, len(t.Columns))
		for i := range tup {
			tup[i] = sqltypes.Null()
		}
		for i, e := range rowExprs {
			v, err := ctx.once(e)
			if err != nil {
				return nil, err
			}
			tup[positions[i]] = v
		}
		rid := heap.Insert(tup, &st.io)
		st.tuplesProcessed++
		for _, meta := range indexes {
			db.indexInsert(st, meta, t, tup, rid)
		}
		if db.changeLog != nil {
			db.changeLog.Append(ChangeEntry{Table: t.Name, Op: ChangeInsert, RID: rid, New: tup})
		}
		affected++
	}
	t.NumRows += affected
	db.cat.BumpGeneration()
	st.operatorEvals += ctx.ops
	return &Result{Stats: ExecStats{RowsAffected: affected}}, nil
}

// treeFor picks the tree a tuple's entry belongs to: the single tree of a
// normal/global index, or the hash partition's tree of a local index.
func (db *DB) treeFor(meta *catalog.IndexMeta, t *catalog.Table, tup sqltypes.Tuple) *btree.Tree {
	trees := db.indexes[meta.Name]
	if len(trees) == 0 {
		return nil
	}
	if meta.Local && t.IsPartitioned() {
		pos := t.Column(t.PartitionBy).Pos
		return trees[partitionOf(tup[pos], t.Partitions)]
	}
	return trees[0]
}

// indexInsert adds one entry to an index, charging descent and write IO.
func (db *DB) indexInsert(st *stmtState, meta *catalog.IndexMeta, t *catalog.Table, tup sqltypes.Tuple, rid btree.RID) {
	tree := db.treeFor(meta, t, tup)
	if tree == nil {
		return
	}
	key := db.buildKey(meta, t, tup)
	splitsBefore := tree.Splits()
	tree.Insert(key, rid)
	st.indexDescents += int64(tree.Height())
	st.indexTuplesRW++
	splits := tree.Splits() - splitsBefore
	st.indexSplits += splits
	st.io.IndexPagesWritten += 1 + splits
	meta.NumTuples = indexLen(db.indexes[meta.Name])
	meta.NumPages = tree.NumPages()
	meta.Height = tree.Height()
	var keyBytes int64
	for _, v := range key {
		keyBytes += int64(v.EncodedSize())
	}
	meta.SizeBytes += int64(float64(keyBytes+8) * 1.3)
}

// indexDelete removes one entry, charging descent and write IO.
func (db *DB) indexDelete(st *stmtState, meta *catalog.IndexMeta, t *catalog.Table, tup sqltypes.Tuple, rid btree.RID) {
	tree := db.treeFor(meta, t, tup)
	if tree == nil {
		return
	}
	key := db.buildKey(meta, t, tup)
	if tree.Delete(key, rid) {
		st.indexDescents += int64(tree.Height())
		st.indexTuplesRW++
		st.io.IndexPagesWritten++
		meta.NumTuples = indexLen(db.indexes[meta.Name])
	}
}

func (db *DB) buildKey(meta *catalog.IndexMeta, t *catalog.Table, tup sqltypes.Tuple) sqltypes.Key {
	key := make(sqltypes.Key, len(meta.Columns))
	for i, c := range meta.Columns {
		key[i] = tup[t.Column(c).Pos]
	}
	return key
}

// targetRows locates the rows an UPDATE/DELETE affects, using the planner's
// access path (indexes included) and the executor's scan loops. The returned
// context is bound to the target table, for the caller's SET expressions.
func (db *DB) targetRows(st *stmtState, table string, where sqlparser.Expr) (*evalCtx, []btree.RID, []sqltypes.Tuple, error) {
	sel := &sqlparser.SelectStmt{
		Select: []sqlparser.SelectItem{{Star: true}},
		From:   []sqlparser.TableRef{{Name: table}},
		Where:  where,
		Limit:  -1,
	}
	plan, err := planner.PlanSelect(db.cat, sel)
	if err != nil {
		return nil, nil, nil, err
	}
	// Locate the scan node beneath projection.
	scan := plan.Root
	if p, ok := scan.(*planner.ProjectNode); ok {
		scan = p.Input
	}
	ctx, err := db.newEvalCtx(st, scan)
	if err != nil {
		return nil, nil, nil, err
	}
	var rids []btree.RID
	var tups []sqltypes.Tuple
	collect := func(rid btree.RID, tup sqltypes.Tuple) {
		rids = append(rids, rid)
		tups = append(tups, tup)
	}
	switch sc := scan.(type) {
	case *planner.SeqScanNode:
		err = db.seqScan(ctx, sc, collect)
	case *planner.IndexScanNode:
		var probe *indexProbe
		if probe, err = db.compileIndexScan(ctx, sc); err == nil {
			db.indexScan(ctx, probe, ctx.newRow(), collect)
		}
	default:
		err = fmt.Errorf("engine: unexpected write-target scan %T", scan)
	}
	if err != nil {
		return nil, nil, nil, err
	}
	return ctx, rids, tups, nil
}

// execUpdate rewrites matching tuples; indexes whose key columns changed are
// maintained instantly (delete old entry + insert new).
func (db *DB) execUpdate(st *stmtState, s *sqlparser.UpdateStmt) (*Result, error) {
	t := db.cat.Table(s.Table)
	if t == nil {
		return nil, fmt.Errorf("engine: unknown table %q", s.Table)
	}
	ctx, rids, tups, err := db.targetRows(st, t.Name, s.Where)
	if err != nil {
		return nil, err
	}
	heap := db.heaps[t.Name]

	// Which indexes have a key column among the SET targets?
	touched := make(map[string]bool, len(s.Set))
	for _, a := range s.Set {
		touched[a.Column] = true
	}
	var affectedIdx []*catalog.IndexMeta
	for _, meta := range db.cat.TableIndexes(t.Name, false) {
		for _, c := range meta.Columns {
			if touched[c] {
				affectedIdx = append(affectedIdx, meta)
				break
			}
		}
	}

	// SET expressions may reference columns unqualified; bind them to the
	// target table before compiling.
	type assignment struct {
		pos int
		val valFn
	}
	set := make([]assignment, len(s.Set))
	for i, a := range s.Set {
		col := t.Column(a.Column)
		if col == nil {
			return nil, fmt.Errorf("engine: unknown column %s.%s", t.Name, a.Column)
		}
		qualifyColumns(a.Value, t.Name)
		set[i].pos = col.Pos
		if set[i].val, err = ctx.compile(a.Value); err != nil {
			return nil, err
		}
	}

	r := ctx.newRow()
	slot := ctx.lay.slot(t.Name)
	for i, rid := range rids {
		old := tups[i]
		r[slot] = old
		newTup := old.Clone()
		for _, a := range set {
			newTup[a.pos] = a.val(r)
		}
		if err := heap.Update(rid, newTup, &st.io); err != nil {
			return nil, err
		}
		st.tuplesProcessed++
		for _, meta := range affectedIdx {
			db.indexDelete(st, meta, t, old, rid)
			db.indexInsert(st, meta, t, newTup, rid)
		}
		if db.changeLog != nil {
			db.changeLog.Append(ChangeEntry{Table: t.Name, Op: ChangeUpdate, RID: rid, Old: old, New: newTup})
		}
	}
	db.cat.BumpGeneration()
	st.operatorEvals += ctx.ops
	return &Result{Stats: ExecStats{RowsAffected: int64(len(rids))}}, nil
}

// qualifyColumns rewrites unqualified column references in an expression to
// carry the given table binding.
func qualifyColumns(e sqlparser.Expr, table string) {
	sqlparser.Walk(e, func(x sqlparser.Expr) bool {
		if ref, ok := x.(*sqlparser.ColumnRef); ok && ref.Table == "" {
			ref.Table = table
		}
		return true
	})
}

// execDelete tombstones matching tuples. Per the paper's remark, index
// cleanup for deletes is deferred (vacuum-style): stale entries are skipped
// at scan time and removed here without charging maintenance IO to the
// statement.
func (db *DB) execDelete(st *stmtState, s *sqlparser.DeleteStmt) (*Result, error) {
	t := db.cat.Table(s.Table)
	if t == nil {
		return nil, fmt.Errorf("engine: unknown table %q", s.Table)
	}
	ctx, rids, tups, err := db.targetRows(st, t.Name, s.Where)
	if err != nil {
		return nil, err
	}
	st.operatorEvals += ctx.ops
	heap := db.heaps[t.Name]
	for _, rid := range rids {
		if err := heap.Delete(rid, &st.io); err != nil {
			return nil, err
		}
	}
	// Deferred index cleanup: charge it to a scratch state the statement's
	// ExecStats never sees.
	scratch := &stmtState{}
	for i, rid := range rids {
		for _, meta := range db.cat.TableIndexes(t.Name, false) {
			db.indexDelete(scratch, meta, t, tups[i], rid)
		}
		if db.changeLog != nil {
			db.changeLog.Append(ChangeEntry{Table: t.Name, Op: ChangeDelete, RID: rid, Old: tups[i]})
		}
	}

	t.NumRows -= int64(len(rids))
	if t.NumRows < 0 {
		t.NumRows = 0
	}
	db.cat.BumpGeneration()
	return &Result{Stats: ExecStats{RowsAffected: int64(len(rids))}}, nil
}
