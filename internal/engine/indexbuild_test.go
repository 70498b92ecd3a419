package engine

import (
	"fmt"
	"testing"

	"repro/internal/btree"
	"repro/internal/sqltypes"
	"repro/internal/storage"
)

// buildTableDB loads n rows of (id, k, name, bal) — flat, or hash-partitioned
// on k — and tombstones every seventh row, so heap pages have holes and the
// scan's selection vectors are not the identity.
func buildTableDB(t *testing.T, n int, partitioned bool) *DB {
	t.Helper()
	db := New()
	ddl := "CREATE TABLE acct (id BIGINT, k BIGINT, name TEXT, bal DOUBLE, PRIMARY KEY (id))"
	if partitioned {
		ddl += " PARTITION BY HASH (k) PARTITIONS 4"
	}
	if _, err := db.Exec(ddl); err != nil {
		t.Fatal(err)
	}
	rows := make([]sqltypes.Tuple, n)
	for i := range rows {
		rows[i] = sqltypes.Tuple{
			sqltypes.NewInt(int64(i)), sqltypes.NewInt(int64(i * 31 % 57)),
			sqltypes.NewString(fmt.Sprintf("name-%03d", i%40)), sqltypes.NewFloat(float64(i) / 4),
		}
	}
	if err := db.BulkLoad("acct", rows); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i += 7 {
		if _, err := db.Exec(fmt.Sprintf("DELETE FROM acct WHERE id = %d", i)); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

func snapshotOf(t *testing.T, db *DB, spec IndexBuildSpec) *IndexBuild {
	t.Helper()
	b, err := db.NewIndexBuild(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Snapshot(); err != nil {
		t.Fatal(err)
	}
	return b
}

func copyEntries(sets [][]btree.Entry) [][]btree.Entry {
	out := make([][]btree.Entry, len(sets))
	for i, set := range sets {
		out[i] = make([]btree.Entry, len(set))
		for j, e := range set {
			out[i][j] = btree.Entry{Key: append(sqltypes.Key(nil), e.Key...), RID: e.RID}
		}
	}
	return out
}

func requireSameEntries(t *testing.T, got, want [][]btree.Entry) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%d entry sets, want %d", len(got), len(want))
	}
	for ti := range want {
		if len(got[ti]) != len(want[ti]) {
			t.Fatalf("tree %d: %d entries, want %d", ti, len(got[ti]), len(want[ti]))
		}
		for i, w := range want[ti] {
			g := got[ti][i]
			if g.RID != w.RID || len(g.Key) != len(w.Key) {
				t.Fatalf("tree %d entry %d: %v, want %v", ti, i, g, w)
			}
			for j := range w.Key {
				if g.Key[j] != w.Key[j] {
					t.Fatalf("tree %d entry %d: %v, want %v", ti, i, g, w)
				}
			}
		}
	}
}

// The snapshot as it was taken before the arena: one tuple at a time, one
// key allocation per tuple. Entry sets, routing, IO charges and key bytes of
// the batch scan must equal it, for a GLOBAL and a LOCAL index.
func TestIndexBuildSnapshotMatchesTupleAtATimeScan(t *testing.T) {
	for _, spec := range []IndexBuildSpec{
		{Name: "g", Table: "acct", Columns: []string{"name", "k"}},
		{Name: "l", Table: "acct", Columns: []string{"k", "bal"}, Local: true},
	} {
		t.Run(spec.Name, func(t *testing.T) {
			db := buildTableDB(t, 1000, spec.Local)
			b := snapshotOf(t, db, spec)

			want := make([][]btree.Entry, b.nTrees)
			var io storage.IOCounter
			var keyBytes int64
			db.heaps["acct"].Scan(&io, func(rid btree.RID, tup sqltypes.Tuple) bool {
				key := b.keyOf(tup)
				keyBytes += keySize(key)
				ti := 0
				if spec.Local {
					ti = partitionOf(tup[1], 4)
				}
				want[ti] = append(want[ti], btree.Entry{Key: key, RID: rid})
				return true
			})
			requireSameEntries(t, b.entries, want)
			if b.io != io || b.keyBytes != keyBytes {
				t.Fatalf("io %+v keyBytes %d, want %+v / %d", b.io, b.keyBytes, io, keyBytes)
			}
			if spec.Local {
				for ti, set := range want {
					if len(set) == 0 {
						t.Fatalf("partition %d got no entries: the routing check is vacuous", ti)
					}
				}
			}
		})
	}
}

// Snapshotted keys are copies: nothing done to the heap afterwards — tuples
// overwritten in place, replaced, tombstoned — reaches them.
func TestIndexBuildSnapshotKeysSurviveHeapMutation(t *testing.T) {
	db := buildTableDB(t, 500, false)
	b := snapshotOf(t, db, IndexBuildSpec{Name: "g", Table: "acct", Columns: []string{"name", "k"}})
	want := copyEntries(b.entries)

	heap := db.heaps["acct"]
	for i, e := range want[0] {
		switch i % 3 {
		case 0: // scribble over the tuple the key was copied from
			tup := heap.Fetch(e.RID, nil)
			for j := range tup {
				tup[j] = sqltypes.NewString("overwritten")
			}
		case 1:
			if err := heap.Update(e.RID, sqltypes.Tuple{sqltypes.Null(), sqltypes.Null(), sqltypes.Null(), sqltypes.Null()}, nil); err != nil {
				t.Fatal(err)
			}
		default:
			if err := heap.Delete(e.RID, nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	requireSameEntries(t, b.entries, want)
}

// Keys of one page share a backing array; each is capped at its own columns,
// so growing one reallocates rather than overwriting its neighbour.
func TestIndexBuildSnapshotKeysCannotGrowIntoNeighbours(t *testing.T) {
	db := buildTableDB(t, 500, false)
	b := snapshotOf(t, db, IndexBuildSpec{Name: "g", Table: "acct", Columns: []string{"k", "name"}})
	want := copyEntries(b.entries)
	for _, e := range b.entries[0] {
		if cap(e.Key) != len(e.Key) {
			t.Fatalf("key %v has capacity %d beyond its %d columns", e.Key, cap(e.Key), len(e.Key))
		}
		grown := append(e.Key, sqltypes.NewString("spill"), sqltypes.NewString("spill"))
		grown[0] = sqltypes.NewString("spill")
	}
	requireSameEntries(t, b.entries, want)
}

// One allocation per heap page in the snapshot and three per leaf in the
// build, against one per tuple before the arena: a whole build of an N-row
// single-column index stays under N/16 objects.
func TestIndexBuildAllocatesPerPageNotPerTuple(t *testing.T) {
	const n = 8192
	db := New()
	if _, err := db.Exec("CREATE TABLE bl (id BIGINT, k BIGINT, PRIMARY KEY (id))"); err != nil {
		t.Fatal(err)
	}
	if err := db.BulkLoad("bl", makeTuples(n)); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(5, func() {
		b := snapshotOf(t, db, IndexBuildSpec{Name: "bk", Table: "bl", Columns: []string{"k"}})
		if err := b.Build(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > n/16 {
		t.Fatalf("Snapshot+Build of %d rows allocated %.0f objects, want at most %d", n, allocs, n/16)
	}
}
