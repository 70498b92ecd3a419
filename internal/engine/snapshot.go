package engine

import (
	"encoding/gob"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/btree"
	"repro/internal/sqltypes"
)

// snapshot is the on-disk representation: schema + tuples + index
// definitions. Indexes are rebuilt on load (cheaper and simpler than
// serializing tree pages, and it revalidates the build path).
type snapshot struct {
	Version int
	Tables  []snapTable
	Indexes []snapIndex
}

type snapTable struct {
	Name        string
	Columns     []snapColumn
	PrimaryKey  []string
	PartitionBy string
	Partitions  int
	Tuples      []sqltypes.Tuple
}

type snapColumn struct {
	Name string
	Kind sqltypes.Kind
}

type snapIndex struct {
	Name    string
	Table   string
	Columns []string
	Unique  bool
	Local   bool
}

const snapshotVersion = 1

// Save serializes the full database (schema, data, index definitions) to w.
func (db *DB) Save(w io.Writer) error {
	snap := snapshot{Version: snapshotVersion}
	for _, t := range db.cat.Tables() {
		st := snapTable{
			Name:        t.Name,
			PrimaryKey:  t.PrimaryKey,
			PartitionBy: t.PartitionBy,
			Partitions:  t.Partitions,
		}
		for _, c := range t.Columns {
			st.Columns = append(st.Columns, snapColumn{Name: c.Name, Kind: c.Type})
		}
		heap := db.heaps[t.Name]
		heap.Scan(nil, func(rid btree.RID, tup sqltypes.Tuple) bool {
			st.Tuples = append(st.Tuples, tup)
			return true
		})
		snap.Tables = append(snap.Tables, st)
	}
	for _, m := range db.cat.Indexes(false) {
		if m.IsPrimary() {
			continue // rebuilt from the primary key declaration
		}
		snap.Indexes = append(snap.Indexes, snapIndex{
			Name: m.Name, Table: m.Table, Columns: m.Columns,
			Unique: m.Unique, Local: m.Local,
		})
	}
	return gob.NewEncoder(w).Encode(&snap)
}

// SaveFile writes a snapshot to the named file.
func (db *DB) SaveFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return db.Save(f)
}

// Load reconstructs a database from a snapshot: tables, data, secondary
// indexes, and fresh statistics.
func Load(r io.Reader) (*DB, error) {
	var snap snapshot
	if err := gob.NewDecoder(r).Decode(&snap); err != nil {
		return nil, fmt.Errorf("engine: decode snapshot: %w", err)
	}
	if snap.Version != snapshotVersion {
		return nil, fmt.Errorf("engine: snapshot version %d unsupported (want %d)",
			snap.Version, snapshotVersion)
	}
	db := New()
	for _, st := range snap.Tables {
		ddl := renderCreateTable(st)
		if _, err := db.Exec(ddl); err != nil {
			return nil, fmt.Errorf("engine: restore table %s: %w", st.Name, err)
		}
		if err := db.BulkLoad(st.Name, st.Tuples); err != nil {
			return nil, fmt.Errorf("engine: restore rows of %s: %w", st.Name, err)
		}
	}
	for _, si := range snap.Indexes {
		if err := db.createIndex(&stmtState{}, IndexBuildSpec(si)); err != nil {
			return nil, fmt.Errorf("engine: restore index %s: %w", si.Name, err)
		}
	}
	if err := db.AnalyzeAll(); err != nil {
		return nil, err
	}
	return db, nil
}

// LoadFile reads a snapshot from the named file.
func LoadFile(path string) (*DB, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Load(f)
}

func renderCreateTable(st snapTable) string {
	var b strings.Builder
	b.WriteString("CREATE TABLE " + st.Name + " (")
	for i, c := range st.Columns {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(c.Name + " " + c.Kind.String())
	}
	if len(st.PrimaryKey) > 0 {
		b.WriteString(", PRIMARY KEY (" + strings.Join(st.PrimaryKey, ", ") + ")")
	}
	b.WriteString(")")
	if st.Partitions > 1 {
		b.WriteString(fmt.Sprintf(" PARTITION BY HASH (%s) PARTITIONS %d",
			st.PartitionBy, st.Partitions))
	}
	return b.String()
}
