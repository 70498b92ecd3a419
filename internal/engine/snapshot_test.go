package engine

import (
	"bytes"
	"testing"
)

func TestSnapshotRoundTrip(t *testing.T) {
	orig := newTestDB(t)
	mustExec(t, orig, "CREATE INDEX idx_cid ON orders (cid)")
	mustExec(t, orig, "CREATE INDEX idx_cs ON orders (cid, status)")

	var buf bytes.Buffer
	if err := orig.Save(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}

	// Schema and data round trip.
	queries := []string{
		"SELECT COUNT(*) FROM orders",
		"SELECT COUNT(*) FROM customer",
		"SELECT oid FROM orders WHERE cid = 7",
		"SELECT status, COUNT(*) FROM orders GROUP BY status",
		"SELECT c.name FROM customer c JOIN orders o ON c.id = o.cid WHERE o.oid = 5",
	}
	for _, q := range queries {
		a := normalizedRows(t, orig, q)
		b := normalizedRows(t, restored, q)
		if !equalRows(a, b) {
			t.Fatalf("query %q differs after restore:\norig: %v\nrest: %v", q, sample(a), sample(b))
		}
	}

	// Secondary indexes survive (pk indexes are rebuilt implicitly).
	for _, name := range []string{"idx_cid", "idx_cs", "pk_orders", "pk_customer"} {
		if restored.Catalog().Index(name) == nil {
			t.Errorf("index %s missing after restore", name)
		}
	}
	if restored.IndexTrees("idx_cid")[0].Len() != orig.IndexTrees("idx_cid")[0].Len() {
		t.Error("index entry counts differ after restore")
	}
}

func TestSnapshotPartitionedTable(t *testing.T) {
	orig := partitionedDB(t)
	mustExec(t, orig, "CREATE LOCAL INDEX l_owner ON acct (owner)")

	var buf bytes.Buffer
	if err := orig.Save(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	tbl := restored.Catalog().Table("acct")
	if tbl.Partitions != 8 || tbl.PartitionBy != "owner" {
		t.Fatalf("partition metadata lost: %+v", tbl)
	}
	if got := len(restored.IndexTrees("l_owner")); got != 8 {
		t.Fatalf("local index trees: want 8, got %d", got)
	}
	a := normalizedRows(t, orig, "SELECT id FROM acct WHERE owner = 42")
	b := normalizedRows(t, restored, "SELECT id FROM acct WHERE owner = 42")
	if !equalRows(a, b) {
		t.Error("partitioned query differs after restore")
	}
}

func TestSnapshotDeletedRowsExcluded(t *testing.T) {
	orig := newTestDB(t)
	mustExec(t, orig, "DELETE FROM orders WHERE cid = 5")
	var buf bytes.Buffer
	if err := orig.Save(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	res := mustExec(t, restored, "SELECT COUNT(*) FROM orders")
	if res.Rows[0][0].Int != 995 {
		t.Errorf("restored row count: %d", res.Rows[0][0].Int)
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(bytes.NewBufferString("not a snapshot")); err == nil {
		t.Error("garbage input must fail")
	}
}

func TestSaveLoadFile(t *testing.T) {
	orig := newTestDB(t)
	path := t.TempDir() + "/snap.gob"
	if err := orig.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	restored, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if restored.Catalog().Table("orders").NumRows != 1000 {
		t.Error("file round trip lost rows")
	}
	if _, err := LoadFile(path + ".missing"); err == nil {
		t.Error("missing file must fail")
	}
}
