package banking

import (
	"strings"
	"testing"

	"repro/internal/engine"
)

func TestLoadCreates144Tables(t *testing.T) {
	db := engine.New()
	if err := NewLoader(1).Load(db); err != nil {
		t.Fatal(err)
	}
	if got := len(db.Catalog().Tables()); got != 144 {
		t.Fatalf("want 144 tables, got %d", got)
	}
	if db.Catalog().Table("account").NumRows != numAccounts {
		t.Errorf("account rows: %d", db.Catalog().Table("account").NumRows)
	}
}

func TestDefaultIndexesOverProvisioned(t *testing.T) {
	db := engine.New()
	l := NewLoader(1)
	if err := l.Load(db); err != nil {
		t.Fatal(err)
	}
	n, err := l.InstallDefaultIndexes(db)
	if err != nil {
		t.Fatal(err)
	}
	if n < 200 {
		t.Errorf("default config should be heavily over-indexed: %d", n)
	}
	secondary := 0
	var bytes int64
	for _, m := range db.Catalog().Indexes(false) {
		if !strings.HasPrefix(m.Name, "pk_") {
			secondary++
		}
		bytes += m.SizeBytes
	}
	if secondary != n {
		t.Errorf("catalog secondary count %d != created %d", secondary, n)
	}
	if bytes == 0 {
		t.Error("index footprint should be tracked")
	}
}

func TestServicesExecute(t *testing.T) {
	db := engine.New()
	l := NewLoader(2)
	if err := l.Load(db); err != nil {
		t.Fatal(err)
	}
	for _, sql := range l.SummarizationService(20) {
		if _, err := db.Exec(sql); err != nil {
			t.Fatalf("summarization %q: %v", sql, err)
		}
	}
	for _, sql := range l.WithdrawalService(30) {
		if _, err := db.Exec(sql); err != nil {
			t.Fatalf("withdrawal %q: %v", sql, err)
		}
	}
}

func TestWithdrawalServiceHasWrites(t *testing.T) {
	l := NewLoader(3)
	writes := 0
	for _, sql := range l.WithdrawalService(60) {
		if strings.HasPrefix(sql, "UPDATE") || strings.HasPrefix(sql, "INSERT") {
			writes++
		}
	}
	if writes < 15 {
		t.Errorf("withdrawal service should mix writes: %d of 60", writes)
	}
}
