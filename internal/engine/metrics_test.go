package engine

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/obs"
)

func TestEngineMetrics(t *testing.T) {
	db := New()
	reg := obs.NewRegistry()
	db.SetMetrics(reg)

	mustExecM := func(sql string) {
		t.Helper()
		if _, err := db.Exec(sql); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
	}
	mustExecM("CREATE TABLE kv (id BIGINT, v BIGINT, PRIMARY KEY (id))")
	const rows = 1000
	for i := 0; i < rows; i++ {
		mustExecM(fmt.Sprintf("INSERT INTO kv (id, v) VALUES (%d, %d)", i, i%200))
	}
	if err := db.AnalyzeAll(); err != nil {
		t.Fatal(err)
	}
	mustExecM("CREATE INDEX idx_kv_v ON kv (v)")
	for i := 0; i < 10; i++ {
		mustExecM(fmt.Sprintf("SELECT id FROM kv WHERE v = %d", i))
	}

	// Statement histogram counts every statement; cost sum is positive.
	h := reg.Histogram("engine_statement_cost", "", nil)
	wantStmts := int64(1 + rows + 1 + 10) // create table + inserts + create index + selects
	if h.Count() != wantStmts {
		t.Errorf("statement histogram count = %d, want %d", h.Count(), wantStmts)
	}
	if h.Sum() <= 0 {
		t.Error("statement cost sum not positive")
	}
	if got := reg.Counter("engine_statements_total", "").Value(); got != wantStmts {
		t.Errorf("engine_statements_total = %d, want %d", got, wantStmts)
	}

	// Per-index probe counters mirror IndexUsage.
	probes := reg.CounterVec("engine_index_probes_total", "", "index").Values()
	if probes["idx_kv_v"] != 10 {
		t.Errorf("idx_kv_v probes = %d, want 10 (%v)", probes["idx_kv_v"], probes)
	}
	usage := db.IndexUsage()
	for name, n := range usage {
		if probes[name] != n {
			t.Errorf("probe counter %s = %d, usage = %d", name, probes[name], n)
		}
	}

	// Structural gauges: height and size per index.
	heights := reg.GaugeVec("engine_index_height", "", "index").Values()
	if heights["idx_kv_v"] < 1 {
		t.Errorf("idx_kv_v height gauge = %v", heights["idx_kv_v"])
	}
	sizes := reg.GaugeVec("engine_index_size_bytes", "", "index").Values()
	if sizes["idx_kv_v"] <= 0 {
		t.Errorf("idx_kv_v size gauge = %v", sizes["idx_kv_v"])
	}

	// IO/CPU totals flowed.
	if reg.Counter("engine_heap_pages_read_total", "").Value() == 0 {
		t.Error("heap pages read counter empty")
	}
	if reg.Counter("engine_index_descents_total", "").Value() == 0 {
		t.Error("index descents counter empty")
	}

	// DROP INDEX retires the structural gauges.
	mustExecM("DROP INDEX idx_kv_v")
	if _, ok := reg.GaugeVec("engine_index_height", "", "index").Values()["idx_kv_v"]; ok {
		t.Error("height gauge survived DROP INDEX")
	}

	// Errors are counted without stats.
	if _, err := db.Exec("SELECT nope FROM missing"); err == nil {
		t.Fatal("expected error")
	}
	if got := reg.Counter("engine_statement_errors_total", "").Value(); got != 1 {
		t.Errorf("error counter = %d, want 1", got)
	}

	// The registry renders as a Prometheus page with the engine families.
	var b strings.Builder
	if err := reg.WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"engine_statement_cost_bucket", "engine_index_probes_total{index="} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("prom page missing %q", want)
		}
	}
}

// TestBTreeSplitMonitor covers the btree → metrics bridge: inserting past a
// page boundary must raise the per-index split counter and the height gauge
// must track growth.
func TestBTreeSplitMonitor(t *testing.T) {
	db := New()
	reg := obs.NewRegistry()
	db.SetMetrics(reg)

	if _, err := db.Exec("CREATE TABLE big (id BIGINT, PRIMARY KEY (id))"); err != nil {
		t.Fatal(err)
	}
	// Insert enough rows to split the pk index's single leaf (order 128).
	for i := 0; i < 400; i++ {
		if _, err := db.Exec(fmt.Sprintf("INSERT INTO big (id) VALUES (%d)", i)); err != nil {
			t.Fatal(err)
		}
	}
	splits := reg.CounterVec("engine_index_splits_total", "", "index").Values()
	if splits["pk_big"] == 0 {
		t.Fatalf("no splits recorded: %v", splits)
	}
	if got := db.IndexTrees("pk_big")[0].Splits(); splits["pk_big"] != got {
		t.Errorf("split counter = %d, tree reports %d", splits["pk_big"], got)
	}
	heights := reg.GaugeVec("engine_index_height", "", "index").Values()
	if heights["pk_big"] != float64(db.IndexTrees("pk_big")[0].Height()) {
		t.Errorf("height gauge = %v, tree height = %d", heights["pk_big"], db.IndexTrees("pk_big")[0].Height())
	}
}

// TestMetricsDetached locks the off-by-default contract.
func TestMetricsDetached(t *testing.T) {
	db := New()
	if db.Metrics() != nil {
		t.Fatal("fresh DB has metrics attached")
	}
	if _, err := db.Exec("CREATE TABLE t (id BIGINT, PRIMARY KEY (id))"); err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	db.SetMetrics(reg)
	if db.Metrics() != reg {
		t.Fatal("Metrics() does not return the attached registry")
	}
	db.SetMetrics(nil)
	if db.Metrics() != nil {
		t.Fatal("SetMetrics(nil) did not detach")
	}
	// Statements after detach do not feed the old registry.
	before := reg.Counter("engine_statements_total", "").Value()
	if _, err := db.Exec("INSERT INTO t (id) VALUES (1)"); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("engine_statements_total", "").Value(); got != before {
		t.Error("detached registry still receiving statements")
	}
}
