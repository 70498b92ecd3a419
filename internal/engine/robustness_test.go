package engine

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/obs"
)

func TestNewWithConfigValidatesOrder(t *testing.T) {
	for _, order := range []int{1, 2, 3} {
		if _, err := NewWithConfig(Config{BTreeOrder: order}); err == nil {
			t.Errorf("order %d must be rejected at the config boundary", order)
		}
	}
	db, err := NewWithConfig(Config{BTreeOrder: 0}) // 0 = DefaultOrder
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec("CREATE TABLE t (id BIGINT, PRIMARY KEY (id))"); err != nil {
		t.Fatal(err)
	}

	db8, err := NewWithConfig(Config{BTreeOrder: 8})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db8.Exec("CREATE TABLE t (id BIGINT, v BIGINT, PRIMARY KEY (id))"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		if _, err := db8.Exec(fmt.Sprintf("INSERT INTO t (id, v) VALUES (%d, %d)", i, i%7)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := db8.Exec("CREATE INDEX idx_v ON t (v)"); err != nil {
		t.Fatal(err)
	}
	res, err := db8.Exec("SELECT id FROM t WHERE v = 3")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) == 0 {
		t.Error("order-8 trees should answer queries")
	}
}

func TestInjectedFaultSurfacesAsErrorNotPanic(t *testing.T) {
	db := New()
	if _, err := db.Exec("CREATE TABLE t (id BIGINT, v BIGINT, PRIMARY KEY (id))"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		if _, err := db.Exec(fmt.Sprintf("INSERT INTO t (id, v) VALUES (%d, %d)", i, i)); err != nil {
			t.Fatal(err)
		}
	}
	db.SetFaultInjector(fault.New(1, fault.Rule{
		Site: fault.SitePageRead, Kind: fault.KindIO, Nth: 1,
	}))
	_, err := db.Exec("SELECT v FROM t WHERE v = 5") // seq scan hits page_read
	if err == nil {
		t.Fatal("armed page-read fault should fail the statement")
	}
	if fault.AsFault(err) == nil {
		t.Fatalf("fault must surface as *fault.Error, got %T: %v", err, err)
	}
	// Single-shot rule: the engine keeps working afterwards.
	if _, err := db.Exec("SELECT v FROM t WHERE v = 5"); err != nil {
		t.Fatalf("engine should recover after the injected fault: %v", err)
	}
}

// smallPoolDB builds a database whose 4-frame buffer pool is far smaller
// than the ~10-page table, so every scan misses and evicts continuously —
// the armed bufferpool.* sites fire inside ordinary statements.
func smallPoolDB(t *testing.T) *DB {
	t.Helper()
	db, err := NewWithConfig(Config{BufferPoolPages: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec("CREATE TABLE t (id BIGINT, v BIGINT, PRIMARY KEY (id))"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 640; i++ {
		if _, err := db.Exec(fmt.Sprintf("INSERT INTO t (id, v) VALUES (%d, %d)", i, i%7)); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

func TestBufferMissFaultSurfacesAsError(t *testing.T) {
	db := smallPoolDB(t)
	db.SetFaultInjector(fault.New(1, fault.Rule{
		Site: fault.SiteBufferMiss, Kind: fault.KindIO, Nth: 3,
	}))
	_, err := db.Exec("SELECT COUNT(*) FROM t WHERE v = 2")
	if err == nil {
		t.Fatal("armed buffer-miss fault should fail the scanning statement")
	}
	fe := fault.AsFault(err)
	if fe == nil || fe.Site != fault.SiteBufferMiss {
		t.Fatalf("want a %s fault, got %T: %v", fault.SiteBufferMiss, err, err)
	}
	// The unwind must not leak the pins taken by pages already scanned.
	if s := db.BufferPool().Stats(); s.Pinned != 0 {
		t.Fatalf("failed scan leaked %d pinned frames", s.Pinned)
	}
	// Single-shot rule: the engine keeps working afterwards.
	if _, err := db.Exec("SELECT COUNT(*) FROM t WHERE v = 2"); err != nil {
		t.Fatalf("engine should recover after the miss fault: %v", err)
	}
}

func TestBufferEvictFaultSurfacesAsError(t *testing.T) {
	db := smallPoolDB(t)
	db.SetFaultInjector(fault.New(1, fault.Rule{
		Site: fault.SiteBufferEvict, Kind: fault.KindIO, Nth: 2,
	}))
	_, err := db.Exec("SELECT COUNT(*) FROM t WHERE v = 4")
	if err == nil {
		t.Fatal("armed eviction fault should fail the scanning statement")
	}
	fe := fault.AsFault(err)
	if fe == nil || fe.Site != fault.SiteBufferEvict {
		t.Fatalf("want a %s fault, got %T: %v", fault.SiteBufferEvict, err, err)
	}
	s := db.BufferPool().Stats()
	if s.Pinned != 0 {
		t.Fatalf("failed scan leaked %d pinned frames", s.Pinned)
	}
	if _, err := db.Exec("SELECT COUNT(*) FROM t WHERE v = 4"); err != nil {
		t.Fatalf("engine should recover after the eviction fault: %v", err)
	}
	// Logical accounting must be cache-independent: a statement after the
	// chaos costs the same as one on a pristine twin.
	twin := smallPoolDB(t)
	a, err := db.Exec("SELECT COUNT(*) FROM t")
	if err != nil {
		t.Fatal(err)
	}
	b, err := twin.Exec("SELECT COUNT(*) FROM t")
	if err != nil {
		t.Fatal(err)
	}
	if a.Stats != b.Stats {
		t.Fatalf("chaos perturbed logical stats:\nchaos: %+v\ntwin:  %+v", a.Stats, b.Stats)
	}
}

func TestBufferMissFaultDuringInsert(t *testing.T) {
	// Inserts touch pages too (the write is a physical access); a miss fault
	// during INSERT must fail that statement and leave the heap consistent.
	db := smallPoolDB(t)
	db.SetFaultInjector(fault.New(1, fault.Rule{
		Site: fault.SiteBufferMiss, Kind: fault.KindIO, Probability: 1, Limit: 1,
	}))
	// Thrash the pool with a scan first so the insert's page is not
	// resident; the scan itself may absorb the single fault, which is fine.
	_, _ = db.Exec("SELECT COUNT(*) FROM t WHERE v = 6")
	for i := 640; i < 840; i++ {
		if _, err := db.Exec(fmt.Sprintf("INSERT INTO t (id, v) VALUES (%d, %d)", i, i%7)); err != nil {
			if fault.AsFault(err) == nil {
				t.Fatalf("insert failure must be the injected fault: %v", err)
			}
			break
		}
	}
	// Whether the fault hit a scan or an insert, the engine stays coherent.
	res, err := db.Exec("SELECT COUNT(*) FROM t")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].Int < 640 {
		t.Fatalf("rows lost after insert fault: %v", res.Rows[0][0])
	}
}

func TestRecoverToErrorConvertsPanicToInternalError(t *testing.T) {
	db := New()
	reg := obs.NewRegistry()
	db.SetMetrics(reg)

	var res *Result
	var err error
	func() {
		defer db.recoverToError("TestOp", &res, &err)
		res = &Result{}
		panic("invariant blown")
	}()
	if res != nil {
		t.Error("result must be cleared on panic")
	}
	var ie *InternalError
	if !errors.As(err, &ie) {
		t.Fatalf("want *InternalError, got %v", err)
	}
	if ie.Op != "TestOp" || !strings.Contains(ie.Error(), "invariant blown") {
		t.Errorf("internal error lost context: %v", ie)
	}
	if ie.Stack == "" {
		t.Error("internal error should capture the stack")
	}
	if got := reg.Counter("engine_internal_panics_total", "").Value(); got != 1 {
		t.Errorf("engine_internal_panics_total = %d, want 1", got)
	}
}

func TestRecoverToErrorPassesFaultsThrough(t *testing.T) {
	db := New()
	reg := obs.NewRegistry()
	db.SetMetrics(reg)

	fe := &fault.Error{Site: fault.SitePageRead, Kind: fault.KindIO, Call: 7}
	var err error
	func() {
		defer db.recoverToError("TestOp", nil, &err)
		panic(fe)
	}()
	if err != fe {
		t.Fatalf("fault panics must come back as themselves: %v", err)
	}
	if errors.As(err, new(*InternalError)) {
		t.Error("an injected fault is not an internal panic")
	}
	if got := reg.Counter("engine_internal_panics_total", "").Value(); got != 0 {
		t.Errorf("fault passthrough must not count as an internal panic: %d", got)
	}
}
