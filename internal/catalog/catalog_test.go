package catalog

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/sqltypes"
)

func testTable(t *testing.T) (*Catalog, *Table) {
	t.Helper()
	c := New()
	tbl, err := c.CreateTable("orders", []Column{
		{Name: "id", Type: sqltypes.KindInt},
		{Name: "cid", Type: sqltypes.KindInt},
		{Name: "amount", Type: sqltypes.KindFloat},
		{Name: "status", Type: sqltypes.KindString},
	}, []string{"id"})
	if err != nil {
		t.Fatal(err)
	}
	return c, tbl
}

func TestCreateTableAndLookup(t *testing.T) {
	c, tbl := testTable(t)
	if c.Table("ORDERS") != tbl {
		t.Error("lookup must be case-insensitive")
	}
	if tbl.Column("cid").Pos != 1 {
		t.Error("column ordinal")
	}
	if tbl.Column("nope") != nil {
		t.Error("missing column should return nil")
	}
	if len(tbl.PrimaryKey) != 1 || tbl.PrimaryKey[0] != "id" {
		t.Error("primary key")
	}
}

func TestCreateTableErrors(t *testing.T) {
	c, _ := testTable(t)
	if _, err := c.CreateTable("orders", nil, nil); err == nil {
		t.Error("duplicate table must fail")
	}
	if _, err := c.CreateTable("t2", []Column{{Name: "a"}, {Name: "a"}}, nil); err == nil {
		t.Error("duplicate column must fail")
	}
	if _, err := c.CreateTable("t3", []Column{{Name: "a"}}, []string{"zzz"}); err == nil {
		t.Error("unknown pk column must fail")
	}
}

func TestIndexLifecycle(t *testing.T) {
	c, _ := testTable(t)
	m := &IndexMeta{Name: "idx_cid", Table: "orders", Columns: []string{"cid"}, SizeBytes: 100}
	if err := c.AddIndex(m); err != nil {
		t.Fatal(err)
	}
	if c.Index("idx_cid") == nil {
		t.Fatal("index lookup failed")
	}
	if err := c.AddIndex(&IndexMeta{Name: "idx_cid", Table: "orders", Columns: []string{"cid"}}); err == nil {
		t.Error("duplicate index name must fail")
	}
	if err := c.AddIndex(&IndexMeta{Name: "x", Table: "nosuch", Columns: []string{"a"}}); err == nil {
		t.Error("unknown table must fail")
	}
	if err := c.AddIndex(&IndexMeta{Name: "y", Table: "orders", Columns: []string{"ghost"}}); err == nil {
		t.Error("unknown column must fail")
	}
	if err := c.DropIndex("idx_cid"); err != nil {
		t.Fatal(err)
	}
	if err := c.DropIndex("idx_cid"); err == nil {
		t.Error("double drop must fail")
	}
}

func TestHypotheticalFiltering(t *testing.T) {
	c, _ := testTable(t)
	real := &IndexMeta{Name: "r", Table: "orders", Columns: []string{"cid"}, SizeBytes: 10}
	hypo := &IndexMeta{Name: "h", Table: "orders", Columns: []string{"amount"}, Hypothetical: true, SizeBytes: 99}
	if err := c.AddIndex(real); err != nil {
		t.Fatal(err)
	}
	if err := c.AddIndex(hypo); err != nil {
		t.Fatal(err)
	}
	if got := len(c.Indexes(false)); got != 1 {
		t.Errorf("real-only: want 1, got %d", got)
	}
	if got := len(c.Indexes(true)); got != 2 {
		t.Errorf("with hypo: want 2, got %d", got)
	}
	if got := len(c.TableIndexes("orders", false)); got != 1 {
		t.Errorf("table real-only: want 1, got %d", got)
	}
}

// TestIndexListsStayNameOrdered: whatever order DDL arrives in, every read
// sees a table's indexes by name, and a name is unique across tables.
func TestIndexListsStayNameOrdered(t *testing.T) {
	c, _ := testTable(t)
	if _, err := c.CreateTable("lines", []Column{{Name: "oid"}, {Name: "qty"}}, nil); err != nil {
		t.Fatal(err)
	}
	for _, m := range []*IndexMeta{
		{Name: "m", Table: "orders", Columns: []string{"cid"}},
		{Name: "PK_orders", Table: "ORDERS", Columns: []string{"ID"}, Unique: true},
		{Name: "a", Table: "orders", Columns: []string{"amount"}},
		{Name: "k", Table: "lines", Columns: []string{"oid"}},
		{Name: "z", Table: "orders", Columns: []string{"status"}, Hypothetical: true},
	} {
		if err := c.AddIndex(m); err != nil {
			t.Fatal(err)
		}
	}
	if got := names(c.TableIndexes("Orders", true)); got != "a m pk_orders z" {
		t.Errorf("TableIndexes(orders, true) = %q", got)
	}
	if got := names(c.TableIndexes("orders", false)); got != "a m pk_orders" {
		t.Errorf("TableIndexes(orders, false) = %q", got)
	}
	if got := names(c.Indexes(true)); got != "a k m pk_orders z" {
		t.Errorf("Indexes(true) = %q", got)
	}
	if err := c.AddIndex(&IndexMeta{Name: "k", Table: "orders", Columns: []string{"cid"}}); err == nil {
		t.Error("a name taken on another table must be refused")
	}
	if m := c.Index("PK_ORDERS"); m == nil || !m.IsPrimary() || m.Columns[0] != "id" {
		t.Errorf("Index is case-insensitive and AddIndex lower-cases: got %+v", m)
	}
	if c.Index("m").IsPrimary() {
		t.Error("only pk_ indexes are primary")
	}
	if err := c.DropIndex("M"); err != nil {
		t.Fatal(err)
	}
	if got := names(c.TableIndexes("orders", true)); got != "a pk_orders z" {
		t.Errorf("after drop: %q", got)
	}
}

// TestTableIndexesReturnsCallersOwnSlice: nothing a caller does to the slice
// it was handed — reorder, overwrite, append — reaches the catalog's list.
func TestTableIndexesReturnsCallersOwnSlice(t *testing.T) {
	c, _ := testTable(t)
	for _, name := range []string{"a", "b", "c"} {
		if err := c.AddIndex(&IndexMeta{Name: name, Table: "orders", Columns: []string{"cid"}}); err != nil {
			t.Fatal(err)
		}
	}
	got := c.TableIndexes("orders", true)
	got[0], got[2] = got[2], got[0]
	got[1] = &IndexMeta{Name: "scribble", Table: "orders"}
	_ = append(got, &IndexMeta{Name: "grown", Table: "orders"})
	_ = append(got[:1], &IndexMeta{Name: "overwritten", Table: "orders"})
	if after := names(c.TableIndexes("orders", true)); after != "a b c" {
		t.Errorf("catalog list changed through a returned slice: %q", after)
	}
	if all := names(c.Indexes(true)); all != "a b c" {
		t.Errorf("Indexes changed through a returned slice: %q", all)
	}
}

// TestViewHoldsExactlyTheConfiguration pins the what-if rules: primary keys
// always, a real index when the configuration names its key (as itself, not
// as the entry), everything else real or registered-hypothetical left out,
// an unmatched entry as given, duplicate keys once, all in name order.
func TestViewHoldsExactlyTheConfiguration(t *testing.T) {
	c, _ := testTable(t)
	pk := &IndexMeta{Name: "pk_orders", Table: "orders", Columns: []string{"id"}, Unique: true}
	cid := &IndexMeta{Name: "idx_cid", Table: "orders", Columns: []string{"cid"}, Height: 3}
	amount := &IndexMeta{Name: "idx_amount", Table: "orders", Columns: []string{"amount"}}
	mounted := &IndexMeta{Name: "hypo_status", Table: "orders", Columns: []string{"status"}, Hypothetical: true}
	for _, m := range []*IndexMeta{pk, cid, amount, mounted} {
		if err := c.AddIndex(m); err != nil {
			t.Fatal(err)
		}
	}
	gen := c.Generation()

	likeCid := &IndexMeta{Name: "cand_cid", Table: "orders", Columns: []string{"cid"}, Height: 1}
	spec := &IndexMeta{Name: "cand_status_cid", Table: "orders", Columns: []string{"status", "cid"}, Hypothetical: true}
	specAgain := &IndexMeta{Name: "zz_dup", Table: "orders", Columns: []string{"status", "cid"}}
	v, err := c.WithIndexes([]*IndexMeta{spec, likeCid, specAgain, spec})
	if err != nil {
		t.Fatal(err)
	}
	got := v.TableIndexes("orders", true)
	if names(got) != "cand_status_cid idx_cid pk_orders" {
		t.Fatalf("view holds %q", names(got))
	}
	if got[0] != spec || got[1] != cid || got[2] != pk {
		t.Error("the view must hold the first entry of a key, and the real index in place of an entry that names it")
	}
	if v.Table("orders") != c.Table("orders") || v.Generation() != gen {
		t.Error("a view shares tables, statistics and generation")
	}
	if c.Generation() != gen || names(c.Indexes(true)) != "hypo_status idx_amount idx_cid pk_orders" {
		t.Errorf("building a view touched the receiver: gen %d -> %d, indexes %q", gen, c.Generation(), names(c.Indexes(true)))
	}

	empty, err := c.WithIndexes(nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := names(empty.Indexes(true)); got != "pk_orders" {
		t.Errorf("the empty configuration keeps primary keys only, got %q", got)
	}
	// Entries without names order by key, so a configuration prices the
	// same whatever order it is listed in.
	a := &IndexMeta{Table: "orders", Columns: []string{"amount", "cid"}}
	b := &IndexMeta{Table: "orders", Columns: []string{"status"}}
	for _, cfg := range [][]*IndexMeta{{a, b}, {b, a}} {
		v, err := c.WithIndexes(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got := v.TableIndexes("orders", true); got[0] != a || got[1] != b || got[2] != pk {
			t.Errorf("unnamed entries out of key order: %v", got)
		}
	}
	for _, bad := range []*IndexMeta{
		{Name: "x", Table: "nosuch", Columns: []string{"a"}},
		{Name: "y", Table: "orders", Columns: []string{"ghost"}},
	} {
		if _, err := c.WithIndexes([]*IndexMeta{bad}); err == nil {
			t.Errorf("configuration entry %s must be refused", bad.Key())
		}
	}
}

// TestViewAndParentAreIsolated: index DDL after the view was taken, on
// either side, stays on that side — including on tables whose list the view
// shares with its parent.
func TestViewAndParentAreIsolated(t *testing.T) {
	c, _ := testTable(t)
	if _, err := c.CreateTable("lines", []Column{{Name: "oid"}, {Name: "qty"}}, []string{"oid"}); err != nil {
		t.Fatal(err)
	}
	pkOrders := &IndexMeta{Name: "pk_orders", Table: "orders", Columns: []string{"id"}}
	pkLines := &IndexMeta{Name: "pk_lines", Table: "lines", Columns: []string{"oid"}}
	cid := &IndexMeta{Name: "idx_cid", Table: "orders", Columns: []string{"cid"}}
	for _, m := range []*IndexMeta{pkOrders, pkLines, cid} {
		if err := c.AddIndex(m); err != nil {
			t.Fatal(err)
		}
	}
	v, err := c.WithIndexes([]*IndexMeta{cid}) // shares both lists unchanged
	if err != nil {
		t.Fatal(err)
	}

	if err := c.AddIndex(&IndexMeta{Name: "a_qty", Table: "lines", Columns: []string{"qty"}}); err != nil {
		t.Fatal(err)
	}
	if err := c.DropIndex("idx_cid"); err != nil {
		t.Fatal(err)
	}
	if err := c.AddIndex(&IndexMeta{Name: "zz_amount", Table: "orders", Columns: []string{"amount"}}); err != nil {
		t.Fatal(err)
	}
	if got := names(v.Indexes(true)); got != "idx_cid pk_lines pk_orders" {
		t.Errorf("parent DDL reached the view: %q", got)
	}

	if err := v.DropIndex("idx_cid"); err != nil {
		t.Fatal(err)
	}
	if err := v.AddIndex(&IndexMeta{Name: "v_status", Table: "orders", Columns: []string{"status"}}); err != nil {
		t.Fatal(err)
	}
	if err := v.AddIndex(&IndexMeta{Name: "b_qty", Table: "lines", Columns: []string{"qty"}}); err != nil {
		t.Fatal(err)
	}
	if got := names(v.Indexes(true)); got != "b_qty pk_lines pk_orders v_status" {
		t.Errorf("view after its own DDL: %q", got)
	}
	if got := names(c.Indexes(true)); got != "a_qty pk_lines pk_orders zz_amount" {
		t.Errorf("view DDL reached the parent: %q", got)
	}
}

func names(list []*IndexMeta) string {
	out := make([]string, len(list))
	for i, m := range list {
		out[i] = m.Name
	}
	return strings.Join(out, " ")
}

func TestIndexCovers(t *testing.T) {
	m := &IndexMeta{Table: "t", Columns: []string{"a", "b", "c"}}
	if !m.Covers([]string{"a"}) || !m.Covers([]string{"a", "b"}) {
		t.Error("leftmost prefixes must be covered")
	}
	if m.Covers([]string{"b"}) {
		t.Error("non-prefix must not be covered")
	}
	if m.Covers([]string{"a", "b", "c", "d"}) {
		t.Error("longer than index must not be covered")
	}
}

func TestSelectivityEq(t *testing.T) {
	s := &ColumnStats{NumRows: 1000, NumDistinct: 100}
	if got := s.SelectivityEq(); got != 0.01 {
		t.Errorf("eq selectivity: got %g", got)
	}
	var nilStats *ColumnStats
	if got := nilStats.SelectivityEq(); got != 0.1 {
		t.Errorf("nil stats default: got %g", got)
	}
}

func TestSelectivityRangeInterpolation(t *testing.T) {
	s := &ColumnStats{
		NumRows: 1000, NumDistinct: 1000,
		Min: sqltypes.NewInt(0), Max: sqltypes.NewInt(100),
	}
	got := s.SelectivityRange(sqltypes.NewInt(25), sqltypes.NewInt(75), false, false)
	if got < 0.45 || got > 0.55 {
		t.Errorf("mid-range selectivity ~0.5, got %g", got)
	}
	full := s.SelectivityRange(sqltypes.Null(), sqltypes.Null(), false, false)
	if full != 1.0 {
		t.Errorf("unbounded range should be 1.0, got %g", full)
	}
}

func TestSelectivityRangeHistogram(t *testing.T) {
	hist := make([]sqltypes.Value, 10)
	for i := range hist {
		hist[i] = sqltypes.NewInt(int64((i + 1) * 10)) // 10..100
	}
	s := &ColumnStats{NumRows: 1000, NumDistinct: 500, Histogram: hist,
		Min: sqltypes.NewInt(0), Max: sqltypes.NewInt(100)}
	got := s.SelectivityRange(sqltypes.Null(), sqltypes.NewInt(50), false, false)
	if got < 0.3 || got > 0.6 {
		t.Errorf("histogram selectivity for < 50: got %g", got)
	}
	low := s.SelectivityRange(sqltypes.NewInt(90), sqltypes.Null(), false, false)
	if low > 0.25 {
		t.Errorf("tail range should be small: got %g", low)
	}
}

func TestIndexKeyIdentity(t *testing.T) {
	a := &IndexMeta{Name: "x", Table: "t", Columns: []string{"a", "b"}}
	b := &IndexMeta{Name: "y", Table: "t", Columns: []string{"a", "b"}}
	if a.Key() != b.Key() {
		t.Error("same table+columns must share identity key")
	}
	c := &IndexMeta{Name: "z", Table: "t", Columns: []string{"b", "a"}}
	if a.Key() == c.Key() {
		t.Error("column order must distinguish identity keys")
	}
}

// TestGenerationCountsRealMutationsOnly pins the invalidation signal the
// what-if cost cache keys on: real DDL bumps the generation, while
// registering and dropping a hypothetical index (hypo.Session) never does.
func TestGenerationCountsRealMutationsOnly(t *testing.T) {
	c, _ := testTable(t)
	gen := c.Generation()
	if gen == 0 {
		t.Fatal("CreateTable must bump the generation")
	}

	hypo := &IndexMeta{Name: "hypo_x", Table: "orders", Columns: []string{"cid"}, Hypothetical: true}
	if err := c.AddIndex(hypo); err != nil {
		t.Fatal(err)
	}
	if err := c.DropIndex("hypo_x"); err != nil {
		t.Fatal(err)
	}
	if c.Generation() != gen {
		t.Errorf("hypothetical add/drop changed generation: %d -> %d", gen, c.Generation())
	}

	real := &IndexMeta{Name: "idx_real", Table: "orders", Columns: []string{"cid"}}
	if err := c.AddIndex(real); err != nil {
		t.Fatal(err)
	}
	if c.Generation() <= gen {
		t.Error("real AddIndex must bump the generation")
	}
	gen = c.Generation()
	if err := c.DropIndex("idx_real"); err != nil {
		t.Fatal(err)
	}
	if c.Generation() <= gen {
		t.Error("real DropIndex must bump the generation")
	}
	gen = c.Generation()
	c.BumpGeneration()
	if c.Generation() != gen+1 {
		t.Error("BumpGeneration must increment by one")
	}
}

// BenchmarkTableIndexes reads one table's index list — what every planned
// SELECT and every INSERT does — from a catalog of n secondary indexes laid
// out like the banking schema's: eight on the table read, the rest three to
// a table, a primary key on each.
func BenchmarkTableIndexes(b *testing.B) {
	for _, n := range []int{16, 259} {
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			c := New()
			for k := 0; k < n; k++ {
				table := "hot"
				if k >= 8 {
					table = fmt.Sprintf("aux_%03d", (k-8)/3)
				}
				if c.Table(table) == nil {
					if _, err := c.CreateTable(table, []Column{{Name: "id"}, {Name: "a"}, {Name: "b"}}, []string{"id"}); err != nil {
						b.Fatal(err)
					}
					if err := c.AddIndex(&IndexMeta{Name: "pk_" + table, Table: table, Columns: []string{"id"}, Unique: true}); err != nil {
						b.Fatal(err)
					}
				}
				m := &IndexMeta{Name: fmt.Sprintf("d_%s_%d", table, k), Table: table, Columns: []string{"a", "b"}[:1+k%2]}
				if err := c.AddIndex(m); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if got := c.TableIndexes("hot", true); len(got) != 9 {
					b.Fatalf("hot has %d indexes", len(got))
				}
			}
		})
	}
}
