package btree

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/sqltypes"
)

func intKey(vs ...int64) sqltypes.Key {
	k := make(sqltypes.Key, len(vs))
	for i, v := range vs {
		k[i] = sqltypes.NewInt(v)
	}
	return k
}

func TestInsertAndSearchSmall(t *testing.T) {
	tr := New(4)
	for i := int64(0); i < 20; i++ {
		tr.Insert(intKey(i), RID{Page: int32(i)})
	}
	if tr.Len() != 20 {
		t.Fatalf("len: got %d", tr.Len())
	}
	for i := int64(0); i < 20; i++ {
		got := tr.SearchEq(intKey(i))
		if len(got) != 1 || got[0].RID.Page != int32(i) {
			t.Fatalf("search %d: got %v", i, got)
		}
	}
	if got := tr.SearchEq(intKey(99)); len(got) != 0 {
		t.Errorf("missing key should return empty, got %v", got)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestSplitsIncreaseHeightAndPages(t *testing.T) {
	tr := New(4)
	if tr.Height() != 1 || tr.NumPages() != 1 {
		t.Fatal("fresh tree should be a single leaf")
	}
	for i := int64(0); i < 1000; i++ {
		tr.Insert(intKey(i), RID{})
	}
	if tr.Height() < 3 {
		t.Errorf("1000 keys at order 4 should be deep, height=%d", tr.Height())
	}
	if tr.Splits() == 0 {
		t.Error("splits counter should be positive")
	}
	if tr.NumPages() < 250 {
		t.Errorf("pages should grow with entries, got %d", tr.NumPages())
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestRandomInsertOrder(t *testing.T) {
	tr := New(8)
	rng := rand.New(rand.NewSource(42))
	perm := rng.Perm(5000)
	for _, v := range perm {
		tr.Insert(intKey(int64(v)), RID{Page: int32(v)})
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, v := range []int64{0, 1, 2500, 4998, 4999} {
		got := tr.SearchEq(intKey(v))
		if len(got) != 1 || got[0].RID.Page != int32(v) {
			t.Fatalf("search %d after random inserts: %v", v, got)
		}
	}
}

func TestDuplicateKeys(t *testing.T) {
	tr := New(8)
	for i := int32(0); i < 10; i++ {
		tr.Insert(intKey(7), RID{Slot: i})
	}
	got := tr.SearchEq(intKey(7))
	if len(got) != 10 {
		t.Fatalf("want 10 duplicates, got %d", len(got))
	}
}

func TestDelete(t *testing.T) {
	tr := New(8)
	for i := int64(0); i < 100; i++ {
		tr.Insert(intKey(i), RID{Page: int32(i)})
	}
	if !tr.Delete(intKey(50), RID{Page: 50}) {
		t.Fatal("delete existing should succeed")
	}
	if tr.Delete(intKey(50), RID{Page: 50}) {
		t.Fatal("second delete should fail")
	}
	if len(tr.SearchEq(intKey(50))) != 0 {
		t.Error("deleted key still found")
	}
	if tr.Len() != 99 {
		t.Errorf("len after delete: %d", tr.Len())
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestDeleteSpecificRIDAmongDuplicates(t *testing.T) {
	tr := New(4)
	for i := int32(0); i < 20; i++ {
		tr.Insert(intKey(1), RID{Slot: i})
	}
	if !tr.Delete(intKey(1), RID{Slot: 13}) {
		t.Fatal("delete by rid should succeed")
	}
	got := tr.SearchEq(intKey(1))
	if len(got) != 19 {
		t.Fatalf("want 19 remaining, got %d", len(got))
	}
	for _, e := range got {
		if e.RID.Slot == 13 {
			t.Fatal("rid 13 should be gone")
		}
	}
}

func TestRangeScan(t *testing.T) {
	tr := New(8)
	for i := int64(0); i < 100; i++ {
		tr.Insert(intKey(i), RID{Page: int32(i)})
	}
	var seen []int64
	tr.ScanRange(intKey(10), intKey(20), true, false, func(e Entry) bool {
		seen = append(seen, e.Key[0].Int)
		return true
	})
	if len(seen) != 10 || seen[0] != 10 || seen[9] != 19 {
		t.Fatalf("range [10,20): got %v", seen)
	}
}

func TestRangeScanUnbounded(t *testing.T) {
	tr := New(8)
	for i := int64(0); i < 50; i++ {
		tr.Insert(intKey(i), RID{})
	}
	count := 0
	tr.ScanRange(nil, nil, true, true, func(e Entry) bool {
		count++
		return true
	})
	if count != 50 {
		t.Fatalf("full scan: want 50, got %d", count)
	}
	count = 0
	tr.ScanRange(intKey(40), nil, true, true, func(e Entry) bool {
		count++
		return true
	})
	if count != 10 {
		t.Fatalf("open-ended scan from 40: want 10, got %d", count)
	}
}

func TestCompositePrefixScan(t *testing.T) {
	tr := New(8)
	// (a, b) composite entries: a in 0..9, b in 0..9
	for a := int64(0); a < 10; a++ {
		for b := int64(0); b < 10; b++ {
			tr.Insert(intKey(a, b), RID{Page: int32(a), Slot: int32(b)})
		}
	}
	// prefix lookup a=5 should return all 10 entries
	got := tr.SearchEq(intKey(5))
	if len(got) != 10 {
		t.Fatalf("prefix a=5: want 10, got %d", len(got))
	}
	for _, e := range got {
		if e.Key[0].Int != 5 {
			t.Fatal("wrong prefix returned")
		}
	}
	// exact composite lookup
	got = tr.SearchEq(intKey(5, 7))
	if len(got) != 1 || got[0].RID.Slot != 7 {
		t.Fatalf("exact (5,7): got %v", got)
	}
}

func TestScanEarlyStop(t *testing.T) {
	tr := New(8)
	for i := int64(0); i < 100; i++ {
		tr.Insert(intKey(i), RID{})
	}
	count := 0
	tr.ScanRange(nil, nil, true, true, func(e Entry) bool {
		count++
		return count < 5
	})
	if count != 5 {
		t.Fatalf("early stop: want 5, got %d", count)
	}
}

func TestStringKeys(t *testing.T) {
	tr := New(8)
	words := []string{"delta", "alpha", "echo", "bravo", "charlie"}
	for i, w := range words {
		tr.Insert(sqltypes.Key{sqltypes.NewString(w)}, RID{Page: int32(i)})
	}
	var order []string
	tr.ScanRange(nil, nil, true, true, func(e Entry) bool {
		order = append(order, e.Key[0].Str)
		return true
	})
	want := []string{"alpha", "bravo", "charlie", "delta", "echo"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("sorted order: got %v", order)
		}
	}
}

func TestPropertyInsertedAlwaysFound(t *testing.T) {
	f := func(vals []int16) bool {
		tr := New(6)
		for i, v := range vals {
			tr.Insert(intKey(int64(v)), RID{Page: int32(i)})
		}
		if err := tr.Validate(); err != nil {
			return false
		}
		for _, v := range vals {
			if len(tr.SearchEq(intKey(int64(v)))) == 0 {
				return false
			}
		}
		return tr.Len() == int64(len(vals))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestPropertyScanIsSorted(t *testing.T) {
	f := func(vals []int32) bool {
		tr := New(5)
		for _, v := range vals {
			tr.Insert(intKey(int64(v)), RID{})
		}
		prev := int64(-1 << 62)
		ok := true
		tr.ScanRange(nil, nil, true, true, func(e Entry) bool {
			if e.Key[0].Int < prev {
				ok = false
				return false
			}
			prev = e.Key[0].Int
			return true
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestOrderTooSmallPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("order < 4 must panic")
		}
	}()
	New(2)
}

func TestValidateOrder(t *testing.T) {
	for _, order := range []int{-1, 0, 1, 2, 3} {
		if err := ValidateOrder(order); err == nil {
			t.Errorf("order %d should be rejected", order)
		}
	}
	for _, order := range []int{4, 8, DefaultOrder, 512} {
		if err := ValidateOrder(order); err != nil {
			t.Errorf("order %d should be valid: %v", order, err)
		}
	}
}

func TestBulkBuildMatchesIncremental(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	var entries []Entry
	for i := 0; i < 5000; i++ {
		entries = append(entries, Entry{
			Key: intKey(int64(rng.Intn(2000))), RID: RID{Page: int32(i)},
		})
	}
	bulk := BulkBuild(entries, 32)
	if err := bulk.Validate(); err != nil {
		t.Fatal(err)
	}
	inc := New(32)
	for _, e := range entries {
		inc.Insert(e.Key, e.RID)
	}
	if bulk.Len() != inc.Len() {
		t.Fatalf("entry counts: bulk=%d inc=%d", bulk.Len(), inc.Len())
	}
	// Every lookup agrees.
	for v := int64(0); v < 2000; v += 37 {
		b := bulk.SearchEq(intKey(v))
		i := inc.SearchEq(intKey(v))
		if len(b) != len(i) {
			t.Fatalf("lookup %d: bulk=%d inc=%d", v, len(b), len(i))
		}
	}
	// Bulk trees insert fine afterwards.
	bulk.Insert(intKey(99999), RID{Page: 1})
	if len(bulk.SearchEq(intKey(99999))) != 1 {
		t.Fatal("post-build insert")
	}
	if err := bulk.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestBulkBuildEmpty(t *testing.T) {
	tr := BulkBuild(nil, 8)
	if tr.Len() != 0 || tr.Height() != 1 || tr.NumPages() != 1 {
		t.Fatalf("empty bulk tree: len=%d h=%d pages=%d", tr.Len(), tr.Height(), tr.NumPages())
	}
	tr.Insert(intKey(1), RID{})
	if len(tr.SearchEq(intKey(1))) != 1 {
		t.Fatal("insert into empty bulk tree")
	}
}

func TestBulkBuildRangeScanOrdered(t *testing.T) {
	var entries []Entry
	for i := 4999; i >= 0; i-- { // reverse input order
		entries = append(entries, Entry{Key: intKey(int64(i)), RID: RID{}})
	}
	tr := BulkBuild(entries, 16)
	prev := int64(-1)
	count := 0
	tr.ScanRange(nil, nil, true, true, func(e Entry) bool {
		if e.Key[0].Int <= prev {
			t.Fatalf("order violated at %d after %d", e.Key[0].Int, prev)
		}
		prev = e.Key[0].Int
		count++
		return true
	})
	if count != 5000 {
		t.Fatalf("scan count: %d", count)
	}
}

func BenchmarkIncrementalBuild100k(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	entries := make([]Entry, 100000)
	for i := range entries {
		entries[i] = Entry{Key: intKey(rng.Int63n(1 << 40)), RID: RID{}}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr := New(DefaultOrder)
		for _, e := range entries {
			tr.Insert(e.Key, e.RID)
		}
	}
}
